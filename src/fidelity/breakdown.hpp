/**
 * @file
 * Output-fidelity accounting (paper Sec. 2.2, Eq. 1).
 *
 * The output fidelity decomposes into five factors:
 *
 *   f = f1^g1 * f2^g2 * f_exc^(sum_i n_i) * f_trans^N_trans
 *       * prod_q (1 - T_q / T2)
 *
 * where g1/g2 count gates, n_i counts compute-zone qubits not acted on
 * by CZ gates during the i-th Rydberg excitation, N_trans counts trap
 * transfers, and T_q is qubit q's idle time outside the storage zone.
 * Following the paper, comparisons omit the 1Q term by default since 1Q
 * layers are identical across compilers.
 */

#ifndef POWERMOVE_FIDELITY_BREAKDOWN_HPP
#define POWERMOVE_FIDELITY_BREAKDOWN_HPP

#include <cstddef>
#include <string>

#include "common/units.hpp"

namespace powermove {

struct HardwareParams;

/** Per-factor fidelity decomposition of one compiled program. */
struct FidelityBreakdown
{
    /** Executed single-qubit gates (g1). */
    std::size_t one_q_gates = 0;
    /** Executed CZ gates (g2). */
    std::size_t cz_gates = 0;
    /** Total idle-qubit exposures across all Rydberg pulses (sum n_i). */
    std::size_t excitation_exposures = 0;
    /** Trap transfers (N_trans; pickup + drop per relocation). */
    std::size_t transfers = 0;
    /** Number of Rydberg pulses (S). */
    std::size_t pulses = 0;

    /** End-to-end execution wall time (T_exe). */
    Duration exec_time;
    /** Sum over qubits of unprotected idle time (sum_q T_q). */
    Duration total_idle;

    /** f1^g1. */
    double one_q_factor = 1.0;
    /** f2^g2. */
    double two_q_factor = 1.0;
    /** f_exc^(sum n_i). */
    double excitation_factor = 1.0;
    /** f_trans^N_trans. */
    double transfer_factor = 1.0;
    /** prod_q max(0, 1 - T_q/T2). */
    double decoherence_factor = 1.0;

    /**
     * Total output fidelity per Eq. (1). The 1Q term is excluded unless
     * @p include_one_q is set (paper convention, Sec. 2.2).
     */
    double fidelity(bool include_one_q = false) const;

    /**
     * -log10 of fidelity(), summed per factor: the three power-law
     * factors from their counts and @p params, the decoherence factor
     * from its value. Stays finite where the product underflows to 0
     * (about 700k excitation exposures at Table 1 defaults), so such
     * schedules still compare. Lower is better.
     */
    double negLog10(const HardwareParams &params) const;

    /** One-line summary for logs and harness output. */
    std::string toString() const;
};

} // namespace powermove

#endif // POWERMOVE_FIDELITY_BREAKDOWN_HPP
