/**
 * @file
 * The schedule evaluator: replays a machine program and produces the
 * Eq. (1) fidelity breakdown plus the execution-time metric.
 *
 * Timing model (paper Table 1 and Sec. 6.2):
 *  - 1Q layer:        depth * t_1q, all qubits considered busy;
 *  - movement batch:  2 * t_transfer + slowest member move;
 *  - Rydberg pulse:   t_cz.
 *
 * Idle (decoherence-accruing) time for qubit q is the duration of every
 * instruction during which q is neither executing a gate nor protected
 * by the storage zone; a qubit in transit counts as unprotected, and a
 * qubit only counts as stored during an instruction when it is in
 * storage both before and after it.
 *
 * Only qubits outside storage and the movers are visited, so each
 * instruction costs O(moves + gates + compute-zone residents).
 */

#ifndef POWERMOVE_FIDELITY_EVALUATOR_HPP
#define POWERMOVE_FIDELITY_EVALUATOR_HPP

#include "fidelity/breakdown.hpp"
#include "isa/machine_schedule.hpp"

namespace powermove {

/** Replays @p schedule and computes its fidelity/time breakdown. */
FidelityBreakdown evaluateSchedule(const MachineSchedule &schedule);

} // namespace powermove

#endif // POWERMOVE_FIDELITY_EVALUATOR_HPP
