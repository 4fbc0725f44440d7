/**
 * @file
 * Pluggable compute-zone residency: the cache replacement policies.
 *
 * Reframing (ROADMAP item 3): the compute zone is a *cache of atoms*
 * over the storage zone. A resident atom serves its next gate without
 * the four-transfer storage round trip (two transfers out, two back,
 * plus two shuttle legs across the inter-zone gap); in exchange it
 * absorbs one excitation exposure per intervening Rydberg pulse and
 * idle dephasing the storage zone would have shielded. Which atoms to
 * keep resident is therefore a cache replacement question, and this
 * interface makes the answer pluggable behind the router's residency
 * step (route/router.hpp; `--residency=lookahead|lti|fidelity`).
 *
 * Per stage transition the router hands the policy every idle-in-
 * compute qubit (the hold candidates) and the policy partitions them
 * into holds and releases. Policies are pure rankings over the shared
 * ReuseAnalysis next-use index or the fidelity cost model — they never
 * draw from the RNG, so every policy is deterministic per (circuit,
 * options).
 *
 * Lookahead reproduces the pre-policy router bit for bit wherever its
 * holds fit the compute zone, and resets residency at block
 * boundaries; the other two let residency persist
 * across blocks: beginBlock() re-validation happens naturally at the
 * next transition, where every survivor is a candidate again and the
 * policy either re-holds it or finally parks it.
 */

#ifndef POWERMOVE_REUSE_POLICY_HPP
#define POWERMOVE_REUSE_POLICY_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "circuit/gate.hpp"
#include "compiler/strategies.hpp"
#include "reuse/analysis.hpp"

namespace powermove {

/** Everything a residency policy may consult for one transition. */
struct ResidencyQuery
{
    /** Idle-in-compute hold candidates, ascending qubit id. */
    const std::vector<QubitId> &candidates;
    /** Block-local index of the stage being routed. */
    std::size_t stage;
    /** The current block's next-use index. */
    const ReuseAnalysis &analysis;
    /**
     * Compute-zone pressure bound: compute sites left once this
     * stage's gate pairs have claimed theirs. Holding more residents
     * than this cannot succeed (each survivor needs a site of its
     * own), so every policy evicts down to it.
     */
    std::size_t capacity;
};

/** One compute-zone cache replacement policy (see file comment). */
class ResidencyPolicyImpl
{
  public:
    virtual ~ResidencyPolicyImpl() = default;

    /**
     * True when residents survive block boundaries: the router then
     * skips the forced release in beginBlock() and the next
     * transition re-validates every survivor through partition().
     */
    virtual bool persistsAcrossBlocks() const = 0;

    /**
     * Partitions @p query.candidates into holds and releases
     * (appended; both may arrive non-empty from the router's scratch
     * reuse — implementations only append). Only membership matters:
     * the router re-sorts both sides into its deterministic
     * farthest-from-storage order before planning moves.
     */
    virtual void partition(const ResidencyQuery &query,
                           std::vector<QubitId> &holds,
                           std::vector<QubitId> &releases) = 0;
};

/**
 * Factory for the selected policy. @p lookahead is the configured
 * window (Lookahead only); @p params prices the Fidelity policy's
 * stay-vs-round-trip comparison.
 */
std::unique_ptr<ResidencyPolicyImpl>
makeResidencyPolicy(ResidencyPolicy policy, std::size_t lookahead,
                    const HardwareParams &params);

/**
 * The Fidelity policy's break-even residency length, in stages: hold
 * an idle atom iff its next use lies within this many stages. Derived
 * from the Eq. (1) factors: staying resident costs
 * `-ln(f_excitation) + t_cz / T2` per intervening pulse, the avoided
 * storage round trip costs `4 * -ln(f_transfer)` plus the transit
 * dephasing of four transfers and two shuttle legs across the zone
 * gap. Exposed for tests and docs; the defaults of Table 1 put it
 * between 1 and 2 stages — reuse only pays for back-to-back use.
 */
double fidelityBreakEvenStages(const HardwareParams &params);

} // namespace powermove

#endif // POWERMOVE_REUSE_POLICY_HPP
