/**
 * @file
 * Differential oracle: the router of paper Sec. 5 in its
 * straightforward form, with the atom-reuse residency step of Lin et
 * al. ("Reuse-Aware Compilation for Zoned Quantum Architectures...").
 *
 * ReferenceContinuousRouter rebuilds every piece of conflict state —
 * planned occupancy, partner and label arrays, the storage-slot cursors
 * — from the layout on each transition, and searches free sites with
 * an expanding-ring scan. It is the formulation the paper describes,
 * kept out of the library: the product ContinuousRouter
 * (route/router.hpp) keeps that state incrementally and must produce
 * the same TransitionPlans move for move, label for label, with the
 * same RNG draws. With a residency policy this is the former
 * reuse-aware router, which planned against its own rebuilt occupancy
 * array. The differential tests and bench/micro_oracles drive the
 * routers side by side.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP

#include <memory>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "reuse/analysis.hpp"
#include "reuse/lifetimes.hpp"
#include "reuse/policy.hpp"
#include "route/move.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/**
 * First-free-row cursors over the storage zone, one per column.
 *
 * Cursors are rewound per transition and only advance past rows seen
 * occupied. Every park is claimed before any storage qubit departs for
 * its gate, so no slot frees behind a cursor and claimSlot() returns
 * the Sec. 5.2 minimum; it rewinds for one full rescan before declaring
 * the zone full.
 */
class StorageSlotIndex
{
  public:
    explicit StorageSlotIndex(const Machine &machine);

    /** Rewinds every column cursor; call once per stage transition. */
    void beginTransition();

    /**
     * Planned-empty storage slot for a qubit at @p origin, by
     * lexicographic (|dx|, y, x) over the cursors; fatal when full.
     */
    SiteId claimSlot(SiteCoord origin, const std::vector<int> &planned);

  private:
    std::int32_t firstFreeRow(std::int32_t column,
                              const std::vector<int> &planned);

    const Machine &machine_;
    std::vector<std::int32_t> cursor_; // per column: first maybe-free row
};

/** The per-transition-rebuild router (paper Sec. 5, plus reuse). */
class ReferenceContinuousRouter
{
  public:
    ReferenceContinuousRouter(const Machine &machine,
                              RouterOptions options = {});

    /**
     * Uses @p rng for the randomized mobile/static choice instead of an
     * internally seeded stream (options.seed is then ignored); @p rng
     * must outlive the router.
     */
    ReferenceContinuousRouter(const Machine &machine, RouterOptions options,
                              Rng &rng);

    // rng_ may point at own_rng_, so a defaulted copy/move would leave
    // the new object drawing from the source's (possibly dead) stream.
    ReferenceContinuousRouter(const ReferenceContinuousRouter &) = delete;
    ReferenceContinuousRouter &
    operator=(const ReferenceContinuousRouter &) = delete;

    /**
     * Plans the transition bringing @p layout into a configuration that
     * executes @p stage, and applies it to @p layout.
     *
     * Post-conditions (validated downstream): every gate pair of the
     * stage shares one compute site; no other two qubits share a site;
     * in storage mode every idle qubit not held sits in the storage
     * zone, and every held one sits alone in the compute zone.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    /** Same contract as ContinuousRouter::beginBlock(). */
    void beginBlock(const std::vector<Stage> &stages, std::size_t num_qubits,
                    bool final_block = false);

    /** Same contract as ContinuousRouter::endProgram(). */
    void endProgram();

    const ResidencyLifetimes &residency() const { return lifetimes_; }

    const RouterOptions &options() const { return options_; }

  private:
    /**
     * Nearest compute site that will be empty once all planned departures
     * and arrivals settle (Sec. 5.2 step 3); fatal when the zone is full.
     */
    SiteId findEmptyComputeSite(SiteId origin,
                                const std::vector<int> &planned) const;

    const Machine &machine_;
    RouterOptions options_;
    Rng own_rng_;  // used unless an external stream was supplied
    Rng *rng_;     // &own_rng_ or the caller's stream
    StorageSlotIndex storage_index_; // incremental Sec. 5.2 step 1 search

    // Residency step (engaged iff options.residency is set).
    std::unique_ptr<ResidencyPolicyImpl> policy_;
    ReuseAnalysis analysis_;
    ResidencyLifetimes lifetimes_;
    bool lifetimes_sized_ = false;
    std::size_t stage_cursor_ = 0;
    std::size_t global_stage_ = 0;

    // Scratch buffers reused across transitions to keep the planning
    // pass allocation-free (the compile-time story of Sec. 7.2 depends
    // on the router staying near-linear per stage).
    std::vector<QubitId> partner_;
    std::vector<int> planned_;
    std::vector<SiteId> target_;
    std::vector<MoveLabel> label_;
    std::vector<bool> labeled_;
    std::vector<int> statics_at_;
    std::vector<QubitId> follower_;
    std::vector<QubitId> first_idle_at_;
    std::vector<QubitId> idle_in_compute_;
    std::vector<QubitId> undecided_order_;
    std::vector<QubitId> evicted_;
    std::vector<QubitId> holds_;
    std::vector<int> holds_at_; // per site: holds parked there
    std::vector<QubitId> releases_;
    std::vector<QubitId> relocated_;
};

} // namespace powermove

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP
