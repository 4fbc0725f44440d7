/**
 * @file
 * Differential oracle: the continuous router of paper Sec. 5 in its
 * straightforward form.
 *
 * ReferenceContinuousRouter rebuilds every piece of conflict state —
 * planned occupancy, partner and label arrays, the storage-slot cursors
 * — from the layout on each transition, and searches free sites with
 * the expanding-ring scan of route/free_site_index.hpp. It is the
 * formulation the paper describes, kept out of the library: the
 * product ContinuousRouter (route/router.hpp) keeps that state
 * incrementally and must produce the same TransitionPlans move for
 * move, label for label, with the same RNG draws. The differential
 * tests and bench/micro_router drive the two side by side.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP

#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "route/free_site_index.hpp"
#include "route/move.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** The per-transition-rebuild continuous router (paper Sec. 5). */
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
     * in storage mode every idle qubit sits in the storage zone.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

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
};

} // namespace powermove

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_ROUTER_HPP
