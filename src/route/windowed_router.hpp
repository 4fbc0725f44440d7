/**
 * @file
 * Windowed high-quality routing (opt-in, --routing=windowed).
 *
 * In the spirit of Stade et al., "Search Smarter, Not Harder" (see
 * PAPERS.md): the continuous router's plan quality depends on the order
 * it examines a stage's gates — the order fixes which qubit of a
 * compute-compute pair stays static, which sites fill first, and hence
 * how far the remaining movers travel. Instead of committing to the
 * partition's order, the windowed router evaluates a bounded window of
 * candidate gate orderings per stage transition — the original order
 * plus window-1 random shuffles — each routed on a scratch layout, and
 * commits the plan with the smallest total move distance (ties broken
 * toward fewer moves, then the earliest candidate, so the search is
 * deterministic given the pipeline RNG stream).
 *
 * Compile time scales linearly with the window; planned-move quality is
 * what the extra time buys. The window size lives in
 * CompilerOptions::routing_window and is part of the job fingerprint.
 */

#ifndef POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP
#define POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP

#include <cstdint>
#include <optional>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "common/rng.hpp"
#include "route/router.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Bounded search over gate orderings around ContinuousRouter. */
class WindowedRouter
{
  public:
    /**
     * Evaluates @p window candidate orderings per transition
     * (window >= 1; window == 1 degenerates to the continuous router
     * on the original order). Draws exactly one value per transition
     * from @p rng — the pipeline stream — to seed the candidate
     * shuffles and the per-candidate routing randomness, so results
     * are reproducible from CompilerOptions::seed alone. @p rng must
     * outlive the router.
     */
    WindowedRouter(const Machine &machine, RouterOptions options,
                   std::uint32_t window, Rng &rng);

    WindowedRouter(const WindowedRouter &) = delete;
    WindowedRouter &operator=(const WindowedRouter &) = delete;

    /**
     * Plans the best-of-window transition into @p stage and applies it
     * to @p layout. The returned plan carries num_candidates and
     * num_window_wins accounting.
     */
    TransitionPlan planStageTransition(Layout &layout, const Stage &stage);

    const RouterOptions &options() const { return options_; }
    std::uint32_t window() const { return window_; }

  private:
    const Machine &machine_;
    RouterOptions options_;
    std::uint32_t window_;
    Rng *rng_; // the pipeline stream; one draw per transition

    // The inner router draws its randomized decisions from
    // candidate_rng_, reseeded before every candidate so each ordering
    // is routed under an independent, reproducible stream. It is reset
    // before every candidate too: its incremental state then resyncs
    // from the scratch layout, reusing its buffers.
    Rng candidate_rng_;
    ContinuousRouter inner_;
    std::optional<Layout> scratch_; // sized lazily to the circuit width
    Stage candidate_stage_;         // reused gate-permutation buffer
};

} // namespace powermove

#endif // POWERMOVE_ROUTE_WINDOWED_ROUTER_HPP
