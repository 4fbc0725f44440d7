#include "route/windowed_router.hpp"

#include <limits>
#include <utility>

#include "common/error.hpp"

namespace powermove {

WindowedRouter::WindowedRouter(const Machine &machine, RouterOptions options,
                               std::uint32_t window, Rng &rng)
    : machine_(machine), options_(options), window_(window), rng_(&rng),
      candidate_rng_(options.seed), inner_(machine, options, candidate_rng_)
{
    PM_ASSERT(window_ >= 1, "routing window must be at least 1");
}

TransitionPlan
WindowedRouter::planStageTransition(Layout &layout, const Stage &stage)
{
    if (!scratch_ || scratch_->numQubits() != layout.numQubits())
        scratch_.emplace(machine_, layout.numQubits());

    // One draw from the pipeline stream per transition, independent of
    // the window size: all per-candidate randomness (the shuffles and
    // the inner router's mobile/static coin flips) derives from it, so
    // a window change alters candidate quality, never how much of the
    // shared stream later passes consume.
    std::uint64_t derive_state = rng_->next();

    TransitionPlan best;
    double best_distance = std::numeric_limits<double>::infinity();
    std::size_t best_moves = 0;
    bool have_best = false;
    std::size_t window_wins = 0;

    for (std::uint32_t k = 0; k < window_; ++k) {
        const std::uint64_t route_seed = splitMix64(derive_state);
        const std::uint64_t shuffle_seed = splitMix64(derive_state);

        candidate_stage_.gates = stage.gates;
        if (k > 0) {
            Rng shuffle_rng(shuffle_seed);
            shuffle_rng.shuffle(candidate_stage_.gates);
        }

        // Every candidate starts from the live layout: copy it into the
        // scratch and resync the inner router's incremental state to it.
        scratch_->assignFrom(layout);
        inner_.reset();
        candidate_rng_ = Rng(route_seed);
        TransitionPlan plan =
            inner_.planStageTransition(*scratch_, candidate_stage_);

        double distance = 0.0;
        for (const auto &move : plan.moves)
            distance += machine_.distanceBetween(move.from, move.to).microns();

        const bool better =
            !have_best || distance < best_distance ||
            (distance == best_distance && plan.moves.size() < best_moves);
        if (better) {
            if (have_best && k > 0)
                ++window_wins;
            best = std::move(plan);
            best_distance = distance;
            best_moves = best.moves.size();
            have_best = true;
        }
    }

    // The winner was planned against an exact copy of the live layout,
    // so replaying its moves transactionally lands in the same state
    // the inner router validated on the scratch.
    for (const auto &move : best.moves)
        layout.unplace(move.qubit);
    for (const auto &move : best.moves)
        layout.place(move.qubit, move.to);

    best.num_candidates = window_;
    best.num_window_wins = window_wins;
    return best;
}

} // namespace powermove
