#include "compiler/powermove.hpp"

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "arch/layout.hpp"
#include "collsched/intra_stage.hpp"
#include "collsched/multi_aod.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fidelity/evaluator.hpp"
#include "placement/routing_aware.hpp"
#include "route/grouping.hpp"
#include "route/router.hpp"
#include "route/windowed_router.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"

namespace powermove {

namespace {

/**
 * Routing-aware placement plus its strategy-specific counters (kept off
 * the default profile, as with the reuse routing counters): the
 * weighted interaction distance before and after refinement, x1000 to
 * survive the integer counter format, plus the local-search effort.
 */
void
placeRoutingAwareProfiled(Layout &layout, ZoneKind zone,
                          const Circuit &circuit, std::uint32_t refine_iters,
                          PassProfiler &profiler)
{
    RoutingAwarePlacementReport report;
    placeRoutingAware(layout, zone, circuit,
                      RoutingAwarePlacementOptions{refine_iters}, &report);
    profiler.addCounter(
        PassId::Placement, "initial_weighted_dist_x1000",
        static_cast<std::uint64_t>(
            std::llround(report.initial_weighted_distance * 1000.0)));
    profiler.addCounter(
        PassId::Placement, "refined_weighted_dist_x1000",
        static_cast<std::uint64_t>(
            std::llround(report.refined_weighted_distance * 1000.0)));
    profiler.addCounter(PassId::Placement, "refine_sweeps",
                        report.refine_sweeps);
    profiler.addCounter(PassId::Placement, "refine_moves",
                        report.refine_moves);
}

/**
 * Publishes one transition's routing counters. The reuse and windowed
 * accounting is gated on its strategy so that the default --profile
 * output shows only the three counters every router fills.
 */
void
countTransition(PassProfiler &profiler, const TransitionPlan &plan,
                bool residency, bool windowed)
{
    profiler.addCounter(PassId::Routing, "moves_planned", plan.moves.size());
    profiler.addCounter(PassId::Routing, "qubits_parked", plan.num_parked);
    profiler.addCounter(PassId::Routing, "qubits_evicted", plan.num_evicted);
    if (residency) {
        profiler.addCounter(PassId::Routing, "qubits_held", plan.num_held);
        // A hold that stays put skips its park move outright; a
        // relocated hold still emits one compute-zone move, so it only
        // trades the park (it saves the storage round trip's transfers
        // and the later retrieval, not a move this transition).
        profiler.addCounter(PassId::Routing, "moves_saved",
                            plan.num_held - plan.num_reuse_relocated);
        profiler.addCounter(PassId::Routing, "lookahead_hits",
                            plan.num_reuse_hits);
        profiler.addCounter(PassId::Routing, "lookahead_misses",
                            plan.num_lookahead_misses);
        // The misses split into "no further use in the block" (parking
        // is simply correct) and genuine window/pressure/cost misses;
        // the two always sum to lookahead_misses.
        profiler.addCounter(PassId::Routing, "parked_no_reuse",
                            plan.num_parked_no_reuse);
        profiler.addCounter(PassId::Routing, "window_misses",
                            plan.num_window_misses);
        profiler.addCounter(PassId::Routing, "reuse_relocations",
                            plan.num_reuse_relocated);
    }
    if (windowed) {
        profiler.addCounter(PassId::Routing, "orderings_evaluated",
                            plan.num_candidates);
        profiler.addCounter(PassId::Routing, "window_wins",
                            plan.num_window_wins);
    }
}

} // namespace

PowerMoveCompiler::PowerMoveCompiler(const Machine &machine,
                                     CompilerOptions options)
    : machine_(machine), options_(options)
{
    if (options_.num_aods == 0)
        fatal("compiler requires at least one AOD array");
    // Storage-free reuse routes continuously and reads no lookahead.
    if (options_.routing == RoutingStrategy::Reuse && options_.use_storage &&
        options_.reuse_lookahead == 0)
        fatal("reuse routing requires a lookahead window >= 1 stage");
    if (options_.routing == RoutingStrategy::Windowed &&
        options_.routing_window == 0)
        fatal("windowed routing requires a window >= 1 ordering");
}

CompileResult
PowerMoveCompiler::compile(const Circuit &circuit) const
{
    const auto start = std::chrono::steady_clock::now();

    const std::size_t num_qubits = circuit.numQubits();
    Layout layout(machine_, num_qubits);
    // The compilation's single randomized-decision stream.
    Rng rng(options_.seed);
    PassProfiler profiler(options_.profile_passes);

    // Exactly one router per compile: the continuous router (`fast` is
    // its alias), the same router with a residency step (`reuse`), or
    // the windowed search around one. Atom reuse trades storage round
    // trips for compute-zone residency, which is only a trade when
    // there is a storage zone to round-trip to; storage-free
    // configurations route continuously.
    RouterOptions router_options{options_.use_storage, options_.seed};
    if (options_.routing == RoutingStrategy::Reuse && options_.use_storage) {
        router_options.residency = options_.residency;
        router_options.lookahead = options_.reuse_lookahead;
    }
    std::unique_ptr<ContinuousRouter> router;
    std::unique_ptr<WindowedRouter> windowed_router;
    if (options_.routing == RoutingStrategy::Windowed) {
        windowed_router = std::make_unique<WindowedRouter>(
            machine_, router_options, options_.routing_window, rng);
    } else {
        router =
            std::make_unique<ContinuousRouter>(machine_, router_options, rng);
    }
    const bool residency = router_options.residency.has_value();

    std::optional<MachineSchedule> schedule;
    {
        const auto timing = profiler.time(PassId::Placement);
        // The initial layout sits entirely in storage (Sec. 4.2) so that
        // no qubit is exposed to the first excitations; without a
        // storage zone everything starts in the compute zone instead.
        const ZoneKind zone =
            options_.use_storage ? ZoneKind::Storage : ZoneKind::Compute;
        profiler.addCounter(PassId::Placement, "qubits_placed", num_qubits);
        if (options_.placement == PlacementStrategy::RoutingAware)
            placeRoutingAwareProfiled(layout, zone, circuit,
                                      options_.placement_refine_iters,
                                      profiler);
        else
            placeRowMajor(layout, zone);

        std::vector<SiteId> initial_sites(num_qubits);
        for (QubitId q = 0; q < num_qubits; ++q)
            initial_sites[q] = layout.siteOf(q);
        schedule.emplace(machine_, std::move(initial_sites));
    }

    std::size_t num_stages = 0;
    std::size_t num_coll_moves = 0;
    std::size_t block_index = 0;
    for (const auto &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            schedule->addOneQLayer(one_q->gates.size(),
                                   one_q->depth(num_qubits));
            continue;
        }
        const auto &block = std::get<CzBlock>(moment);

        // Stage Scheduler: partition (Algorithm 1's edge coloring, by
        // the graph-free linear scan), then order (Sec. 4.2).
        std::vector<Stage> stages;
        {
            const auto timing = profiler.time(PassId::StagePartition);
            stages = partitionIntoStagesLinear(block, num_qubits);
            profiler.addCounter(PassId::StagePartition, "gates",
                                block.gates.size());
            profiler.addCounter(PassId::StagePartition, "stages_produced",
                                stages.size());
        }
        {
            const auto timing = profiler.time(PassId::StageOrder);
            profiler.addCounter(PassId::StageOrder, "stages_ordered",
                                stages.size());
            if (options_.stage_order == StageOrderStrategy::ZoneAware)
                stages = orderStages(
                    std::move(stages),
                    StageOrderOptions{options_.stage_order_alpha});
        }

        // The residency step's lookahead scans the whole ordered block
        // up front. Deliberately untimed: the scan is noise next to the
        // per-stage planning, and a routing scope here would break the
        // routing row's one-invocation-per-stage count.
        if (router != nullptr)
            router->beginBlock(stages, num_qubits,
                               block_index + 1 == circuit.numBlocks());

        for (const auto &stage : stages) {
            // Continuous Router: direct transition into the stage layout.
            TransitionPlan plan;
            {
                const auto timing = profiler.time(PassId::Routing);
                plan = windowed_router != nullptr
                           ? windowed_router->planStageTransition(layout,
                                                                  stage)
                           : router->planStageTransition(layout, stage);
                countTransition(profiler, plan, residency,
                                windowed_router != nullptr);
            }

            // Coll-Move grouping (Sec. 5.3) and storage-dwell order
            // (Sec. 6.1), then multi-AOD batching (Sec. 6.2).
            std::vector<CollMove> groups;
            {
                const auto timing = profiler.time(PassId::CollMoveOrder);
                groups = groupMoves(machine_, std::move(plan.moves));
                if (options_.coll_move_order ==
                    CollMoveOrderStrategy::StorageDwell)
                    groups = orderCollMoves(machine_, std::move(groups));
                profiler.addCounter(PassId::CollMoveOrder, "groups_formed",
                                    groups.size());
            }
            num_coll_moves += groups.size();
            std::vector<AodBatch> batches;
            {
                const auto timing = profiler.time(PassId::AodBatch);
                batches = batchForAods(std::move(groups), options_.num_aods);
                profiler.addCounter(PassId::AodBatch, "batches_emitted",
                                    batches.size());
            }
            for (auto &batch : batches)
                schedule->addMoveBatch(std::move(batch));

            schedule->addRydberg(stage.gates, block_index);
            ++num_stages;
        }
        ++block_index;
    }

    if (residency) {
        // Settle residency spans still open after the last transition
        // so the lifetime stats balance (holds_started == holds_ended).
        router->endProgram();
        const ResidencyStats &stats = router->residency().stats();
        profiler.addCounter(PassId::Routing, "residency_holds_started",
                            stats.holds_started);
        profiler.addCounter(PassId::Routing, "residency_holds_ended",
                            stats.holds_ended);
        profiler.addCounter(PassId::Routing, "residency_resident_stages",
                            stats.resident_stages);
        profiler.addCounter(PassId::Routing, "residency_max_concurrent",
                            stats.max_concurrent);
    }

    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(stop - start).count();

    CompileResult result{std::move(*schedule),
                         {},
                         Duration::micros(elapsed_us),
                         num_stages,
                         num_coll_moves,
                         profiler.finish()};
    result.metrics = evaluateSchedule(result.schedule);
    return result;
}

} // namespace powermove
