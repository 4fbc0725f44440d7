#include "compiler/pipeline.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "collsched/intra_stage.hpp"
#include "collsched/multi_aod.hpp"
#include "common/error.hpp"
#include "fidelity/evaluator.hpp"
#include "placement/routing_aware.hpp"
#include "route/grouping.hpp"
#include "schedule/stage_partition.hpp"

namespace powermove {

namespace {

// --------------------------------------------------- placement strategies

class RowMajorPlacement final : public PlacementMethod
{
  public:
    void
    place(Layout &layout, ZoneKind zone, const Circuit &,
          PassProfiler &) const override
    {
        placeRowMajor(layout, zone);
    }
};

class RoutingAwarePlacement final : public PlacementMethod
{
  public:
    explicit RoutingAwarePlacement(std::uint32_t refine_iters)
        : options_{refine_iters}
    {}

    void
    place(Layout &layout, ZoneKind zone, const Circuit &circuit,
          PassProfiler &profiler) const override
    {
        RoutingAwarePlacementReport report;
        placeRoutingAware(layout, zone, circuit, options_, &report);
        // Strategy-specific counters (kept off the default profile, as
        // with the reuse routing counters): the weighted interaction
        // distance before and after refinement, x1000 to survive the
        // integer counter format, plus the local-search effort.
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

  private:
    RoutingAwarePlacementOptions options_;
};

// -------------------------------------------------- stage-order strategies

class AsPartitionedStageOrder final : public StageOrderMethod
{
  public:
    std::vector<Stage>
    order(std::vector<Stage> stages, const StageOrderOptions &) const override
    {
        return stages;
    }
};

class ZoneAwareStageOrder final : public StageOrderMethod
{
  public:
    std::vector<Stage>
    order(std::vector<Stage> stages,
          const StageOrderOptions &options) const override
    {
        return orderStages(std::move(stages), options);
    }
};

// ---------------------------------------------- coll-move-order strategies

class AsGroupedCollMoveOrder final : public CollMoveOrderMethod
{
  public:
    std::vector<CollMove>
    order(const Machine &, std::vector<CollMove> groups) const override
    {
        return groups;
    }
};

class StorageDwellCollMoveOrder final : public CollMoveOrderMethod
{
  public:
    std::vector<CollMove>
    order(const Machine &machine, std::vector<CollMove> groups) const override
    {
        return orderCollMoves(machine, std::move(groups));
    }
};

} // namespace

std::unique_ptr<const PlacementMethod>
makePlacementMethod(PlacementStrategy strategy, std::uint32_t refine_iters)
{
    switch (strategy) {
    case PlacementStrategy::RowMajor:
        return std::make_unique<RowMajorPlacement>();
    case PlacementStrategy::RoutingAware:
        return std::make_unique<RoutingAwarePlacement>(refine_iters);
    }
    fatal("unknown placement strategy");
}

std::unique_ptr<const StageOrderMethod>
makeStageOrderMethod(StageOrderStrategy strategy)
{
    switch (strategy) {
    case StageOrderStrategy::AsPartitioned:
        return std::make_unique<AsPartitionedStageOrder>();
    case StageOrderStrategy::ZoneAware:
        return std::make_unique<ZoneAwareStageOrder>();
    }
    fatal("unknown stage-order strategy");
}

std::unique_ptr<const CollMoveOrderMethod>
makeCollMoveOrderMethod(CollMoveOrderStrategy strategy)
{
    switch (strategy) {
    case CollMoveOrderStrategy::AsGrouped:
        return std::make_unique<AsGroupedCollMoveOrder>();
    case CollMoveOrderStrategy::StorageDwell:
        return std::make_unique<StorageDwellCollMoveOrder>();
    }
    fatal("unknown coll-move-order strategy");
}

// ------------------------------------------------------------------- passes

PlacementPass::PlacementPass(PlacementStrategy strategy,
                             std::uint32_t refine_iters)
    : method_(makePlacementMethod(strategy, refine_iters))
{}

void
PlacementPass::run(PipelineContext &ctx) const
{
    const auto timing = ctx.profiler.time(PassId::Placement);
    // The initial layout sits entirely in storage (Sec. 4.2) so that no
    // qubit is exposed to the first excitations; without a storage zone
    // everything starts in the compute zone instead.
    const ZoneKind zone =
        ctx.options.use_storage ? ZoneKind::Storage : ZoneKind::Compute;
    ctx.profiler.addCounter(PassId::Placement, "qubits_placed",
                            ctx.circuit.numQubits());
    method_->place(ctx.layout, zone, ctx.circuit, ctx.profiler);

    std::vector<SiteId> initial_sites(ctx.circuit.numQubits());
    for (QubitId q = 0; q < ctx.circuit.numQubits(); ++q)
        initial_sites[q] = ctx.layout.siteOf(q);
    ctx.schedule.emplace(ctx.machine, std::move(initial_sites));
}

std::vector<Stage>
StagePartitionPass::run(PipelineContext &ctx, const CzBlock &block) const
{
    const auto timing = ctx.profiler.time(PassId::StagePartition);
    auto stages = partitionIntoStagesLinear(block, ctx.circuit.numQubits());
    ctx.profiler.addCounter(PassId::StagePartition, "gates",
                            block.gates.size());
    ctx.profiler.addCounter(PassId::StagePartition, "stages_produced",
                            stages.size());
    return stages;
}

StageOrderPass::StageOrderPass(StageOrderStrategy strategy)
    : method_(makeStageOrderMethod(strategy))
{}

std::vector<Stage>
StageOrderPass::run(PipelineContext &ctx, std::vector<Stage> stages) const
{
    const auto timing = ctx.profiler.time(PassId::StageOrder);
    ctx.profiler.addCounter(PassId::StageOrder, "stages_ordered",
                            stages.size());
    return method_->order(std::move(stages),
                          StageOrderOptions{ctx.options.stage_order_alpha});
}

RoutingPass::RoutingPass(PipelineContext &ctx)
{
    RouterOptions options{ctx.options.use_storage, ctx.options.seed};
    // Atom reuse trades storage round trips for compute-zone residency,
    // which only exists as a trade when there is a storage zone to
    // round-trip to; storage-free configurations route continuously.
    if (ctx.options.routing == RoutingStrategy::Reuse &&
        ctx.options.use_storage) {
        if (ctx.options.reuse_lookahead == 0)
            fatal("reuse routing requires a lookahead window >= 1 stage");
        options.residency = ctx.options.residency;
        options.lookahead = ctx.options.reuse_lookahead;
    }
    if (ctx.options.routing == RoutingStrategy::Windowed) {
        if (ctx.options.routing_window == 0)
            fatal("windowed routing requires a window >= 1 ordering");
        windowed_router_ = std::make_unique<WindowedRouter>(
            ctx.machine, options, ctx.options.routing_window, ctx.rng);
    } else {
        router_ =
            std::make_unique<ContinuousRouter>(ctx.machine, options, ctx.rng);
    }
}

void
RoutingPass::beginBlock(PipelineContext &ctx, const std::vector<Stage> &stages)
{
    if (router_ == nullptr)
        return;
    // Deliberately untimed: the O(block gates) lookahead scan is noise
    // next to the per-stage planning, and opening a profiler scope here
    // would inflate the routing row's invocation count past the
    // documented one-per-stage semantics.
    const bool final_block =
        ctx.block_index + 1 == ctx.circuit.numBlocks();
    router_->beginBlock(stages, ctx.circuit.numQubits(), final_block);
}

TransitionPlan
RoutingPass::run(PipelineContext &ctx, const Stage &stage)
{
    const auto timing = ctx.profiler.time(PassId::Routing);
    TransitionPlan plan =
        windowed_router_ != nullptr
            ? windowed_router_->planStageTransition(ctx.layout, stage)
            : router_->planStageTransition(ctx.layout, stage);
    ctx.profiler.addCounter(PassId::Routing, "moves_planned",
                            plan.moves.size());
    ctx.profiler.addCounter(PassId::Routing, "qubits_parked",
                            plan.num_parked);
    ctx.profiler.addCounter(PassId::Routing, "qubits_evicted",
                            plan.num_evicted);
    if (router_ != nullptr && router_->options().residency) {
        // Reuse-only counters stay out of the continuous profile so the
        // default --profile output is unchanged from PR 2.
        ctx.profiler.addCounter(PassId::Routing, "qubits_held",
                                plan.num_held);
        // A hold that stays put skips its park move outright; a
        // relocated hold still emits one compute-zone move, so it only
        // trades the park (it saves the storage round trip's transfers
        // and the later retrieval, not a move this transition).
        ctx.profiler.addCounter(PassId::Routing, "moves_saved",
                                plan.num_held - plan.num_reuse_relocated);
        ctx.profiler.addCounter(PassId::Routing, "lookahead_hits",
                                plan.num_reuse_hits);
        ctx.profiler.addCounter(PassId::Routing, "lookahead_misses",
                                plan.num_lookahead_misses);
        // The misses split into "no further use in the block" (parking
        // is simply correct) and genuine window/pressure/cost misses;
        // the two always sum to lookahead_misses.
        ctx.profiler.addCounter(PassId::Routing, "parked_no_reuse",
                                plan.num_parked_no_reuse);
        ctx.profiler.addCounter(PassId::Routing, "window_misses",
                                plan.num_window_misses);
        ctx.profiler.addCounter(PassId::Routing, "reuse_relocations",
                                plan.num_reuse_relocated);
        ctx.profiler.addCounter(PassId::Routing, "holds_denied",
                                plan.num_hold_denied);
    }
    if (windowed_router_ != nullptr) {
        // Windowed-only counters, gated like the reuse block above so
        // the default --profile output stays unchanged.
        ctx.profiler.addCounter(PassId::Routing, "orderings_evaluated",
                                plan.num_candidates);
        ctx.profiler.addCounter(PassId::Routing, "window_wins",
                                plan.num_window_wins);
    }
    return plan;
}

void
RoutingPass::endProgram(PipelineContext &ctx)
{
    if (router_ == nullptr || !router_->options().residency)
        return;
    // Settle residency spans still open after the last transition so
    // the lifetime stats balance (holds_started == holds_ended).
    router_->endProgram();
    const ResidencyStats &stats = router_->residency().stats();
    ctx.profiler.addCounter(PassId::Routing, "residency_holds_started",
                            stats.holds_started);
    ctx.profiler.addCounter(PassId::Routing, "residency_holds_ended",
                            stats.holds_ended);
    ctx.profiler.addCounter(PassId::Routing, "residency_resident_stages",
                            stats.resident_stages);
    ctx.profiler.addCounter(PassId::Routing, "residency_max_concurrent",
                            stats.max_concurrent);
}

CollMoveOrderPass::CollMoveOrderPass(CollMoveOrderStrategy strategy)
    : method_(makeCollMoveOrderMethod(strategy))
{}

std::vector<CollMove>
CollMoveOrderPass::run(PipelineContext &ctx,
                       std::vector<QubitMove> moves) const
{
    const auto timing = ctx.profiler.time(PassId::CollMoveOrder);
    auto groups =
        method_->order(ctx.machine, groupMoves(ctx.machine, std::move(moves)));
    ctx.profiler.addCounter(PassId::CollMoveOrder, "groups_formed",
                            groups.size());
    return groups;
}

std::vector<AodBatch>
AodBatchPass::run(PipelineContext &ctx, std::vector<CollMove> groups) const
{
    const auto timing = ctx.profiler.time(PassId::AodBatch);
    auto batches = batchForAods(std::move(groups), ctx.options.num_aods);
    ctx.profiler.addCounter(PassId::AodBatch, "batches_emitted",
                            batches.size());
    return batches;
}

// ------------------------------------------------------------------- driver

Pipeline::Pipeline(const Machine &machine, CompilerOptions options)
    : machine_(machine), options_(options)
{
    if (options_.num_aods == 0)
        fatal("compiler requires at least one AOD array");
}

CompileResult
Pipeline::run(const Circuit &circuit) const
{
    const auto start = std::chrono::steady_clock::now();

    PipelineContext ctx{machine_,
                        options_,
                        circuit,
                        Layout(machine_, circuit.numQubits()),
                        std::nullopt,
                        Rng(options_.seed),
                        PassProfiler(options_.profile_passes)};

    const PlacementPass placement(options_.placement,
                                  options_.placement_refine_iters);
    const StagePartitionPass partition;
    const StageOrderPass stage_order(options_.stage_order);
    RoutingPass routing(ctx);
    const CollMoveOrderPass coll_move_order(options_.coll_move_order);
    const AodBatchPass aod_batch;

    placement.run(ctx);

    for (const auto &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            ctx.schedule->addOneQLayer(one_q->gates.size(),
                                       one_q->depth(circuit.numQubits()));
            continue;
        }
        const auto &block = std::get<CzBlock>(moment);

        // Stage Scheduler: partition, then strategy-selected ordering.
        auto stages = stage_order.run(ctx, partition.run(ctx, block));

        // The routing strategy sees the whole ordered block up front
        // (the reuse lookahead scans it; continuous ignores it).
        routing.beginBlock(ctx, stages);

        for (const auto &stage : stages) {
            // Continuous Router: direct transition into the stage layout.
            TransitionPlan plan = routing.run(ctx, stage);

            // Coll-Move grouping/ordering, then AOD batching.
            auto groups = coll_move_order.run(ctx, std::move(plan.moves));
            ctx.num_coll_moves += groups.size();
            for (auto &batch : aod_batch.run(ctx, std::move(groups)))
                ctx.schedule->addMoveBatch(std::move(batch));

            ctx.schedule->addRydberg(stage.gates, ctx.block_index);
            ++ctx.num_stages;
        }
        ++ctx.block_index;
    }

    // Close residency spans surviving the final block (reuse routing
    // only; a no-op for the other strategies).
    routing.endProgram(ctx);

    const auto stop = std::chrono::steady_clock::now();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(stop - start).count();

    CompileResult result{std::move(*ctx.schedule),
                         {},
                         Duration::micros(elapsed_us),
                         ctx.num_stages,
                         ctx.num_coll_moves,
                         ctx.profiler.finish()};
    result.metrics = evaluateSchedule(result.schedule);
    return result;
}

} // namespace powermove
