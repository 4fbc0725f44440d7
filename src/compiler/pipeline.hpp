/**
 * @file
 * The explicit pass pipeline behind PowerMoveCompiler (paper Fig. 1b).
 *
 * One compilation is a walk over the circuit's moments driven by
 * Pipeline::run(), threading a PipelineContext (layout, schedule in
 * progress, RNG, counters) through six named passes:
 *
 *   PlacementPass      initial layout (strategy-selected)        [once]
 *   StagePartitionPass stage partition (Sec. 4.1 coloring by a   [per block]
 *                      graph-free linear scan)
 *   StageOrderPass     zone-aware stage ordering (Sec. 4.2)      [per block]
 *   RoutingPass        layout transitions: continuous (Sec. 5)   [per stage]
 *                      with optional atom reuse (src/reuse/)
 *   CollMoveOrderPass  grouping + storage-dwell order (5.3/6.1)  [per stage]
 *   AodBatchPass       multi-AOD parallel batching (Sec. 6.2)    [per stage]
 *
 * Passes with more than one algorithm delegate to a small strategy
 * interface (PlacementMethod, StageOrderMethod, CollMoveOrderMethod)
 * or strategy-selected router, chosen by the CompilerOptions enums, so
 * new strategies from the related literature — e.g. routing-aware
 * placement — slot in without forking the driver. Each pass invocation
 * is timed and counted by the context's PassProfiler (see
 * compiler/profile.hpp).
 *
 * With default options the pipeline reproduces the pre-pipeline
 * monolithic compiler bit-for-bit (pipeline_test.cpp locks this in
 * against an inline legacy reference across the Table 2 suite).
 */

#ifndef POWERMOVE_COMPILER_PIPELINE_HPP
#define POWERMOVE_COMPILER_PIPELINE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "arch/layout.hpp"
#include "arch/machine.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "compiler/options.hpp"
#include "compiler/profile.hpp"
#include "compiler/result.hpp"
#include "isa/machine_schedule.hpp"
#include "route/router.hpp"
#include "route/windowed_router.hpp"
#include "schedule/stage.hpp"
#include "schedule/stage_order.hpp"

namespace powermove {

/** Everything a pass may read or mutate during one compilation. */
struct PipelineContext
{
    const Machine &machine;
    const CompilerOptions &options;
    const Circuit &circuit;
    /** Qubit occupancy; created unplaced, owned by the PlacementPass on. */
    Layout layout;
    /** Engaged by the PlacementPass once initial sites are known. */
    std::optional<MachineSchedule> schedule;
    /** The compilation's single randomized-decision stream. */
    Rng rng;
    /** Per-pass wall times and counters. */
    PassProfiler profiler;
    std::size_t num_stages = 0;
    std::size_t num_coll_moves = 0;
    std::size_t block_index = 0;
};

// ------------------------------------------------------- strategy interfaces

/** Strategy interface of the PlacementPass. */
class PlacementMethod
{
  public:
    virtual ~PlacementMethod() = default;
    /**
     * Places every unplaced qubit of @p layout into @p zone. Methods
     * with strategy-specific measurements publish them as PassId::
     * Placement counters on @p profiler (the pass wrapper owns the
     * timing scope and the shared counters); the simple layouts leave
     * it untouched.
     */
    virtual void place(Layout &layout, ZoneKind zone, const Circuit &circuit,
                       PassProfiler &profiler) const = 0;
};

/** Strategy interface of the StageOrderPass. */
class StageOrderMethod
{
  public:
    virtual ~StageOrderMethod() = default;
    virtual std::vector<Stage> order(std::vector<Stage> stages,
                                     const StageOrderOptions &options)
        const = 0;
};

/** Strategy interface of the CollMoveOrderPass (post-grouping order). */
class CollMoveOrderMethod
{
  public:
    virtual ~CollMoveOrderMethod() = default;
    virtual std::vector<CollMove> order(const Machine &machine,
                                        std::vector<CollMove> groups)
        const = 0;
};

/**
 * Factory for the selected placement algorithm. @p refine_iters is the
 * routing-aware local-search budget (ignored by the other strategies).
 */
std::unique_ptr<const PlacementMethod>
makePlacementMethod(PlacementStrategy strategy, std::uint32_t refine_iters);

/** Factory for the selected stage-order algorithm. */
std::unique_ptr<const StageOrderMethod>
makeStageOrderMethod(StageOrderStrategy strategy);

/** Factory for the selected Coll-Move-order algorithm. */
std::unique_ptr<const CollMoveOrderMethod>
makeCollMoveOrderMethod(CollMoveOrderStrategy strategy);

// ------------------------------------------------------------------- passes

/**
 * Builds the initial layout (into storage when options.use_storage,
 * else into the compute zone) and engages ctx.schedule with the
 * resulting per-qubit sites.
 */
class PlacementPass
{
  public:
    PlacementPass(PlacementStrategy strategy, std::uint32_t refine_iters);
    void run(PipelineContext &ctx) const;

  private:
    std::unique_ptr<const PlacementMethod> method_;
};

/**
 * Partitions one CZ block into disjoint-qubit stages (Algorithm 1): the
 * paper's edge coloring, computed by the graph-free linear scan
 * (schedule/stage_partition.hpp).
 */
class StagePartitionPass
{
  public:
    std::vector<Stage> run(PipelineContext &ctx, const CzBlock &block) const;
};

/** Orders the stages of one block per the selected strategy. */
class StageOrderPass
{
  public:
    explicit StageOrderPass(StageOrderStrategy strategy);
    std::vector<Stage> run(PipelineContext &ctx,
                           std::vector<Stage> stages) const;

  private:
    std::unique_ptr<const StageOrderMethod> method_;
};

/**
 * Plans and applies one layout transition per stage through the
 * strategy selected by CompilerOptions::routing: the paper's continuous
 * router (route/router.hpp; `fast` is its alias), the same router with
 * a residency policy in its step 1 (`reuse`), or the windowed
 * best-of-orderings search around it (route/windowed_router.hpp).
 * Builds exactly one router per compile and owns it (and through it
 * the scratch buffers); randomized decisions draw from ctx.rng. Reuse
 * requires the storage zone, so the storage-free configuration always
 * routes without a residency policy.
 */
class RoutingPass
{
  public:
    explicit RoutingPass(PipelineContext &ctx);

    /**
     * Announces the ordered stages of the next block before its first
     * transition is routed (the residency policy's lookahead scans
     * them; a no-op for the other strategies).
     */
    void beginBlock(PipelineContext &ctx, const std::vector<Stage> &stages);

    TransitionPlan run(PipelineContext &ctx, const Stage &stage);

    /**
     * Called once after the program's last transition: closes residency
     * spans surviving the final block and publishes the residency
     * lifetime counters. A no-op for the non-reuse strategies.
     */
    void endProgram(PipelineContext &ctx);

  private:
    // Exactly one of the two is engaged.
    std::unique_ptr<ContinuousRouter> router_;
    std::unique_ptr<WindowedRouter> windowed_router_;
};

/** Groups a transition's moves into Coll-Moves and orders them. */
class CollMoveOrderPass
{
  public:
    explicit CollMoveOrderPass(CollMoveOrderStrategy strategy);
    std::vector<CollMove> run(PipelineContext &ctx,
                              std::vector<QubitMove> moves) const;

  private:
    std::unique_ptr<const CollMoveOrderMethod> method_;
};

/** Splits ordered Coll-Moves into parallel multi-AOD batches. */
class AodBatchPass
{
  public:
    std::vector<AodBatch> run(PipelineContext &ctx,
                              std::vector<CollMove> groups) const;
};

// ------------------------------------------------------------------- driver

/** The pass-pipeline compiler core. */
class Pipeline
{
  public:
    /**
     * @param machine target machine; must outlive the pipeline and every
     *                CompileResult it produces
     * @param options pipeline configuration (num_aods must be positive)
     */
    Pipeline(const Machine &machine, CompilerOptions options);

    /** Runs every pass over @p circuit and evaluates the result. */
    CompileResult run(const Circuit &circuit) const;

    const CompilerOptions &options() const { return options_; }

  private:
    const Machine &machine_;
    CompilerOptions options_;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_PIPELINE_HPP
