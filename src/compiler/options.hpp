/**
 * @file
 * PowerMove compiler configuration.
 *
 * Fingerprint invariant: every field of CompilerOptions must be hashed
 * by service::fingerprintOptions() — the compilation service's cache
 * addresses results by that hash, so an unhashed field would let two
 * different configurations share a cache entry. fingerprint.cpp guards
 * the invariant with a sizeof static_assert and fingerprint_test.cpp
 * with a structured-binding field-count probe; extend all three when
 * adding a field here.
 */

#ifndef POWERMOVE_COMPILER_OPTIONS_HPP
#define POWERMOVE_COMPILER_OPTIONS_HPP

#include <cstddef>
#include <cstdint>

#include "compiler/strategies.hpp"

namespace powermove {

/** End-to-end pipeline knobs. */
struct CompilerOptions
{
    /**
     * Integrate the storage zone (paper's "with-storage" configuration).
     * When false only the continuous router runs and all qubits live in
     * the compute zone (paper's "non-storage" rows in Table 3).
     */
    bool use_storage = true;

    /**
     * Number of independent AOD arrays (paper Sec. 6.2, Fig. 7). The
     * ordered Coll-Moves of a transition run on them in consecutive
     * chunks of num_aods.
     */
    std::size_t num_aods = 1;

    /** Stage-ordering weight alpha in (0, 1] (paper Sec. 4.2). */
    double stage_order_alpha = 0.5;

    /**
     * Seed for the router's randomized mobile/static choice.
     *
     * Determinism rule for service compilation: a job's randomized
     * decisions must depend only on (seed, job content) — never on which
     * worker thread runs it or on queue interleaving. The service
     * therefore compiles each job with a *derived* seed,
     * service::deriveJobSeed(seed, job fingerprint), which mixes this
     * base seed with the content address of (circuit, machine config,
     * options). Identical jobs get identical streams — so serial and
     * 8-worker runs produce bit-identical results — while distinct jobs
     * get decorrelated streams from one base seed. Use
     * service::effectiveOptions() to replay any service job directly
     * through PowerMoveCompiler.
     */
    std::uint64_t seed = 0xC0FFEE;

    /** How the Placement step builds the initial layout. */
    PlacementStrategy placement = PlacementStrategy::RowMajor;

    /**
     * Local-search budget of the routing-aware placement: the maximum
     * number of refinement sweeps over relocations and pair swaps after
     * the greedy layout (0 = greedy only; the search stops early when a
     * sweep improves nothing). Ignored by every other placement.
     */
    std::uint32_t placement_refine_iters = 32;

    /**
     * Stage ordering within each CZ block. ZoneAware runs the Sec. 4.2
     * stage scheduler; AsPartitioned keeps the raw edge-coloring order
     * (the component-ablation baseline).
     */
    StageOrderStrategy stage_order = StageOrderStrategy::ZoneAware;

    /**
     * Coll-Move ordering within each stage transition. StorageDwell runs
     * the Sec. 6.1 intra-stage scheduler (move-ins early, move-outs
     * late); AsGrouped keeps the distance-grouping order (the
     * component-ablation baseline).
     */
    CollMoveOrderStrategy coll_move_order = CollMoveOrderStrategy::StorageDwell;

    /**
     * How the Routing step plans stage transitions. Continuous is the
     * paper's Sec. 5 router (every idle qubit parks in storage); Reuse
     * keeps idle qubits resident in the compute zone when they interact
     * again within reuse_lookahead stages (src/reuse/). Reuse requires
     * the storage zone: with use_storage = false the compiler falls back
     * to the continuous router.
     */
    RoutingStrategy routing = RoutingStrategy::Continuous;

    /**
     * Reuse-routing lookahead window, in stages (>= 1): an idle qubit
     * is held in the compute zone only if its next interaction lies
     * within this many upcoming stages of the current block. Ignored
     * by the continuous router.
     */
    std::uint32_t reuse_lookahead = 4;

    /**
     * How the router's residency step decides which idle atoms stay in
     * the compute zone — the replacement policy of the compute zone
     * viewed as a cache of atoms over storage. Lookahead (the default)
     * is the fixed reuse_lookahead window with holds force-released at
     * every block boundary, bit-identical to the pre-policy router;
     * Lti / Fidelity let residency persist across blocks and evict by
     * next-use distance or by the fidelity cost model
     * (src/reuse/policy.hpp). Ignored by every other routing strategy.
     */
    ResidencyPolicy residency = ResidencyPolicy::Lookahead;

    /**
     * Windowed-routing search width, in candidate gate orderings per
     * stage transition (>= 1): the original order plus window - 1
     * random shuffles, each routed on a scratch layout, best total
     * move distance wins. Compile time grows linearly with the
     * window; 1 degenerates to the continuous router. Ignored by
     * every other routing strategy.
     */
    std::uint32_t routing_window = 8;

    /**
     * Record per-pass wall times and counters into
     * CompileResult::pass_profiles. Profiling never changes the emitted
     * schedule; disabling only removes the clock reads from the hot loop
     * and leaves pass_profiles empty.
     */
    bool profile_passes = true;
};

} // namespace powermove

#endif // POWERMOVE_COMPILER_OPTIONS_HPP
