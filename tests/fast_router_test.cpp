/** @file Differential lock: ContinuousRouter == ReferenceContinuousRouter.
 *
 * The library's incremental continuous router promises bit-identical
 * plans to the per-transition-rebuild oracle (tests/oracles/) — same
 * moves in the same order, same labels, same counters, same RNG
 * consumption — so every test here drives the two routers side by side
 * from identical inputs and compares the outputs exactly. Coverage
 * spans randomized stage sequences in both zone configurations (router
 * level, plan by plan) and the Table 2 suite, where the `fast` alias
 * must emit the same program as `continuous` (the full pipeline against
 * the oracle is pipeline_test.cpp's legacy regression).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "oracles/reference_router.hpp"
#include "route/router.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

Stage
randomStage(Rng &rng, std::size_t num_qubits)
{
    std::vector<QubitId> qubits(num_qubits);
    for (QubitId q = 0; q < num_qubits; ++q)
        qubits[q] = q;
    rng.shuffle(qubits);
    const std::size_t pairs = 1 + rng.nextBelow(num_qubits / 2);
    Stage stage;
    for (std::size_t p = 0; p < pairs; ++p)
        stage.gates.push_back(
            CzGate{qubits[2 * p], qubits[2 * p + 1]}.canonical());
    return stage;
}

void
expectPlansIdentical(const TransitionPlan &reference,
                     const TransitionPlan &fast, int step)
{
    EXPECT_EQ(reference.moves, fast.moves) << "step " << step;
    EXPECT_EQ(reference.labels, fast.labels) << "step " << step;
    EXPECT_EQ(reference.num_parked, fast.num_parked) << "step " << step;
    EXPECT_EQ(reference.num_evicted, fast.num_evicted) << "step " << step;
}

/**
 * Router-level differential over random stage sequences: both routers
 * draw from equally seeded external streams, so any divergence — an
 * extra RNG draw, a different slot choice, a reordered move — shows up
 * as a plan or final-layout mismatch.
 */
class FastRouterDifferential
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>>
{};

TEST_P(FastRouterDifferential, RandomStageSequencesMatchPlanByPlan)
{
    const auto [use_storage, seed] = GetParam();
    const std::size_t n = 24;
    const Machine machine(MachineConfig::forQubits(n));
    const RouterOptions options{use_storage, seed};

    Rng reference_stream(seed);
    Rng fast_stream(seed);
    ReferenceContinuousRouter reference(machine, options, reference_stream);
    ContinuousRouter fast(machine, options, fast_stream);

    Layout reference_layout(machine, n);
    Layout fast_layout(machine, n);
    placeRowMajor(reference_layout,
                  use_storage ? ZoneKind::Storage : ZoneKind::Compute);
    fast_layout.assignFrom(reference_layout);

    Rng stage_rng(seed * 31 + 7);
    for (int step = 0; step < 40; ++step) {
        const Stage stage = randomStage(stage_rng, n);
        const auto ref_plan =
            reference.planStageTransition(reference_layout, stage);
        const auto fast_plan = fast.planStageTransition(fast_layout, stage);
        expectPlansIdentical(ref_plan, fast_plan, step);
        for (QubitId q = 0; q < n; ++q) {
            ASSERT_EQ(reference_layout.siteOf(q), fast_layout.siteOf(q))
                << "layouts diverged at qubit " << q << ", step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FastRouterDifferential,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

/**
 * Alias lock: across the whole Table 2 suite, in both zone
 * configurations, --routing=fast emits the same machine program as
 * --routing=continuous, bit for bit (serialized instruction streams
 * compare every field of every instruction plus the initial sites).
 */
TEST(FastRouterTable2Test, FullPipelineBitIdenticalOnTable2)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const bool use_storage : {true, false}) {
            CompilerOptions reference_options;
            reference_options.use_storage = use_storage;
            reference_options.routing = RoutingStrategy::Continuous;
            CompilerOptions fast_options = reference_options;
            fast_options.routing = RoutingStrategy::Fast;

            const auto reference =
                PowerMoveCompiler(machine, reference_options)
                    .compile(circuit);
            const auto fast =
                PowerMoveCompiler(machine, fast_options).compile(circuit);
            EXPECT_EQ(scheduleToJson(reference.schedule),
                      scheduleToJson(fast.schedule))
                << spec.name << (use_storage ? " with" : " without")
                << " storage: the fast alias diverged from continuous";
        }
    }
}

/** Dense repeated stages exercise the statics/repeat-gate paths. */
TEST(FastRouterEdgeTest, RepeatedAndAdjacentGatesMatch)
{
    const std::size_t n = 9;
    const Machine machine(MachineConfig::forQubits(n));
    const RouterOptions options{true, 99};
    Rng ref_stream(5), fast_stream(5);
    ReferenceContinuousRouter reference(machine, options, ref_stream);
    ContinuousRouter fast(machine, options, fast_stream);
    Layout ref_layout(machine, n), fast_layout(machine, n);
    placeRowMajor(ref_layout, ZoneKind::Storage);
    fast_layout.assignFrom(ref_layout);

    const std::vector<Stage> stages = {
        Stage{{CzGate{0, 1}, CzGate{2, 3}}},
        Stage{{CzGate{0, 1}, CzGate{2, 3}}}, // repeats: all static
        Stage{{CzGate{0, 2}, CzGate{1, 3}}}, // cross pairs, both compute
        Stage{{CzGate{4, 5}}},               // park the rest
        Stage{{CzGate{0, 1}, CzGate{4, 5}}},
    };
    int step = 0;
    for (const Stage &stage : stages) {
        const auto ref_plan = reference.planStageTransition(ref_layout, stage);
        const auto fast_plan = fast.planStageTransition(fast_layout, stage);
        expectPlansIdentical(ref_plan, fast_plan, step++);
    }
}

/** reset() rebuilds from an externally mutated layout. */
TEST(FastRouterResetTest, ResetResyncsAfterExternalMutation)
{
    const std::size_t n = 12;
    const Machine machine(MachineConfig::forQubits(n));
    ContinuousRouter fast(machine, RouterOptions{true, 7});
    ReferenceContinuousRouter reference(machine, RouterOptions{true, 7});

    Layout fast_layout(machine, n), ref_layout(machine, n);
    placeRowMajor(fast_layout, ZoneKind::Storage);
    fast.planStageTransition(fast_layout, Stage{{CzGate{0, 1}}});

    // Mutate the layout behind the router's back, then resync both
    // sides: after reset() the incremental router must agree with a fresh
    // reference router on the same layout.
    fast_layout.moveTo(2, machine.storageSites().back());
    fast.reset();
    ref_layout.assignFrom(fast_layout);

    const Stage stage{{CzGate{2, 3}, CzGate{0, 4}}};
    const auto ref_plan = reference.planStageTransition(ref_layout, stage);
    const auto fast_plan = fast.planStageTransition(fast_layout, stage);
    EXPECT_EQ(ref_plan.moves, fast_plan.moves);
    EXPECT_EQ(ref_plan.labels, fast_plan.labels);
}

} // namespace
} // namespace powermove
