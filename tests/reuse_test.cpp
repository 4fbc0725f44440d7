/** @file Tests for atom reuse: src/reuse/ and the router's residency step. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "reuse/analysis.hpp"
#include "reuse/lifetimes.hpp"
#include "route/router.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace powermove {
namespace {

Stage
stageOf(std::initializer_list<CzGate> gates)
{
    Stage stage;
    stage.gates = gates;
    return stage;
}

// ----------------------------------------------------- ResidencyLifetimes

TEST(ResidencyLifetimesTest, ResidencyLifetimesAreCounted)
{
    ResidencyLifetimes lifetimes;
    lifetimes.reset(3);

    lifetimes.hold(0, 1);
    lifetimes.hold(1, 2);
    EXPECT_TRUE(lifetimes.isResident(0));
    EXPECT_EQ(lifetimes.numResidents(), 2u);
    lifetimes.hold(0, 3); // no-op: span continues
    EXPECT_EQ(lifetimes.stats().holds_started, 2u);

    lifetimes.release(0, 4); // span length 3
    lifetimes.release(2, 4); // not resident: no-op
    EXPECT_FALSE(lifetimes.isResident(0));
    EXPECT_EQ(lifetimes.numResidents(), 1u);
    EXPECT_EQ(lifetimes.stats().holds_ended, 1u);
    EXPECT_EQ(lifetimes.stats().resident_stages, 3u);
    EXPECT_EQ(lifetimes.stats().max_concurrent, 2u);

    // A block boundary ends the surviving span (qubit 1, resident
    // since stage 2) at one past the block's last stage.
    lifetimes.reset(3, /*end_stage=*/5);
    EXPECT_EQ(lifetimes.numResidents(), 0u);
    EXPECT_EQ(lifetimes.stats().holds_ended, 2u);
    EXPECT_EQ(lifetimes.stats().resident_stages, 6u); // 3 + (5 - 2)
}

// ---------------------------------------------------------- ReuseAnalysis

TEST(ReuseAnalysisTest, NextUseScansTheOrderedStages)
{
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{2, 3}}),
                         stageOf({{0, 2}})},
                        4);
    ASSERT_EQ(analysis.numStages(), 3u);

    EXPECT_EQ(analysis.nextUseAfter(0, 0), 2u);
    EXPECT_EQ(analysis.nextUseAfter(0, 1), kNoNextUse);
    EXPECT_EQ(analysis.nextUseAfter(0, 2), 1u);
    EXPECT_EQ(analysis.nextUseAfter(1, 2), 2u);
    EXPECT_EQ(analysis.nextUseAfter(2, 0), kNoNextUse);
}

TEST(ReuseAnalysisTest, HoldDecisionRespectsTheWindow)
{
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{2, 3}}),
                         stageOf({{2, 3}}), stageOf({{0, 1}})},
                        4);

    // Qubit 0 idles in stages 1 and 2; next use is stage 3.
    EXPECT_FALSE(analysis.shouldHold(1, 0, 1)); // distance 2 > window 1
    EXPECT_TRUE(analysis.shouldHold(1, 0, 2));
    EXPECT_TRUE(analysis.shouldHold(2, 0, 1)); // distance 1
    // Qubit 2 never interacts after stage 2.
    EXPECT_FALSE(analysis.shouldHold(2, 2, 100));
}

TEST(ReuseAnalysisTest, ProgramEndIsAVirtualReuseEventInTheFinalBlock)
{
    const std::vector<Stage> stages = {stageOf({{0, 1}}), stageOf({{2, 3}}),
                                       stageOf({{2, 3}})};
    ReuseAnalysis inner;
    inner.beginBlock(stages, 4, /*final_block=*/false);
    // Qubit 0 never interacts again: a non-final block always parks it.
    EXPECT_FALSE(inner.shouldHold(1, 0, 100));

    ReuseAnalysis last;
    last.beginBlock(stages, 4, /*final_block=*/true);
    // Program end sits one past stage 2: distance 2 from stage 1.
    EXPECT_TRUE(last.shouldHold(1, 0, 2));
    EXPECT_FALSE(last.shouldHold(1, 0, 1));
}

TEST(ReuseAnalysisTest, BeginBlockResetsThePreviousBlock)
{
    ReuseAnalysis analysis;
    analysis.beginBlock({stageOf({{0, 1}})}, 2);
    analysis.beginBlock({stageOf({{0, 1}}), stageOf({{0, 1}})}, 2);
    EXPECT_EQ(analysis.nextUseAfter(0, 0), 1u);
}

// ------------------------------------------------ router residency step

/** Router options with the Lookahead residency policy engaged. */
RouterOptions
reuseOptions(std::size_t lookahead, std::uint64_t seed)
{
    return RouterOptions{true, seed, ResidencyPolicy::Lookahead, lookahead};
}

class ReuseRouterTest : public ::testing::Test
{
  protected:
    ReuseRouterTest() : machine_(MachineConfig::forQubits(4)) {}

    Machine machine_;
};

TEST_F(ReuseRouterTest, SoonReusedQubitsStayResident)
{
    Layout layout(machine_, 4);
    placeRowMajor(layout, ZoneKind::Storage);

    const std::vector<Stage> stages = {stageOf({{0, 1}}), stageOf({{2, 3}}),
                                       stageOf({{0, 1}})};
    ContinuousRouter router(machine_, reuseOptions(4, 1));
    router.beginBlock(stages, 4);

    router.planStageTransition(layout, stages[0]);
    EXPECT_EQ(layout.siteOf(0), layout.siteOf(1));

    // Stage 1: qubits 0 and 1 idle but interact again in stage 2 —
    // both are held in the compute zone; the co-located pair must be
    // split so the intervening pulse sees no unwanted blockade.
    const auto plan = router.planStageTransition(layout, stages[1]);
    EXPECT_EQ(plan.num_held, 2u);
    EXPECT_EQ(plan.num_parked, 0u);
    EXPECT_EQ(plan.num_reuse_relocated, 1u);
    EXPECT_EQ(layout.zoneOf(0), ZoneKind::Compute);
    EXPECT_EQ(layout.zoneOf(1), ZoneKind::Compute);
    EXPECT_NE(layout.siteOf(0), layout.siteOf(1));
    EXPECT_EQ(layout.occupancy(layout.siteOf(0)), 1u);
    EXPECT_EQ(layout.occupancy(layout.siteOf(1)), 1u);

    // Stage 2: the held qubits are consumed by their gate — two hits,
    // and the transition needs no storage retrieval for them.
    const auto final_plan = router.planStageTransition(layout, stages[2]);
    EXPECT_EQ(final_plan.num_reuse_hits, 2u);
    EXPECT_EQ(layout.siteOf(0), layout.siteOf(1));
    EXPECT_EQ(router.residency().stats().holds_started, 2u);
    EXPECT_EQ(router.residency().stats().holds_ended, 2u);
}

TEST_F(ReuseRouterTest, QubitsBeyondTheWindowParkInStorage)
{
    Layout layout(machine_, 4);
    placeRowMajor(layout, ZoneKind::Storage);

    // Qubits 0/1 idle for two stages; a window of 1 refuses the hold.
    const std::vector<Stage> stages = {stageOf({{0, 1}}), stageOf({{2, 3}}),
                                       stageOf({{2, 3}}), stageOf({{0, 1}})};
    ContinuousRouter router(machine_, reuseOptions(1, 1));
    router.beginBlock(stages, 4);

    router.planStageTransition(layout, stages[0]);
    const auto plan = router.planStageTransition(layout, stages[1]);
    EXPECT_EQ(plan.num_held, 0u);
    EXPECT_EQ(plan.num_parked, 2u);
    EXPECT_EQ(plan.num_lookahead_misses, 2u);
    EXPECT_EQ(layout.zoneOf(0), ZoneKind::Storage);
    EXPECT_EQ(layout.zoneOf(1), ZoneKind::Storage);
}

TEST_F(ReuseRouterTest, RoutingBeforeBeginBlockIsRejected)
{
    Layout layout(machine_, 4);
    placeRowMajor(layout, ZoneKind::Storage);
    ContinuousRouter router(machine_, reuseOptions(4, 1));
    EXPECT_THROW(router.planStageTransition(layout, stageOf({{0, 1}})),
                 InternalError);
}

// ------------------------------------------------------- pipeline behavior

CompileResult
compileWith(const Machine &machine, const Circuit &circuit,
            RoutingStrategy routing, bool use_storage = true)
{
    CompilerOptions options;
    options.routing = routing;
    options.use_storage = use_storage;
    return PowerMoveCompiler(machine, options).compile(circuit);
}

TEST(ReusePipelineTest, Table2SuiteValidatesUnderReuseRouting)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        const auto result =
            compileWith(machine, circuit, RoutingStrategy::Reuse);
        EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit))
            << spec.name << " under --routing=reuse";
        EXPECT_GT(result.metrics.fidelity(), 0.0) << spec.name;
    }
}

TEST(ReusePipelineTest, ReuseCutsPlannedMovesOnQaoa)
{
    // Interaction-dense families where most idle spells are shorter
    // than the default lookahead window.
    for (const std::string family :
         {"QAOA-regular3", "QAOA-regular4", "QAOA-random"}) {
        std::size_t continuous_moves = 0;
        std::size_t reuse_moves = 0;
        for (const BenchmarkSpec &spec : table2Suite()) {
            if (spec.family != family)
                continue;
            const Machine machine(spec.machine_config);
            const Circuit circuit = spec.build();
            continuous_moves +=
                compileWith(machine, circuit, RoutingStrategy::Continuous)
                    .schedule.numQubitMoves();
            reuse_moves +=
                compileWith(machine, circuit, RoutingStrategy::Reuse)
                    .schedule.numQubitMoves();
        }
        ASSERT_GT(continuous_moves, 0u) << family;
        EXPECT_LT(reuse_moves, continuous_moves) << family;
    }
}

TEST(ReusePipelineTest, ReuseCutsPlannedMovesOnMultiLayerVqe)
{
    // Table 2's VQE rows are single-layer linear chains whose idle
    // qubits never enter the compute zone — no routing policy can save
    // a move there (bench/micro_strategies prints the tie). Realistic
    // multi-layer ansatze strand their chain-end atoms in the compute
    // zone at every layer boundary, which reuse picks up, and never do
    // worse anywhere in the family.
    std::size_t continuous_moves = 0;
    std::size_t reuse_moves = 0;
    for (const std::size_t n : {30u, 50u}) {
        const Machine machine(MachineConfig::forQubits(n));
        const Circuit circuit =
            makeVqe(n, 2, VqeEntanglement::Linear, 0xF00D + n);
        const auto continuous =
            compileWith(machine, circuit, RoutingStrategy::Continuous);
        const auto reuse =
            compileWith(machine, circuit, RoutingStrategy::Reuse);
        EXPECT_NO_THROW(validateAgainstCircuit(reuse.schedule, circuit));
        continuous_moves += continuous.schedule.numQubitMoves();
        reuse_moves += reuse.schedule.numQubitMoves();
    }
    EXPECT_LT(reuse_moves, continuous_moves);

    for (const BenchmarkSpec &spec : table2Suite()) {
        if (spec.family != "VQE")
            continue;
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        EXPECT_LE(compileWith(machine, circuit, RoutingStrategy::Reuse)
                      .schedule.numQubitMoves(),
                  compileWith(machine, circuit, RoutingStrategy::Continuous)
                      .schedule.numQubitMoves())
            << spec.name;
    }
}

TEST(ReusePipelineTest, ReuseProfilesReportTheNewCounters)
{
    const auto spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const auto result =
        compileWith(machine, spec.build(), RoutingStrategy::Reuse);

    const PassProfile *routing = nullptr;
    for (const PassProfile &profile : result.pass_profiles) {
        if (profile.pass == PassId::Routing)
            routing = &profile;
    }
    ASSERT_NE(routing, nullptr);
    std::uint64_t held = 0, saved = 0, hits = 0, relocated = 0;
    bool saw_misses = false;
    for (const PassCounter &counter : routing->counters) {
        if (counter.name == "qubits_held")
            held = counter.value;
        if (counter.name == "moves_saved")
            saved = counter.value;
        if (counter.name == "lookahead_hits")
            hits = counter.value;
        if (counter.name == "reuse_relocations")
            relocated = counter.value;
        if (counter.name == "lookahead_misses")
            saw_misses = true;
    }
    EXPECT_GT(held, 0u);
    // Relocated holds trade their park for a compute-zone move, so
    // only the stay-put holds count as moves saved outright.
    EXPECT_EQ(saved, held - relocated);
    EXPECT_GT(saved, 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_TRUE(saw_misses);
}

TEST(ReusePipelineTest, StorageFreeConfigurationFallsBackToContinuous)
{
    const auto spec = findBenchmark("QSIM-rand-0.3-10");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    const auto reuse = compileWith(machine, circuit, RoutingStrategy::Reuse,
                                   /*use_storage=*/false);
    const auto continuous =
        compileWith(machine, circuit, RoutingStrategy::Continuous,
                    /*use_storage=*/false);
    EXPECT_EQ(scheduleToJson(reuse.schedule),
              scheduleToJson(continuous.schedule));
}

TEST(ReusePipelineTest, ReuseSchedulesAreDeterministic)
{
    const auto spec = findBenchmark("VQE-30");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    const auto a = compileWith(machine, circuit, RoutingStrategy::Reuse);
    const auto b = compileWith(machine, circuit, RoutingStrategy::Reuse);
    EXPECT_EQ(scheduleToJson(a.schedule), scheduleToJson(b.schedule));
}

TEST(ReuseStrategyNameTest, NamesRoundTripAndCatalogCoversRouting)
{
    for (const auto strategy :
         {RoutingStrategy::Continuous, RoutingStrategy::Reuse,
          RoutingStrategy::Fast, RoutingStrategy::Windowed}) {
        RoutingStrategy parsed{};
        EXPECT_TRUE(
            parseRoutingStrategy(routingStrategyName(strategy), parsed));
        EXPECT_EQ(parsed, strategy);
    }
    RoutingStrategy untouched = RoutingStrategy::Reuse;
    EXPECT_FALSE(parseRoutingStrategy("bogus", untouched));
    EXPECT_EQ(untouched, RoutingStrategy::Reuse);

    bool saw_routing = false;
    for (const StrategyCatalogEntry &entry : strategyCatalog()) {
        EXPECT_FALSE(entry.values.empty());
        if (entry.dimension == "routing") {
            saw_routing = true;
            EXPECT_EQ(entry.flag, "--routing");
            ASSERT_EQ(entry.values.size(), 4u);
            EXPECT_EQ(entry.values[0], "continuous"); // default first
            EXPECT_EQ(entry.values[1], "reuse");
            EXPECT_EQ(entry.values[2], "fast");
            EXPECT_EQ(entry.values[3], "windowed");
        }
    }
    EXPECT_TRUE(saw_routing);
}

} // namespace
} // namespace powermove
