/** @file Tests for the compile driver's passes, profiles and strategies. */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "arch/layout.hpp"
#include "collsched/intra_stage.hpp"
#include "collsched/multi_aod.hpp"
#include "compiler/powermove.hpp"
#include "isa/json.hpp"
#include "isa/validator.hpp"
#include "oracles/reference_partition.hpp"
#include "oracles/reference_router.hpp"
#include "route/grouping.hpp"
#include "schedule/stage_order.hpp"
#include "schedule/stage_partition.hpp"
#include "service/fingerprint.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

/**
 * The pre-pipeline monolithic compiler, reproduced verbatim from the
 * seed's PowerMoveCompiler::compile() out of the same building blocks,
 * with the graph-coloring partition and the per-transition-rebuild
 * router it used (the oracles in tests/oracles/). The pipeline
 * regression below holds the compiler to this reference bit-for-bit
 * under default options.
 */
MachineSchedule
legacyCompile(const Machine &machine, const Circuit &circuit,
              const CompilerOptions &options)
{
    Layout layout(machine, circuit.numQubits());
    placeRowMajor(layout,
                  options.use_storage ? ZoneKind::Storage : ZoneKind::Compute);

    std::vector<SiteId> initial_sites(circuit.numQubits());
    for (QubitId q = 0; q < circuit.numQubits(); ++q)
        initial_sites[q] = layout.siteOf(q);

    MachineSchedule schedule(machine, std::move(initial_sites));
    ReferenceContinuousRouter router(machine,
                                     {options.use_storage, options.seed});
    const StageOrderOptions order_options{options.stage_order_alpha};

    std::size_t block_index = 0;
    for (const auto &moment : circuit.moments()) {
        if (const auto *one_q = std::get_if<OneQLayer>(&moment)) {
            schedule.addOneQLayer(one_q->gates.size(),
                                  one_q->depth(circuit.numQubits()));
            continue;
        }
        const auto &block = std::get<CzBlock>(moment);
        auto stages = partitionIntoStages(block, circuit.numQubits());
        stages = orderStages(std::move(stages), order_options);
        for (const auto &stage : stages) {
            const TransitionPlan plan =
                router.planStageTransition(layout, stage);
            auto groups = groupMoves(machine, plan.moves);
            groups = orderCollMoves(machine, std::move(groups));
            for (auto &batch : batchForAods(std::move(groups), options.num_aods))
                schedule.addMoveBatch(std::move(batch));
            schedule.addRydberg(stage.gates, block_index);
        }
        ++block_index;
    }
    return schedule;
}

/**
 * Acceptance: with default CompilerOptions the pass pipeline emits
 * bit-identical MachineSchedules to the pre-refactor compiler across
 * the whole Table 2 suite, in both zone configurations.
 */
TEST(PipelineRegressionTest, DefaultOptionsMatchLegacyCompilerBitForBit)
{
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const bool use_storage : {true, false}) {
            CompilerOptions options;
            options.use_storage = use_storage;
            const auto result =
                PowerMoveCompiler(machine, options).compile(circuit);
            const MachineSchedule legacy =
                legacyCompile(machine, circuit, options);
            // Serialized instruction streams compare every field of
            // every instruction plus the initial sites.
            EXPECT_EQ(scheduleToJson(result.schedule), scheduleToJson(legacy))
                << spec.name << (use_storage ? " with" : " without")
                << " storage diverged from the pre-pipeline compiler";
        }
    }
}

TEST(PipelineProfileTest, ProfilesCoverTheSixPassesWithSaneTimes)
{
    const auto spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const auto result = PowerMoveCompiler(machine).compile(spec.build());

    // All six passes run for a storage-mode QAOA circuit.
    ASSERT_EQ(result.pass_profiles.size(), kNumPasses);
    double sum_micros = 0.0;
    for (std::size_t i = 0; i < result.pass_profiles.size(); ++i) {
        const PassProfile &profile = result.pass_profiles[i];
        EXPECT_EQ(profile.pass, static_cast<PassId>(i)); // pipeline order
        EXPECT_GE(profile.wall_time.micros(), 0.0);
        EXPECT_GT(profile.invocations, 0u);
        sum_micros += profile.wall_time.micros();
    }
    // Pass times nest inside the end-to-end compile time.
    EXPECT_LE(sum_micros, result.compile_time.micros());

    // Inner passes ran once per stage, the placement exactly once.
    EXPECT_EQ(result.pass_profiles[0].invocations, 1u);
    EXPECT_EQ(result.pass_profiles[3].invocations, result.num_stages);
}

TEST(PipelineProfileTest, CountersAreDeterministicAcrossRuns)
{
    const auto spec = findBenchmark("QSIM-rand-0.3-10");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    const PowerMoveCompiler compiler(machine);

    const auto a = compiler.compile(circuit);
    const auto b = compiler.compile(circuit);
    ASSERT_EQ(a.pass_profiles.size(), b.pass_profiles.size());
    for (std::size_t i = 0; i < a.pass_profiles.size(); ++i) {
        EXPECT_EQ(a.pass_profiles[i].pass, b.pass_profiles[i].pass);
        EXPECT_EQ(a.pass_profiles[i].invocations,
                  b.pass_profiles[i].invocations);
        ASSERT_EQ(a.pass_profiles[i].counters.size(),
                  b.pass_profiles[i].counters.size());
        for (std::size_t c = 0; c < a.pass_profiles[i].counters.size(); ++c) {
            EXPECT_EQ(a.pass_profiles[i].counters[c].name,
                      b.pass_profiles[i].counters[c].name);
            EXPECT_EQ(a.pass_profiles[i].counters[c].value,
                      b.pass_profiles[i].counters[c].value);
        }
    }
}

TEST(PipelineProfileTest, RoutingCountersMatchScheduleFacts)
{
    const auto spec = findBenchmark("BV-14");
    const Machine machine(spec.machine_config);
    const auto result = PowerMoveCompiler(machine).compile(spec.build());

    const PassProfile *routing = nullptr;
    for (const PassProfile &profile : result.pass_profiles) {
        if (profile.pass == PassId::Routing)
            routing = &profile;
    }
    ASSERT_NE(routing, nullptr);
    std::uint64_t moves_planned = 0;
    for (const PassCounter &counter : routing->counters) {
        if (counter.name == "moves_planned")
            moves_planned = counter.value;
    }
    EXPECT_EQ(moves_planned, result.schedule.numQubitMoves());
}

TEST(PipelineProfileTest, DisablingProfilesKeepsTheScheduleBitIdentical)
{
    const auto spec = findBenchmark("QFT-18");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    CompilerOptions unprofiled;
    unprofiled.profile_passes = false;
    const auto off = PowerMoveCompiler(machine, unprofiled).compile(circuit);
    EXPECT_TRUE(off.pass_profiles.empty());

    const auto on = PowerMoveCompiler(machine).compile(circuit);
    EXPECT_FALSE(on.pass_profiles.empty());
    EXPECT_EQ(scheduleToJson(off.schedule), scheduleToJson(on.schedule));
}

/** Every placement strategy yields a valid, complete schedule. */
class PlacementStrategyProperty
    : public ::testing::TestWithParam<PlacementStrategy>
{};

TEST_P(PlacementStrategyProperty, CompilesValidSchedules)
{
    const auto spec = findBenchmark("QAOA-random-20");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    CompilerOptions options;
    options.placement = GetParam();
    const auto result = PowerMoveCompiler(machine, options).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_EQ(result.metrics.excitation_exposures, 0u); // storage mode
}

INSTANTIATE_TEST_SUITE_P(Strategies, PlacementStrategyProperty,
                         ::testing::Values(PlacementStrategy::RowMajor,
                                           PlacementStrategy::RoutingAware));

TEST(PlacementStrategyTest, StrategiesProduceDistinctInitialLayouts)
{
    // BV couples every secret-bit qubit to one ancilla, so routing-aware
    // placement pulls the ancilla away from its row-major corner.
    const auto spec = findBenchmark("BV-14");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    auto initial_sites = [&](PlacementStrategy strategy) {
        CompilerOptions options;
        options.placement = strategy;
        return PowerMoveCompiler(machine, options)
            .compile(circuit)
            .schedule.initialSites();
    };
    EXPECT_NE(initial_sites(PlacementStrategy::RowMajor),
              initial_sites(PlacementStrategy::RoutingAware));
}

TEST(StrategySelectionTest, AblationStrategiesMatchTheInlineBaselines)
{
    const auto spec = findBenchmark("QSIM-rand-0.3-10");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    // AsPartitioned must equal "skip orderStages" in the legacy loop;
    // cheapest check: it differs from ZoneAware for a circuit where the
    // scheduler actually reorders, yet still validates.
    CompilerOptions raw_order;
    raw_order.stage_order = StageOrderStrategy::AsPartitioned;
    const auto raw = PowerMoveCompiler(machine, raw_order).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(raw.schedule, circuit));

    CompilerOptions raw_groups;
    raw_groups.coll_move_order = CollMoveOrderStrategy::AsGrouped;
    const auto grouped =
        PowerMoveCompiler(machine, raw_groups).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(grouped.schedule, circuit));
}

/**
 * Pins every strategy's schedules and profiles, not just their
 * properties: all Table 2 circuits, with and without the storage zone,
 * under {row-major, routing-aware} placement crossed with every routing
 * setting, plus the three ablation orderings with defaults elsewhere
 * (690 compiles). Digest (a) covers what a compile emits — the ISA
 * JSON, the Eq. 1 breakdown, the stage and Coll-Move counts; digest (b)
 * covers the pass profiles without their wall times — pass, invocation
 * count, counter names in first-touch order and values. A refactor of
 * the compile driver that claims "same schedules" must move neither.
 */
TEST(StrategyMatrixPinTest, Table2SchedulesAndProfilesMatchRecordedDigests)
{
    struct Routing
    {
        RoutingStrategy strategy;
        ResidencyPolicy residency;
    };
    const Routing routings[] = {
        {RoutingStrategy::Continuous, ResidencyPolicy::Lookahead},
        {RoutingStrategy::Fast, ResidencyPolicy::Lookahead},
        {RoutingStrategy::Windowed, ResidencyPolicy::Lookahead},
        {RoutingStrategy::Reuse, ResidencyPolicy::Lookahead},
        {RoutingStrategy::Reuse, ResidencyPolicy::Lti},
        {RoutingStrategy::Reuse, ResidencyPolicy::Fidelity},
    };
    std::vector<CompilerOptions> matrix;
    for (const bool use_storage : {true, false}) {
        CompilerOptions base;
        base.use_storage = use_storage;
        for (const auto placement :
             {PlacementStrategy::RowMajor, PlacementStrategy::RoutingAware}) {
            for (const Routing &routing : routings) {
                CompilerOptions options = base;
                options.placement = placement;
                options.routing = routing.strategy;
                options.residency = routing.residency;
                matrix.push_back(options);
            }
        }
        CompilerOptions as_partitioned = base;
        as_partitioned.stage_order = StageOrderStrategy::AsPartitioned;
        CompilerOptions as_grouped = base;
        as_grouped.coll_move_order = CollMoveOrderStrategy::AsGrouped;
        CompilerOptions both = as_partitioned;
        both.coll_move_order = CollMoveOrderStrategy::AsGrouped;
        matrix.insert(matrix.end(), {as_partitioned, as_grouped, both});
    }

    service::Fnv1a emitted;
    service::Fnv1a profiled;
    std::size_t compiles = 0;
    for (const BenchmarkSpec &spec : table2Suite()) {
        const Machine machine(spec.machine_config);
        const Circuit circuit = spec.build();
        for (const CompilerOptions &options : matrix) {
            const auto result =
                PowerMoveCompiler(machine, options).compile(circuit);
            ++compiles;

            const std::string json = scheduleToJson(result.schedule);
            emitted.addBytes(json.data(), json.size());
            const FidelityBreakdown &m = result.metrics;
            for (const double value :
                 {m.exec_time.micros(), m.total_idle.micros(),
                  m.one_q_factor, m.two_q_factor, m.excitation_factor,
                  m.transfer_factor, m.decoherence_factor})
                emitted.add(value);
            emitted.add(static_cast<std::uint64_t>(result.num_stages));
            emitted.add(static_cast<std::uint64_t>(result.num_coll_moves));

            profiled.add(
                static_cast<std::uint64_t>(result.pass_profiles.size()));
            for (const PassProfile &profile : result.pass_profiles) {
                profiled.add(static_cast<std::uint64_t>(profile.pass));
                profiled.add(static_cast<std::uint64_t>(profile.invocations));
                profiled.add(
                    static_cast<std::uint64_t>(profile.counters.size()));
                for (const PassCounter &counter : profile.counters) {
                    profiled.add(
                        static_cast<std::uint64_t>(counter.name.size()));
                    profiled.addBytes(counter.name.data(),
                                      counter.name.size());
                    profiled.add(counter.value);
                }
            }
        }
    }
    EXPECT_EQ(compiles, 690u);

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, emitted.digest());
    EXPECT_STREQ(hex, "899c89d0c8c593f8") << "digest (a): schedules";
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, profiled.digest());
    EXPECT_STREQ(hex, "a99bc78d396dfdf9") << "digest (b): profiles";
}

TEST(StrategyNameTest, NamesRoundTripThroughParsing)
{
    for (const auto strategy :
         {PlacementStrategy::RowMajor, PlacementStrategy::RoutingAware}) {
        PlacementStrategy parsed{};
        EXPECT_TRUE(
            parsePlacementStrategy(placementStrategyName(strategy), parsed));
        EXPECT_EQ(parsed, strategy);
    }
    for (const auto strategy :
         {StageOrderStrategy::AsPartitioned, StageOrderStrategy::ZoneAware}) {
        StageOrderStrategy parsed{};
        EXPECT_TRUE(
            parseStageOrderStrategy(stageOrderStrategyName(strategy), parsed));
        EXPECT_EQ(parsed, strategy);
    }
    for (const auto strategy : {CollMoveOrderStrategy::AsGrouped,
                                CollMoveOrderStrategy::StorageDwell}) {
        CollMoveOrderStrategy parsed{};
        EXPECT_TRUE(parseCollMoveOrderStrategy(
            collMoveOrderStrategyName(strategy), parsed));
        EXPECT_EQ(parsed, strategy);
    }
    // Unknown and retired names are both rejected, leaving the output
    // untouched.
    for (const char *name :
         {"bogus", "column-interleaved", "usage-frequency"}) {
        PlacementStrategy untouched = PlacementStrategy::RoutingAware;
        EXPECT_FALSE(parsePlacementStrategy(name, untouched)) << name;
        EXPECT_EQ(untouched, PlacementStrategy::RoutingAware);
    }
}

} // namespace
} // namespace powermove
