/** @file End-to-end tests for the PowerMove compiler. */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "compiler/powermove.hpp"
#include "isa/validator.hpp"
#include "workloads/suite.hpp"

namespace powermove {
namespace {

TEST(CompilerTest, ZeroAodsRejected)
{
    const Machine machine(MachineConfig::forQubits(4));
    EXPECT_THROW(PowerMoveCompiler(machine, {true, 0}), ConfigError);
}

TEST(CompilerTest, ZeroWindowAndZeroLookaheadRejectedAtConstruction)
{
    const Machine machine(MachineConfig::forQubits(4));
    CompilerOptions windowed;
    windowed.routing = RoutingStrategy::Windowed;
    windowed.routing_window = 0;
    EXPECT_THROW(PowerMoveCompiler(machine, windowed), ConfigError);

    CompilerOptions reuse;
    reuse.routing = RoutingStrategy::Reuse;
    reuse.reuse_lookahead = 0;
    EXPECT_THROW(PowerMoveCompiler(machine, reuse), ConfigError);

    // Without a storage zone reuse falls back to the continuous router,
    // which has no lookahead to validate.
    reuse.use_storage = false;
    EXPECT_NO_THROW(PowerMoveCompiler(machine, reuse));
}

TEST(CompilerTest, EmptyCircuitCompilesToEmptySchedule)
{
    const Machine machine(MachineConfig::forQubits(4));
    const PowerMoveCompiler compiler(machine);
    const auto result = compiler.compile(Circuit(4));
    EXPECT_TRUE(result.schedule.instructions().empty());
    EXPECT_DOUBLE_EQ(result.metrics.fidelity(), 1.0);
    EXPECT_EQ(result.num_stages, 0u);
}

TEST(CompilerTest, SingleGateProgram)
{
    const Machine machine(MachineConfig::forQubits(4));
    const PowerMoveCompiler compiler(machine);
    Circuit circuit(4);
    circuit.append(CzGate{0, 1});
    const auto result = compiler.compile(circuit);
    EXPECT_EQ(result.num_stages, 1u);
    EXPECT_EQ(result.schedule.numCzGates(), 1u);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
}

TEST(CompilerTest, InitialLayoutFollowsStorageOption)
{
    const Machine machine(MachineConfig::forQubits(9));
    Circuit circuit(9);
    circuit.append(CzGate{0, 1});

    const auto with = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    for (const SiteId site : with.schedule.initialSites())
        EXPECT_EQ(machine.zoneOf(site), ZoneKind::Storage);

    const auto without =
        PowerMoveCompiler(machine, {false, 1}).compile(circuit);
    for (const SiteId site : without.schedule.initialSites())
        EXPECT_EQ(machine.zoneOf(site), ZoneKind::Compute);
}

TEST(CompilerTest, StorageEliminatesExcitationError)
{
    const auto spec = findBenchmark("QSIM-rand-0.3-10");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    const auto with = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    EXPECT_EQ(with.metrics.excitation_exposures, 0u);
    EXPECT_DOUBLE_EQ(with.metrics.excitation_factor, 1.0);

    const auto without =
        PowerMoveCompiler(machine, {false, 1}).compile(circuit);
    EXPECT_GT(without.metrics.excitation_exposures, 0u);
    EXPECT_LT(without.metrics.excitation_factor, 1.0);
}

TEST(CompilerTest, DeterministicForFixedSeed)
{
    const auto spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();
    const PowerMoveCompiler compiler(machine, {true, 1, 0.5, 77});

    const auto a = compiler.compile(circuit);
    const auto b = compiler.compile(circuit);
    EXPECT_DOUBLE_EQ(a.metrics.fidelity(), b.metrics.fidelity());
    EXPECT_DOUBLE_EQ(a.metrics.exec_time.micros(),
                     b.metrics.exec_time.micros());
    EXPECT_EQ(a.num_coll_moves, b.num_coll_moves);
}

TEST(CompilerTest, CompileTimeIsMeasured)
{
    const auto spec = findBenchmark("QAOA-regular3-30");
    const Machine machine(spec.machine_config);
    const auto result = PowerMoveCompiler(machine).compile(spec.build());
    EXPECT_GT(result.compile_time.micros(), 0.0);
}

TEST(CompilerTest, MachineTooSmallIsRejected)
{
    const Machine machine(MachineConfig::forQubits(4));
    Circuit circuit(9); // 9 qubits on a 2x2 compute zone
    circuit.append(CzGate{0, 1});
    EXPECT_THROW(PowerMoveCompiler(machine, {false, 1}).compile(circuit),
                 ConfigError);
}

/** Full-suite property: every benchmark compiles to a valid schedule. */
class CompilerSuiteProperty
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(CompilerSuiteProperty, SchedulesAreValidAndComplete)
{
    const auto &[name, use_storage] = GetParam();
    const auto spec = findBenchmark(name);
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    const PowerMoveCompiler compiler(machine, {use_storage, 1});
    const auto result = compiler.compile(circuit);

    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_GT(result.metrics.fidelity(), 0.0);
    EXPECT_LE(result.metrics.fidelity(), 1.0);
    EXPECT_GT(result.metrics.exec_time.micros(), 0.0);
    EXPECT_EQ(result.schedule.numCzGates(), circuit.numCzGates());
    if (use_storage) {
        EXPECT_EQ(result.metrics.excitation_exposures, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, CompilerSuiteProperty,
    ::testing::Combine(::testing::Values("QAOA-regular3-30",
                                         "QAOA-regular4-30", "QAOA-random-20",
                                         "QFT-18", "BV-14", "BV-50", "VQE-30",
                                         "QSIM-rand-0.3-10",
                                         "QSIM-rand-0.3-20"),
                       ::testing::Bool()));

/** Multi-AOD property: more AODs never increase execution time. */
class CompilerAodProperty : public ::testing::TestWithParam<std::string>
{};

TEST_P(CompilerAodProperty, ExecutionTimeMonotoneInAods)
{
    const auto spec = findBenchmark(GetParam());
    const Machine machine(spec.machine_config);
    const Circuit circuit = spec.build();

    double previous = 1e300;
    for (const std::size_t aods : {1u, 2u, 3u, 4u}) {
        const PowerMoveCompiler compiler(machine, {true, aods});
        const auto result = compiler.compile(circuit);
        EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
        EXPECT_LE(result.metrics.exec_time.micros(), previous + 1e-6);
        previous = result.metrics.exec_time.micros();
    }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, CompilerAodProperty,
                         ::testing::Values("QAOA-regular3-30", "VQE-30",
                                           "QSIM-rand-0.3-10"));

} // namespace
} // namespace powermove
