/** @file Scale regression guard.
 *
 * Compiles well beyond the paper's 100-qubit ceiling and checks both
 * correctness (full validation) and that compile time stays in the
 * near-linear regime the paper claims — catching accidental quadratic
 * regressions in the router's search structures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ctime>

#include "compiler/powermove.hpp"
#include "enola/enola.hpp"
#include "isa/validator.hpp"
#include "workloads/qaoa.hpp"

namespace powermove {
namespace {

TEST(ScaleTest, CompilesAndValidates256Qubits)
{
    const std::size_t n = 256;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 77);

    const auto result = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_EQ(result.metrics.excitation_exposures, 0u);
    EXPECT_GT(result.metrics.fidelity(), 0.0);
}

TEST(ScaleTest, CompilesAndValidates400QubitsNonStorage)
{
    const std::size_t n = 400;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 78);
    const auto result =
        PowerMoveCompiler(machine, {false, 2}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
}

TEST(ScaleTest, EnolaValidatesAtScale)
{
    const std::size_t n = 256;
    const Machine machine(MachineConfig::forQubits(n));
    const Circuit circuit = makeQaoaRegular(n, 3, 1, 79);
    const auto result = EnolaCompiler(machine).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
}

/** CPU time this thread spends in fn(), in microseconds. */
template <typename Fn>
double
threadCpuMicros(Fn &&fn)
{
    timespec start{};
    timespec stop{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
    fn();
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &stop);
    return static_cast<double>(stop.tv_sec - start.tv_sec) * 1e6 +
           static_cast<double>(stop.tv_nsec - start.tv_nsec) / 1e3;
}

TEST(ScaleTest, CompileTimeGrowsSubQuadratically)
{
    // Min-of-9 compile times at n and 4n: a clean quadratic would give
    // a 16x ratio; require comfortably less (the grouping pass is the
    // only super-linear component and its constant is tiny). The two
    // sizes alternate, so one load spike cannot land on one side only,
    // and each compile is timed in this thread's CPU time, which does
    // not count the time other processes hold the core.
    const Machine small_machine(MachineConfig::forQubits(100));
    const Machine large_machine(MachineConfig::forQubits(400));
    const Circuit small_circuit = makeQaoaRegular(100, 3, 1, 80);
    const Circuit large_circuit = makeQaoaRegular(400, 3, 1, 80);
    const PowerMoveCompiler small_compiler(small_machine, {true, 1});
    const PowerMoveCompiler large_compiler(large_machine, {true, 1});
    double small = 1e300;
    double large = 1e300;
    for (int i = 0; i < 9; ++i) {
        small = std::min(small, threadCpuMicros([&] {
                             (void)small_compiler.compile(small_circuit);
                         }));
        large = std::min(large, threadCpuMicros([&] {
                             (void)large_compiler.compile(large_circuit);
                         }));
    }
    EXPECT_LT(large, small * 13.0)
        << "compile time scaled by " << large / small << " over a 4x input";
}

TEST(ScaleTest, DeepCircuitManyStages)
{
    // 60 sequential blocks of one gate each: stresses per-transition
    // bookkeeping reuse.
    const std::size_t n = 64;
    const Machine machine(MachineConfig::forQubits(n));
    Circuit circuit(n, "deep");
    for (QubitId q = 0; q + 1 < n; ++q) {
        circuit.append(CzGate{q, static_cast<QubitId>(q + 1)});
        circuit.append(OneQGate{OneQKind::H, q, 0.0});
    }
    const auto result = PowerMoveCompiler(machine, {true, 1}).compile(circuit);
    EXPECT_NO_THROW(validateAgainstCircuit(result.schedule, circuit));
    EXPECT_EQ(result.num_stages, static_cast<std::size_t>(n - 1));
}

} // namespace
} // namespace powermove
