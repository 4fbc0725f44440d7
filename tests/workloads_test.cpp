/** @file Tests for the Table 2 benchmark generators. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "circuit/stats.hpp"
#include "common/error.hpp"
#include "workloads/bv.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/qft.hpp"
#include "workloads/qsim.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace powermove {
namespace {

TEST(QaoaTest, RegularGraphGateCount)
{
    const Circuit circuit = makeQaoaRegular(30, 3, 1, 1);
    EXPECT_EQ(circuit.numQubits(), 30u);
    EXPECT_EQ(circuit.numCzGates(), 45u); // n*d/2 edges
    EXPECT_EQ(circuit.numBlocks(), 1u);
    // Initial H layer + mixer layer.
    EXPECT_EQ(circuit.numOneQGates(), 60u);
    EXPECT_EQ(circuit.name(), "QAOA-regular3-30");
}

TEST(QaoaTest, MultipleRoundsMultiplyBlocks)
{
    const Circuit circuit = makeQaoaRegular(20, 4, 3, 2);
    EXPECT_EQ(circuit.numBlocks(), 3u);
    EXPECT_EQ(circuit.numCzGates(), 3u * 40u);
}

TEST(QaoaTest, RandomFlavorUsesGnp)
{
    const Circuit circuit = makeQaoaRandom(20, 0.5, 1, 3);
    const double expected = 0.5 * (20.0 * 19.0 / 2.0);
    EXPECT_NEAR(static_cast<double>(circuit.numCzGates()), expected,
                expected * 0.35);
    EXPECT_EQ(circuit.name(), "QAOA-random-20");
}

TEST(QaoaTest, DeterministicPerSeed)
{
    const Circuit a = makeQaoaRegular(30, 3, 1, 42);
    const Circuit b = makeQaoaRegular(30, 3, 1, 42);
    EXPECT_EQ(a.blocks()[0]->gates, b.blocks()[0]->gates);
}

TEST(QftTest, GateCountsAndBlockStructure)
{
    const Circuit circuit = makeQft(18);
    EXPECT_EQ(circuit.numCzGates(), 18u * 17u / 2u);
    // One block per target qubit except the last (which has no CPs).
    EXPECT_EQ(circuit.numBlocks(), 17u);
    // Each block k holds n-1-k gates, all sharing qubit k.
    const auto blocks = circuit.blocks();
    for (std::size_t k = 0; k < blocks.size(); ++k) {
        EXPECT_EQ(blocks[k]->gates.size(), 17u - k);
        for (const auto &gate : blocks[k]->gates)
            EXPECT_TRUE(gate.touches(static_cast<QubitId>(k)));
    }
    // Every stage of every block is a single gate: fully sequential.
    const auto stats = computeStats(circuit);
    EXPECT_EQ(stats.stage_lower_bound, circuit.numCzGates());
}

TEST(QftTest, CorrectionAnglesHalveWithDistanceBeyond63Qubits)
{
    // The Rz correction for CP(j, k) is pi / 2^(j-k+1); at 70 qubits the
    // distance exceeds a 64-bit shift, and the angle must keep halving.
    const Circuit circuit = makeQft(70);
    double smallest = 1.0;
    for (const auto &moment : circuit.moments()) {
        if (const auto *layer = std::get_if<OneQLayer>(&moment)) {
            for (const auto &gate : layer->gates) {
                if (gate.kind == OneQKind::Rz)
                    smallest = std::min(smallest, gate.angle);
            }
        }
    }
    EXPECT_EQ(smallest, std::ldexp(std::numbers::pi, -70));
}

TEST(BvTest, SecretControlsGateCount)
{
    const std::vector<bool> secret = {true, false, true, true, false};
    const Circuit circuit = makeBvWithSecret(6, secret);
    EXPECT_EQ(circuit.numCzGates(), 3u);
    EXPECT_EQ(circuit.numBlocks(), 1u);
    // Every oracle gate touches the ancilla (qubit n-1).
    for (const auto &gate : circuit.blocks()[0]->gates)
        EXPECT_TRUE(gate.touches(5));
}

TEST(BvTest, RandomSecretHasEvenWeight)
{
    const Circuit circuit = makeBv(70, 9);
    EXPECT_EQ(circuit.numCzGates(), 34u); // floor(69/2)
    const Circuit small = makeBv(14, 9);
    EXPECT_EQ(small.numCzGates(), 6u); // floor(13/2)
}

TEST(BvTest, ValidatesArguments)
{
    EXPECT_THROW(makeBv(1, 0), ConfigError);
    EXPECT_THROW(makeBvWithSecret(4, {true}), ConfigError);
}

TEST(VqeTest, LinearAnsatzGateCount)
{
    const Circuit circuit = makeVqe(30, 1, VqeEntanglement::Linear, 1);
    EXPECT_EQ(circuit.numCzGates(), 29u);
    EXPECT_EQ(circuit.numBlocks(), 1u);
    // RY layers before and after the entangler.
    EXPECT_EQ(circuit.numOneQGates(), 60u);
}

TEST(VqeTest, FullAnsatzGateCount)
{
    const Circuit circuit = makeVqe(10, 1, VqeEntanglement::Full, 1);
    EXPECT_EQ(circuit.numCzGates(), 45u);
}

TEST(VqeTest, RepsMultiplyEntanglers)
{
    const Circuit circuit = makeVqe(10, 3, VqeEntanglement::Linear, 1);
    EXPECT_EQ(circuit.numCzGates(), 27u);
    EXPECT_EQ(circuit.numBlocks(), 3u);
    EXPECT_EQ(circuit.numOneQGates(), 40u); // 4 RY layers
}

TEST(QsimTest, LaddersProduceSequentialBlocks)
{
    const Circuit circuit = makeQsim(10, 0.3, 10, 4);
    EXPECT_GT(circuit.numCzGates(), 0u);
    // Ladder CZs are separated by basis-change layers: every block has
    // exactly one gate, so the stage bound equals the gate count.
    const auto stats = computeStats(circuit);
    EXPECT_EQ(stats.stage_lower_bound, circuit.numCzGates());
    EXPECT_EQ(stats.max_block_gates, 1u);
    // Each string contributes an even number of episodes (down + up).
    EXPECT_EQ(circuit.numCzGates() % 2, 0u);
}

TEST(QsimTest, SupportsAtLeastTwoQubitsPerString)
{
    // With a tiny probability, resampling must still terminate and give
    // >= 1 CZ (support >= 2) per string.
    const Circuit circuit = makeQsim(5, 0.05, 3, 8);
    EXPECT_GE(circuit.numCzGates(), 3u * 2u);
}

TEST(QsimTest, RejectsDegenerateWidth)
{
    EXPECT_THROW(makeQsim(1, 0.3, 10, 1), ConfigError);
}

TEST(SuiteTest, HasAll23PaperEntries)
{
    const auto suite = table2Suite();
    ASSERT_EQ(suite.size(), 23u);
    EXPECT_EQ(suite.front().name, "QAOA-regular3-30");
    EXPECT_EQ(suite.back().name, "QSIM-rand-0.3-40");
}

TEST(SuiteTest, MachineShapesMatchTable2)
{
    for (const auto &spec : table2Suite()) {
        const auto expected = MachineConfig::forQubits(spec.num_qubits);
        EXPECT_EQ(spec.machine_config.compute_cols, expected.compute_cols);
        EXPECT_EQ(spec.machine_config.storage_rows, expected.storage_rows);
    }
    EXPECT_EQ(findBenchmark("BV-14").machine_config.computeZoneExtent(),
              "60 x 60");
    EXPECT_EQ(findBenchmark("QAOA-regular3-100")
                  .machine_config.storageZoneExtent(),
              "150 x 300");
}

TEST(SuiteTest, BuildersProduceDeclaredWidths)
{
    for (const auto &spec : table2Suite()) {
        const Circuit circuit = spec.build();
        EXPECT_EQ(circuit.numQubits(), spec.num_qubits) << spec.name;
        EXPECT_GT(circuit.numCzGates(), 0u) << spec.name;
    }
}

TEST(SuiteTest, BuildersAreDeterministic)
{
    const auto spec = findBenchmark("QAOA-random-20");
    const Circuit a = spec.build();
    const Circuit b = spec.build();
    EXPECT_EQ(a.blocks()[0]->gates, b.blocks()[0]->gates);
}

TEST(SuiteTest, UnknownBenchmarkRejected)
{
    EXPECT_THROW(findBenchmark("QAOA-regular5-1000"), ConfigError);
    EXPECT_THROW(makeFamilyInstance("NoSuchFamily", 10).build(), ConfigError);
}

TEST(SuiteTest, FamilyInstancesScale)
{
    const auto spec = makeFamilyInstance("QFT", 10);
    EXPECT_EQ(spec.name, "QFT-10");
    EXPECT_EQ(spec.build().numCzGates(), 45u);
}

} // namespace
} // namespace powermove
