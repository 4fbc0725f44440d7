/** @file Tests for Algorithm 1 (edge-coloring stage partition).
 *
 * Covers the paper's graph coloring (the oracle in tests/oracles/),
 * the library's graph-free linear scan (locked bit-identical to the
 * oracle, differentially over the Table 2 suite plus depth-2 VQE), plus
 * randomized-block partition properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "oracles/reference_partition.hpp"
#include "schedule/stage_partition.hpp"
#include "workloads/qaoa.hpp"
#include "workloads/qft.hpp"
#include "workloads/suite.hpp"
#include "workloads/vqe.hpp"

namespace powermove {
namespace {

CzBlock
blockOf(std::initializer_list<CzGate> gates)
{
    CzBlock block;
    for (const auto &gate : gates)
        block.gates.push_back(gate.canonical());
    return block;
}

std::vector<CzGate>
sortedGates(const std::vector<Stage> &stages)
{
    std::vector<CzGate> all;
    for (const auto &stage : stages)
        for (const auto &gate : stage.gates)
            all.push_back(gate.canonical());
    std::sort(all.begin(), all.end());
    return all;
}

TEST(InteractionGraphTest, EdgesJoinGatesSharingQubits)
{
    const auto block = blockOf({{0, 1}, {1, 2}, {3, 4}});
    const Graph g = buildInteractionGraph(block, 5);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_TRUE(g.hasEdge(0, 1));  // share qubit 1
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_FALSE(g.hasEdge(1, 2));
}

TEST(InteractionGraphTest, RepeatedPairIsSingleConflict)
{
    const auto block = blockOf({{0, 1}, {0, 1}});
    const Graph g = buildInteractionGraph(block, 2);
    EXPECT_EQ(g.numEdges(), 1u);
}

/**
 * Regression: two gates sharing *both* qubits sit in both qubits' sharer
 * lists, so the naive clique expansion emits their edge twice; the
 * builder must deduplicate the pair itself rather than lean on
 * Graph::addEdge's linear duplicate scan (which keeps the *output*
 * identical either way — the graph checks here lock that output, while
 * the builder's duplicate-insertion PM_ASSERT is what makes a reverted
 * guard fail this test loudly instead of just running slower).
 */
TEST(InteractionGraphTest, BothQubitsSharedPairsAreDeduplicated)
{
    // Three copies of {0,1} (pairwise conflicts via both qubits) plus
    // one {1,2} that conflicts each copy through qubit 1 only.
    const auto block = blockOf({{0, 1}, {0, 1}, {0, 1}, {1, 2}});
    const Graph g = buildInteractionGraph(block, 3);
    EXPECT_EQ(g.numEdges(), 6u); // triangle (3) + one edge to each copy

    auto edges = g.edges();
    std::sort(edges.begin(), edges.end());
    EXPECT_TRUE(std::adjacent_find(edges.begin(), edges.end()) ==
                edges.end())
        << "duplicate edge in edge list";

    for (Graph::Vertex v = 0; v < 4; ++v) {
        auto neighbors = g.adjacents(v);
        std::sort(neighbors.begin(), neighbors.end());
        EXPECT_TRUE(std::adjacent_find(neighbors.begin(), neighbors.end()) ==
                    neighbors.end())
            << "duplicate neighbor of gate " << v;
        EXPECT_EQ(neighbors.size(), 3u); // every other gate, exactly once
    }
}

TEST(StagePartitionTest, EmptyBlockYieldsNoStages)
{
    EXPECT_TRUE(partitionIntoStages(CzBlock{}, 4).empty());
}

TEST(StagePartitionTest, DisjointGatesShareOneStage)
{
    const auto stages =
        partitionIntoStages(blockOf({{0, 1}, {2, 3}, {4, 5}}), 6);
    ASSERT_EQ(stages.size(), 1u);
    EXPECT_EQ(stages[0].gates.size(), 3u);
}

TEST(StagePartitionTest, StarNeedsOneStagePerGate)
{
    // All gates share qubit 0.
    const auto stages =
        partitionIntoStages(blockOf({{0, 1}, {0, 2}, {0, 3}}), 4);
    EXPECT_EQ(stages.size(), 3u);
    for (const auto &stage : stages)
        EXPECT_EQ(stage.gates.size(), 1u);
}

TEST(StagePartitionTest, PathAlternates)
{
    const auto stages =
        partitionIntoStages(blockOf({{0, 1}, {1, 2}, {2, 3}, {3, 4}}), 5);
    EXPECT_EQ(stages.size(), 2u);
}

TEST(StagePartitionTest, PreservesGateMultiset)
{
    const auto block = blockOf({{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}});
    const auto stages = partitionIntoStages(block, 4);
    auto expected = block.gates;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sortedGates(stages), expected);
}

TEST(StagePartitionTest, StagesAreDisjoint)
{
    const auto block = blockOf({{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}});
    for (const auto &stage : partitionIntoStages(block, 6))
        EXPECT_TRUE(stage.qubitsDisjoint());
}

TEST(StageTest, InteractingQubitsSortedUnique)
{
    Stage stage;
    stage.gates = {CzGate{5, 2}, CzGate{1, 7}};
    EXPECT_EQ(stage.interactingQubits(), (std::vector<QubitId>{1, 2, 5, 7}));
}

TEST(StageTest, DisjointnessDetection)
{
    Stage good;
    good.gates = {CzGate{0, 1}, CzGate{2, 3}};
    EXPECT_TRUE(good.qubitsDisjoint());
    Stage bad;
    bad.gates = {CzGate{0, 1}, CzGate{1, 2}};
    EXPECT_FALSE(bad.qubitsDisjoint());
}

/** Property sweep over QAOA instances: partition validity and quality. */
class PartitionProperty : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(PartitionProperty, QaoaBlocksPartitionProperly)
{
    const std::size_t n = GetParam();
    const Circuit circuit = makeQaoaRegular(n, 3, 1, n);
    for (const auto *block : circuit.blocks()) {
        const auto stages = partitionIntoStages(*block, n);
        // Validity.
        std::size_t total = 0;
        for (const auto &stage : stages) {
            EXPECT_TRUE(stage.qubitsDisjoint());
            EXPECT_FALSE(stage.gates.empty());
            total += stage.gates.size();
        }
        EXPECT_EQ(total, block->gates.size());
        // Quality: greedy edge coloring of a cubic graph needs at most
        // 2*3 - 1 colors (line-graph max degree bound), usually 3-4.
        EXPECT_LE(stages.size(), 5u);
        EXPECT_GE(stages.size(), 3u); // chromatic index >= max degree
    }
}

INSTANTIATE_TEST_SUITE_P(QaoaSizes, PartitionProperty,
                         ::testing::Values(10, 20, 30, 50, 80, 100));

TEST(StagePartitionTest, QftBlocksAreSequentialChains)
{
    const Circuit qft = makeQft(8);
    const auto blocks = qft.blocks();
    // Block k has 7-k gates all sharing the target qubit: one per stage.
    ASSERT_EQ(blocks.size(), 7u);
    for (std::size_t k = 0; k < blocks.size(); ++k) {
        const auto stages = partitionIntoStages(*blocks[k], 8);
        EXPECT_EQ(stages.size(), blocks[k]->gates.size());
    }
}

// ------------------------------------------- strategy differential tests

bool
identicalStages(const std::vector<Stage> &a, const std::vector<Stage> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s].gates != b[s].gates)
            return false;
    }
    return true;
}

/** Every Table 2 circuit plus the depth-2 VQE multi-block workload. */
std::vector<std::pair<std::string, Circuit>>
differentialCircuits()
{
    std::vector<std::pair<std::string, Circuit>> circuits;
    for (const BenchmarkSpec &spec : table2Suite())
        circuits.emplace_back(spec.name, spec.build());
    circuits.emplace_back(
        "VQE-depth2-30",
        makeVqe(30, 2, VqeEntanglement::Linear, 0xF00D + 30));
    return circuits;
}

/**
 * The tentpole identity: the graph-free linear scan must reproduce the
 * edge-coloring stage assignment bit-for-bit — same greedy order, same
 * colors, same gate order within every stage — on every block of every
 * Table 2 entry plus depth-2 VQE.
 */
TEST(StagePartitionDifferentialTest, LinearIsBitIdenticalToColoring)
{
    for (const auto &[name, circuit] : differentialCircuits()) {
        std::size_t index = 0;
        for (const CzBlock *block : circuit.blocks()) {
            const auto coloring =
                partitionIntoStages(*block, circuit.numQubits());
            const auto linear =
                partitionIntoStagesLinear(*block, circuit.numQubits());
            EXPECT_TRUE(identicalStages(coloring, linear))
                << name << " block " << index;
            ++index;
        }
    }
}

// -------------------------------------------- randomized-block properties

CzBlock
randomBlock(std::size_t num_qubits, std::size_t num_gates, std::uint64_t seed)
{
    Rng rng(seed);
    CzBlock block;
    while (block.gates.size() < num_gates) {
        const auto a = static_cast<QubitId>(rng.nextBelow(num_qubits));
        const auto b = static_cast<QubitId>(rng.nextBelow(num_qubits));
        // Duplicate pairs (and both orientations) deliberately allowed.
        if (a != b)
            block.gates.push_back(CzGate{a, b});
    }
    return block;
}

struct RandomBlockCase
{
    std::uint64_t seed;
    std::size_t num_qubits;
    std::size_t num_gates;
};

class RandomBlockProperty : public ::testing::TestWithParam<RandomBlockCase>
{};

/**
 * Invariants the partitioner must uphold on adversarial blocks (dense
 * overlap, duplicate pairs): each gate lands in exactly one stage,
 * stages are qubit-disjoint and non-empty, the stage count never
 * exceeds the greedy-coloring bound (max gate-conflict degree + 1,
 * where a gate's conflict degree is at most the summed gate counts of
 * its two qubits), repeated runs are bit-identical, and the result is
 * the graph-coloring oracle's, stage for stage.
 */
TEST_P(RandomBlockProperty, PartitionsValidlyAndDeterministically)
{
    const auto param = GetParam();
    const CzBlock block =
        randomBlock(param.num_qubits, param.num_gates, param.seed);
    const std::size_t degree_bound =
        buildInteractionGraph(block, param.num_qubits).maxDegree() + 1;

    auto expected = block.gates;
    std::sort(expected.begin(), expected.end());

    const auto stages = partitionIntoStagesLinear(block, param.num_qubits);
    for (const auto &stage : stages) {
        EXPECT_TRUE(stage.qubitsDisjoint());
        EXPECT_FALSE(stage.gates.empty());
    }
    // Every gate in exactly one stage: the concatenation is a
    // permutation of the block (multiset equality + size match).
    std::vector<CzGate> all;
    for (const auto &stage : stages)
        for (const auto &gate : stage.gates)
            all.push_back(gate);
    EXPECT_EQ(all.size(), block.gates.size());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, expected);

    EXPECT_LE(stages.size(), degree_bound);

    EXPECT_TRUE(identicalStages(
        stages, partitionIntoStagesLinear(block, param.num_qubits)))
        << "nondeterministic partition";
    EXPECT_TRUE(
        identicalStages(stages, partitionIntoStages(block, param.num_qubits)))
        << "linear scan differs from the graph-coloring oracle";
}

INSTANTIATE_TEST_SUITE_P(
    RandomBlocks, RandomBlockProperty,
    ::testing::Values(RandomBlockCase{1, 4, 3}, RandomBlockCase{2, 5, 12},
                      RandomBlockCase{3, 8, 40}, RandomBlockCase{4, 12, 80},
                      RandomBlockCase{5, 16, 30}, RandomBlockCase{6, 24, 150},
                      RandomBlockCase{7, 40, 400},
                      RandomBlockCase{8, 64, 600}));

} // namespace
} // namespace powermove
