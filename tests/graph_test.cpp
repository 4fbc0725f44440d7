/** @file Unit and property tests for the graph library and the greedy
 * coloring of the partition oracle (tests/oracles/). */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/graph.hpp"
#include "common/rng.hpp"
#include "oracles/reference_partition.hpp"

namespace powermove {
namespace {

TEST(GraphTest, EmptyGraph)
{
    Graph g;
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_EQ(g.numEdges(), 0u);
    EXPECT_EQ(g.maxDegree(), 0u);
}

TEST(GraphTest, AddEdgeBasics)
{
    Graph g(4);
    EXPECT_TRUE(g.addEdge(0, 1));
    EXPECT_TRUE(g.addEdge(1, 2));
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(GraphTest, RejectsSelfLoopsAndDuplicates)
{
    Graph g(3);
    EXPECT_FALSE(g.addEdge(1, 1));
    EXPECT_TRUE(g.addEdge(0, 1));
    EXPECT_FALSE(g.addEdge(1, 0));
    EXPECT_EQ(g.numEdges(), 1u);
}

TEST(GraphTest, DegreeAndMaxDegree)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(0, 3);
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 3u);
}

TEST(GraphTest, EdgesAreCanonical)
{
    Graph g(3);
    g.addEdge(2, 0);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_EQ(g.edges()[0], (std::pair<Graph::Vertex, Graph::Vertex>{0, 2}));
}

TEST(GraphTest, OutOfRangeVertexPanics)
{
    Graph g(2);
    EXPECT_THROW(g.addEdge(0, 5), InternalError);
    EXPECT_THROW(g.adjacents(9), InternalError);
}

TEST(GraphTest, VerticesByDegreeDescOrder)
{
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(0, 3);
    g.addEdge(1, 2);
    const auto order = verticesByDegreeDesc(g);
    EXPECT_EQ(order.front(), 0u);
    EXPECT_EQ(order.back(), 3u);
}

TEST(GreedyColoringTest, TriangleNeedsThreeColors)
{
    Graph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    const auto coloring = greedyColoring(g, verticesByDegreeDesc(g));
    EXPECT_TRUE(isProperColoring(g, coloring));
    EXPECT_EQ(numColors(coloring), 3u);
}

TEST(GreedyColoringTest, PathIsTwoColorable)
{
    Graph g(5);
    for (Graph::Vertex v = 0; v + 1 < 5; ++v)
        g.addEdge(v, v + 1);
    const auto coloring = greedyColoring(g, verticesByDegreeDesc(g));
    EXPECT_TRUE(isProperColoring(g, coloring));
    EXPECT_LE(numColors(coloring), 2u);
}

TEST(GreedyColoringTest, EdgelessGraphUsesOneColor)
{
    Graph g(6);
    const auto coloring = greedyColoring(g, verticesByDegreeDesc(g));
    EXPECT_EQ(numColors(coloring), 1u);
}

TEST(IsProperColoringTest, DetectsViolations)
{
    Graph g(2);
    g.addEdge(0, 1);
    EXPECT_FALSE(isProperColoring(g, {0, 0}));
    EXPECT_TRUE(isProperColoring(g, {0, 1}));
    EXPECT_FALSE(isProperColoring(g, {0}));
}

/** Property sweep: proper coloring within the Brooks-style bound. */
class ColoringProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ColoringProperty, RandomGraphsColorProperly)
{
    Rng rng(GetParam());
    const std::size_t n = 20 + GetParam() % 40;
    const Graph g = randomGnp(n, 0.3, rng);
    const auto coloring = greedyColoring(g, verticesByDegreeDesc(g));
    EXPECT_TRUE(isProperColoring(g, coloring));
    EXPECT_LE(numColors(coloring), static_cast<std::uint32_t>(g.maxDegree() + 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/** Property sweep: the configuration model yields d-regular graphs. */
class RegularGraphProperty
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{};

TEST_P(RegularGraphProperty, AllDegreesEqualD)
{
    const auto [n, d] = GetParam();
    Rng rng(n * 1000 + d);
    const Graph g = randomRegularGraph(n, d, rng);
    EXPECT_EQ(g.numVertices(), n);
    EXPECT_EQ(g.numEdges(), n * d / 2);
    for (Graph::Vertex v = 0; v < n; ++v)
        EXPECT_EQ(g.degree(v), d);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RegularGraphProperty,
    ::testing::Values(std::pair<std::size_t, std::size_t>{10, 3},
                      std::pair<std::size_t, std::size_t>{30, 3},
                      std::pair<std::size_t, std::size_t>{30, 4},
                      std::pair<std::size_t, std::size_t>{50, 4},
                      std::pair<std::size_t, std::size_t>{100, 3},
                      std::pair<std::size_t, std::size_t>{16, 5}));

TEST(RandomRegularGraphTest, RejectsImpossibleParameters)
{
    Rng rng(1);
    EXPECT_THROW(randomRegularGraph(5, 5, rng), ConfigError);
    EXPECT_THROW(randomRegularGraph(5, 3, rng), ConfigError); // odd n*d
}

TEST(RandomGnpTest, ProbabilityExtremes)
{
    Rng rng(4);
    const Graph empty = randomGnp(10, 0.0, rng);
    EXPECT_EQ(empty.numEdges(), 0u);
    const Graph full = randomGnp(10, 1.0, rng);
    EXPECT_EQ(full.numEdges(), 45u);
}

TEST(RandomGnpTest, EdgeCountNearExpectation)
{
    Rng rng(8);
    const std::size_t n = 40;
    const Graph g = randomGnp(n, 0.5, rng);
    const double expected = 0.5 * static_cast<double>(n * (n - 1) / 2);
    EXPECT_NEAR(static_cast<double>(g.numEdges()), expected, expected * 0.25);
}

TEST(RandomGraphTest, DeterministicForFixedSeed)
{
    Rng rng1(99);
    Rng rng2(99);
    const Graph a = randomGnp(20, 0.4, rng1);
    const Graph b = randomGnp(20, 0.4, rng2);
    EXPECT_EQ(a.edges(), b.edges());
}

} // namespace
} // namespace powermove
