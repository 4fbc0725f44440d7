/**
 * @file
 * Differential oracle: stage partitioning as the paper states it
 * (Sec. 4.1, Algorithm 1).
 *
 * Gates of a commutable CZ block are the vertices of an interaction
 * graph whose edges join gates sharing a qubit; a greedy coloring in
 * descending vertex-degree order (Welsh-Powell) makes the stages.
 * These functions materialize that graph — a clique per qubit, O(k^2)
 * edges for a qubit used in k gates — and color it. They are kept out
 * of the library: partitionIntoStagesLinear (schedule/stage_partition.hpp)
 * computes the same assignment by a graph-free qubit scan, and the
 * partition tests and bench/micro_oracles compare the two stage for
 * stage.
 */

#ifndef POWERMOVE_TESTS_ORACLES_REFERENCE_PARTITION_HPP
#define POWERMOVE_TESTS_ORACLES_REFERENCE_PARTITION_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/graph.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/** Vertices sorted by descending degree (ties by ascending index). */
std::vector<Graph::Vertex> verticesByDegreeDesc(const Graph &graph);

/**
 * Greedy coloring that processes vertices in the given order, assigning
 * each the smallest color unused among its neighbors (core of paper
 * Alg. 1).
 *
 * @return one color per vertex, colors are dense starting at 0.
 */
std::vector<std::uint32_t> greedyColoring(
    const Graph &graph, const std::vector<Graph::Vertex> &order);

/** Number of distinct colors in a coloring. */
std::uint32_t numColors(const std::vector<std::uint32_t> &coloring);

/** True if no edge of @p graph joins two equal colors. */
bool isProperColoring(const Graph &graph,
                      const std::vector<std::uint32_t> &coloring);

/**
 * Builds the interaction graph of a CZ block: one vertex per gate, one
 * edge between every two gates sharing at least one qubit. Gate pairs
 * sharing *both* qubits are deduplicated up front (the pair is expanded
 * only from its lower shared qubit), so every conflict reaches
 * Graph::addEdge exactly once.
 */
Graph buildInteractionGraph(const CzBlock &block, std::size_t num_qubits);

/**
 * Partitions a commutable CZ block into stages (Algorithm 1) via the
 * materialized conflict graph.
 *
 * @param block      the gates to partition
 * @param num_qubits circuit width (for the qubit-indexed gate lists)
 * @return stages of disjoint-qubit gates; their concatenation is a
 *         permutation of the block's gates.
 */
std::vector<Stage> partitionIntoStages(const CzBlock &block,
                                       std::size_t num_qubits);

} // namespace powermove

#endif // POWERMOVE_TESTS_ORACLES_REFERENCE_PARTITION_HPP
