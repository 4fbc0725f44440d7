/**
 * @file
 * Stage partitioning via edge coloring (paper Sec. 4.1, Algorithm 1).
 *
 * Gates of a commutable CZ block form the vertices of an *interaction
 * graph* whose edges join gates sharing a qubit. A proper coloring of
 * this graph yields stages: gates of one color act on disjoint qubits and
 * execute under a single Rydberg pulse. PowerMove colors greedily in
 * descending vertex-degree order (Welsh-Powell), which is near-optimal
 * for these line-graph-like instances.
 *
 * partitionIntoStagesLinear computes that greedy coloring by a qubit
 * scan that never builds the graph. A gate conflicts only through its
 * two qubits, so a per-qubit bitset of already-used stage indices gives
 * the forbidden set in O(stages/64) words; O(gates * stages/64) time and
 * O(num_qubits) bitsets of extra space. The paper's formulation —
 * materialize the conflict graph (a clique per qubit, O(k^2) edges for a
 * qubit used in k gates), then color it — is the test oracle in
 * tests/oracles/reference_partition.hpp, and this scan matches it stage
 * for stage.
 */

#ifndef POWERMOVE_SCHEDULE_STAGE_PARTITION_HPP
#define POWERMOVE_SCHEDULE_STAGE_PARTITION_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "schedule/stage.hpp"

namespace powermove {

/**
 * Partitions a commutable CZ block into stages (Algorithm 1) by the
 * graph-free qubit scan.
 *
 * @param block      the gates to partition
 * @param num_qubits circuit width (for the per-qubit stage sets)
 * @return stages of disjoint-qubit gates; their concatenation is a
 *         permutation of the block's gates.
 */
std::vector<Stage> partitionIntoStagesLinear(const CzBlock &block,
                                             std::size_t num_qubits);

} // namespace powermove

#endif // POWERMOVE_SCHEDULE_STAGE_PARTITION_HPP
