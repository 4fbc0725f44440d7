#include "schedule/stage_partition.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace powermove {

namespace {

/**
 * Per-qubit dynamic bitsets of stage indices already taken by a colored
 * gate on that qubit. All gates on one qubit mutually conflict, so their
 * stage indices are distinct and the set is exactly one bit per stage;
 * the words grow lazily with the running stage count, keeping the whole
 * structure O(num_qubits) bitsets of O(stages/64) words each.
 */
class UsedStageSets
{
  public:
    explicit UsedStageSets(std::size_t num_qubits) : words_(num_qubits) {}

    /** Smallest stage index absent from used[a] | used[b]. */
    std::uint32_t
    firstFree(QubitId a, QubitId b) const
    {
        const auto &wa = words_[a];
        const auto &wb = words_[b];
        const std::size_t limit = std::max(wa.size(), wb.size());
        for (std::size_t w = 0; w < limit; ++w) {
            const std::uint64_t merged = (w < wa.size() ? wa[w] : 0) |
                                         (w < wb.size() ? wb[w] : 0);
            if (merged != ~std::uint64_t{0}) {
                return static_cast<std::uint32_t>(
                    w * 64 + static_cast<std::size_t>(std::countr_one(merged)));
            }
        }
        return static_cast<std::uint32_t>(limit * 64);
    }

    void
    set(QubitId q, std::uint32_t stage)
    {
        auto &w = words_[q];
        const std::size_t word = stage / 64;
        if (word >= w.size())
            w.resize(word + 1, 0);
        w[word] |= std::uint64_t{1} << (stage % 64);
    }

  private:
    std::vector<std::vector<std::uint64_t>> words_;
};

/** Canonical {min, max} qubit pair packed into one map key. */
std::uint64_t
pairKey(const CzGate &gate)
{
    const auto lo = std::min(gate.a, gate.b);
    const auto hi = std::max(gate.a, gate.b);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/**
 * The greedy stage assignment of paper Alg. 1 — Welsh-Powell coloring
 * of the conflict graph — computed by a qubit scan, without the graph.
 * Two ingredients make the result bit-identical to coloring the
 * materialized graph (the oracle in tests/oracles/):
 *
 *  1. The scan order is the graph's descending-degree order: conflict
 *     degrees come from per-qubit gate counts — deg(g) = (cnt[a] - 1) +
 *     (cnt[b] - 1) - (pairs[{a,b}] - 1), the last term undoing the
 *     double count of gates sharing *both* qubits — and a counting sort
 *     by descending degree preserves ascending gate index within each
 *     degree, matching the stable sort's tie break.
 *  2. The forbidden colors of a gate are the union of the stage sets of
 *     its two qubits — precisely the colors of its already-colored
 *     graph neighbors — so taking the first free bit of that union is
 *     the "smallest color unused among neighbors" choice of greedy
 *     coloring.
 *
 * @return one stage index per gate, dense from 0.
 */
std::vector<std::uint32_t>
greedyScanAssignment(const CzBlock &block, std::size_t num_qubits)
{
    const std::size_t num_gates = block.gates.size();

    std::vector<std::uint32_t> count_on_qubit(num_qubits, 0);
    std::unordered_map<std::uint64_t, std::uint32_t> pair_multiplicity;
    pair_multiplicity.reserve(num_gates);
    for (const auto &gate : block.gates) {
        PM_ASSERT(gate.a < num_qubits && gate.b < num_qubits,
                  "gate qubit outside circuit width");
        PM_ASSERT(gate.a != gate.b, "CZ gate with identical qubits");
        ++count_on_qubit[gate.a];
        ++count_on_qubit[gate.b];
        ++pair_multiplicity[pairKey(gate)];
    }

    std::vector<std::uint32_t> degree(num_gates);
    std::uint32_t max_degree = 0;
    for (std::size_t g = 0; g < num_gates; ++g) {
        const auto &gate = block.gates[g];
        degree[g] = count_on_qubit[gate.a] + count_on_qubit[gate.b] - 2 -
                    (pair_multiplicity[pairKey(gate)] - 1);
        max_degree = std::max(max_degree, degree[g]);
    }

    // Counting sort, descending degree, ascending gate index within a
    // degree (the Welsh-Powell order with a stable tie break).
    std::vector<std::vector<std::uint32_t>> buckets(max_degree + 1);
    for (std::size_t g = 0; g < num_gates; ++g)
        buckets[degree[g]].push_back(static_cast<std::uint32_t>(g));

    UsedStageSets used(num_qubits);
    std::vector<std::uint32_t> stage_of(num_gates);
    for (std::size_t d = buckets.size(); d-- > 0;) {
        for (const std::uint32_t g : buckets[d]) {
            const auto &gate = block.gates[g];
            const std::uint32_t stage = used.firstFree(gate.a, gate.b);
            stage_of[g] = stage;
            used.set(gate.a, stage);
            used.set(gate.b, stage);
        }
    }
    return stage_of;
}

/** Stages from a dense per-gate assignment, gates in block order. */
std::vector<Stage>
stagesFromAssignment(const CzBlock &block,
                     const std::vector<std::uint32_t> &stage_of)
{
    std::uint32_t num_stages = 0;
    for (const auto stage : stage_of)
        num_stages = std::max(num_stages, stage + 1);

    std::vector<Stage> stages(num_stages);
    for (std::size_t g = 0; g < block.gates.size(); ++g)
        stages[stage_of[g]].gates.push_back(block.gates[g]);

    for (const auto &stage : stages)
        PM_ASSERT(stage.qubitsDisjoint(), "stage partition produced overlap");
    return stages;
}

} // namespace

std::vector<Stage>
partitionIntoStagesLinear(const CzBlock &block, std::size_t num_qubits)
{
    if (block.gates.empty())
        return {};
    if (block.gates.size() == 1)
        return {Stage{block.gates}};

    return stagesFromAssignment(block,
                                greedyScanAssignment(block, num_qubits));
}

} // namespace powermove
