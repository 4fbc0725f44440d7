#include "oracles/reference_partition.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace powermove {

std::vector<Graph::Vertex>
verticesByDegreeDesc(const Graph &graph)
{
    std::vector<Graph::Vertex> order(graph.numVertices());
    std::iota(order.begin(), order.end(), Graph::Vertex{0});
    std::stable_sort(order.begin(), order.end(),
                     [&graph](Graph::Vertex a, Graph::Vertex b) {
                         return graph.degree(a) > graph.degree(b);
                     });
    return order;
}

std::vector<std::uint32_t>
greedyColoring(const Graph &graph, const std::vector<Graph::Vertex> &order)
{
    PM_ASSERT(order.size() == graph.numVertices(),
              "coloring order must cover every vertex");
    constexpr std::uint32_t kUncolored = ~std::uint32_t{0};
    std::vector<std::uint32_t> color(graph.numVertices(), kUncolored);
    // Greedy coloring uses at most maxDegree + 1 colors.
    std::vector<bool> available(graph.maxDegree() + 1, true);
    for (const auto vertex : order) {
        std::fill(available.begin(), available.end(), true);
        for (const auto neighbor : graph.adjacents(vertex)) {
            const auto c = color[neighbor];
            if (c != kUncolored && c < available.size())
                available[c] = false;
        }
        for (std::uint32_t c = 0; c < available.size(); ++c) {
            if (available[c]) {
                color[vertex] = c;
                break;
            }
        }
        PM_ASSERT(color[vertex] != kUncolored, "greedy coloring ran out of colors");
    }
    return color;
}

std::uint32_t
numColors(const std::vector<std::uint32_t> &coloring)
{
    std::uint32_t top = 0;
    for (const auto c : coloring)
        top = std::max(top, c + 1);
    return top;
}

bool
isProperColoring(const Graph &graph, const std::vector<std::uint32_t> &coloring)
{
    if (coloring.size() != graph.numVertices())
        return false;
    for (const auto &[u, v] : graph.edges()) {
        if (coloring[u] == coloring[v])
            return false;
    }
    return true;
}

Graph
buildInteractionGraph(const CzBlock &block, std::size_t num_qubits)
{
    const std::size_t num_gates = block.gates.size();
    Graph graph(num_gates);

    // Index gates by qubit, then connect every two gates sharing one.
    std::vector<std::vector<Graph::Vertex>> gates_on_qubit(num_qubits);
    for (std::size_t g = 0; g < num_gates; ++g) {
        const auto &gate = block.gates[g];
        PM_ASSERT(gate.a < num_qubits && gate.b < num_qubits,
                  "gate qubit outside circuit width");
        gates_on_qubit[gate.a].push_back(static_cast<Graph::Vertex>(g));
        gates_on_qubit[gate.b].push_back(static_cast<Graph::Vertex>(g));
    }
    for (std::size_t q = 0; q < num_qubits; ++q) {
        const auto &sharers = gates_on_qubit[q];
        for (std::size_t i = 0; i < sharers.size(); ++i) {
            for (std::size_t j = i + 1; j < sharers.size(); ++j) {
                // A pair sharing both qubits sits in two sharer lists;
                // expand it only from the lower one so the edge reaches
                // addEdge exactly once instead of leaning on its
                // linear-scan duplicate rejection.
                const auto other_i =
                    block.gates[sharers[i]].partnerOf(static_cast<QubitId>(q));
                const auto other_j =
                    block.gates[sharers[j]].partnerOf(static_cast<QubitId>(q));
                if (other_i == other_j && other_i < q)
                    continue;
                const bool inserted = graph.addEdge(sharers[i], sharers[j]);
                // addEdge also rejects duplicates (by an O(degree) scan),
                // so the guard above is output-invisible; this assert is
                // what keeps it from silently regressing.
                PM_ASSERT(inserted,
                          "clique expansion emitted a duplicate conflict");
            }
        }
    }
    return graph;
}

std::vector<Stage>
partitionIntoStages(const CzBlock &block, std::size_t num_qubits)
{
    if (block.gates.empty())
        return {};
    if (block.gates.size() == 1)
        return {Stage{block.gates}};

    const Graph graph = buildInteractionGraph(block, num_qubits);
    const auto order = verticesByDegreeDesc(graph);
    const auto coloring = greedyColoring(graph, order);

    std::vector<Stage> stages(numColors(coloring));
    for (std::size_t g = 0; g < block.gates.size(); ++g)
        stages[coloring[g]].gates.push_back(block.gates[g]);

    for (const auto &stage : stages)
        PM_ASSERT(stage.qubitsDisjoint(), "stage partition produced overlap");
    return stages;
}

} // namespace powermove
