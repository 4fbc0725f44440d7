#include "common/graph.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace powermove {

Graph::Graph(std::size_t num_vertices) : adjacency_(num_vertices) {}

bool
Graph::addEdge(Vertex u, Vertex v)
{
    PM_ASSERT(u < adjacency_.size() && v < adjacency_.size(),
              "edge endpoint out of range");
    if (u == v || hasEdge(u, v))
        return false;
    adjacency_[u].push_back(v);
    adjacency_[v].push_back(u);
    edge_list_.emplace_back(std::min(u, v), std::max(u, v));
    ++num_edges_;
    return true;
}

bool
Graph::hasEdge(Vertex u, Vertex v) const
{
    PM_ASSERT(u < adjacency_.size() && v < adjacency_.size(),
              "edge endpoint out of range");
    const auto &smaller =
        adjacency_[u].size() <= adjacency_[v].size() ? adjacency_[u] : adjacency_[v];
    const Vertex needle = adjacency_[u].size() <= adjacency_[v].size() ? v : u;
    return std::find(smaller.begin(), smaller.end(), needle) != smaller.end();
}

const std::vector<Graph::Vertex> &
Graph::adjacents(Vertex v) const
{
    PM_ASSERT(v < adjacency_.size(), "vertex out of range");
    return adjacency_[v];
}

std::size_t
Graph::maxDegree() const
{
    std::size_t best = 0;
    for (const auto &nbrs : adjacency_)
        best = std::max(best, nbrs.size());
    return best;
}

Graph
randomRegularGraph(std::size_t n, std::size_t d, Rng &rng)
{
    if (d >= n)
        fatal("randomRegularGraph: degree must be smaller than vertex count");
    if ((n * d) % 2 != 0)
        fatal("randomRegularGraph: n * d must be even");

    constexpr int kMaxAttempts = 1000;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
        // Configuration model: pair up n*d stubs uniformly at random and
        // reject the sample whenever it produces a loop or parallel edge.
        std::vector<Graph::Vertex> stubs;
        stubs.reserve(n * d);
        for (std::size_t v = 0; v < n; ++v) {
            for (std::size_t k = 0; k < d; ++k)
                stubs.push_back(static_cast<Graph::Vertex>(v));
        }
        rng.shuffle(stubs);

        Graph graph(n);
        bool ok = true;
        for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
            if (!graph.addEdge(stubs[i], stubs[i + 1])) {
                ok = false;
                break;
            }
        }
        if (ok)
            return graph;
    }
    panic("randomRegularGraph failed to converge; parameters too tight");
}

Graph
randomGnp(std::size_t n, double p, Rng &rng)
{
    Graph graph(n);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = u + 1; v < n; ++v) {
            if (rng.nextBool(p)) {
                graph.addEdge(static_cast<Graph::Vertex>(u),
                              static_cast<Graph::Vertex>(v));
            }
        }
    }
    return graph;
}

} // namespace powermove
