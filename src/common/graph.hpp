/**
 * @file
 * A small undirected graph library: problem graphs for workload
 * generation (random d-regular graphs for QAOA, G(n, p) for
 * QAOA-random). The paper's Alg. 1 conflict graph and its greedy
 * coloring are built on it only by the partition test oracle
 * (tests/oracles/reference_partition.hpp); the library partitions
 * without materializing that graph (schedule/stage_partition.hpp).
 */

#ifndef POWERMOVE_COMMON_GRAPH_HPP
#define POWERMOVE_COMMON_GRAPH_HPP

#include <cstdint>
#include <utility>
#include <vector>

namespace powermove {

class Rng;

/** An undirected simple graph stored as adjacency lists. */
class Graph
{
  public:
    using Vertex = std::uint32_t;

    Graph() = default;

    /** Creates a graph with @p num_vertices vertices and no edges. */
    explicit Graph(std::size_t num_vertices);

    /** Number of vertices. */
    std::size_t numVertices() const { return adjacency_.size(); }

    /** Number of edges. */
    std::size_t numEdges() const { return num_edges_; }

    /**
     * Adds the undirected edge {u, v}.
     *
     * @return true if the edge was added, false if it already existed or
     *         is a self loop.
     */
    bool addEdge(Vertex u, Vertex v);

    /** True if the undirected edge {u, v} is present. */
    bool hasEdge(Vertex u, Vertex v) const;

    /** Neighbors of @p v. */
    const std::vector<Vertex> &adjacents(Vertex v) const;

    /** Degree of @p v. */
    std::size_t degree(Vertex v) const { return adjacents(v).size(); }

    /** Maximum vertex degree (0 for an empty graph). */
    std::size_t maxDegree() const;

    /** All edges as (min, max) vertex pairs, in insertion order. */
    const std::vector<std::pair<Vertex, Vertex>> &edges() const
    {
        return edge_list_;
    }

  private:
    std::vector<std::vector<Vertex>> adjacency_;
    std::vector<std::pair<Vertex, Vertex>> edge_list_;
    std::size_t num_edges_ = 0;
};

/**
 * Generates a random d-regular simple graph via the configuration model
 * with rejection (retrying on self loops / parallel edges).
 *
 * Requires n * d even and d < n.
 */
Graph randomRegularGraph(std::size_t n, std::size_t d, Rng &rng);

/** Generates an Erdos-Renyi G(n, p) graph. */
Graph randomGnp(std::size_t n, double p, Rng &rng);

} // namespace powermove

#endif // POWERMOVE_COMMON_GRAPH_HPP
