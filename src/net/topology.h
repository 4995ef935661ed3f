#ifndef PRISMA_NET_TOPOLOGY_H_
#define PRISMA_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace prisma::net {

/// Identifier of a processing element (PE) in the multi-computer, 0-based.
using NodeId = int;

/// Static interconnection graph of the multi-computer with precomputed
/// shortest-path routing tables.
///
/// The paper (§3.2) prescribes 4 communication links per PE and a
/// "mesh-like" topology or "a variant of a chordal ring"; both are
/// provided, along with a plain ring and a torus for comparison. Routing is
/// deterministic shortest-path, so a given (src, dst) pair always uses the
/// same path. Meshes and tori route in dimension order: along the row to
/// the destination column, then along the column (on a torus the shorter
/// way round each dimension, ties toward increasing index), so traffic
/// converging on one node arrives over all of its links. The ring,
/// chordal-ring and fully-connected topologies take the BFS path that
/// prefers the lowest neighbour id.
class Topology {
 public:
  /// 2-D mesh without wraparound; interior nodes have 4 links.
  static Topology Mesh(int rows, int cols);

  /// 2-D torus (mesh with wraparound); every node has exactly 4 links.
  static Topology Torus(int rows, int cols);

  /// Bidirectional ring; every node has 2 links.
  static Topology Ring(int nodes);

  /// Chordal ring: ring plus chords i <-> (i + chord) mod n, giving every
  /// node exactly 4 links (the paper's "variant of a chordal ring").
  static Topology ChordalRing(int nodes, int chord);

  /// Every node connected to every other (idealized baseline).
  static Topology FullyConnected(int nodes);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  const std::vector<NodeId>& neighbors(NodeId node) const {
    return adjacency_[node];
  }

  /// Number of directed links (sum of node degrees).
  int num_directed_links() const;

  /// Maximum node degree (the paper's machine caps this at 4).
  int max_degree() const;

  /// First hop on the shortest path from `from` towards `to`.
  /// Returns `to` itself when they are equal.
  NodeId NextHop(NodeId from, NodeId to) const;

  /// Shortest-path hop count between two nodes.
  int Distance(NodeId from, NodeId to) const;

  /// Largest shortest-path distance over all pairs.
  int Diameter() const;

  /// Mean shortest-path distance over ordered distinct pairs.
  double AverageDistance() const;

  const std::string& name() const { return name_; }

 private:
  Topology(std::string name, std::vector<std::vector<NodeId>> adjacency);

  /// BFS from every node filling distance and next-hop tables.
  void BuildRoutes();

  /// Overwrites the next-hop table of a rows x cols grid (node id
  /// r * cols + c) with X-then-Y dimension-order routes. `wrap` as in
  /// Torus(): a dimension wraps only when it has more than 2 nodes.
  void RouteDimensionOrder(int rows, int cols, bool wrap);

  std::string name_;
  std::vector<std::vector<NodeId>> adjacency_;
  // dist_[a][b]: hop count; next_hop_[a][b]: neighbour of a on the path to b.
  std::vector<std::vector<int>> dist_;
  std::vector<std::vector<NodeId>> next_hop_;
};

}  // namespace prisma::net

#endif  // PRISMA_NET_TOPOLOGY_H_
