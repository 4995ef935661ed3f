#include "net/topology.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"
#include "common/str_util.h"

namespace prisma::net {
namespace {

std::vector<std::vector<NodeId>> GridAdjacency(int rows, int cols, bool wrap) {
  const int n = rows * cols;
  std::vector<std::vector<NodeId>> adj(n);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      std::vector<NodeId>& out = adj[id(r, c)];
      // Order: up, down, left, right — deterministic tie-breaking relies on
      // the sorted pass below.
      if (r > 0) out.push_back(id(r - 1, c));
      else if (wrap && rows > 2) out.push_back(id(rows - 1, c));
      if (r + 1 < rows) out.push_back(id(r + 1, c));
      else if (wrap && rows > 2) out.push_back(id(0, c));
      if (c > 0) out.push_back(id(r, c - 1));
      else if (wrap && cols > 2) out.push_back(id(r, cols - 1));
      if (c + 1 < cols) out.push_back(id(r, c + 1));
      else if (wrap && cols > 2) out.push_back(id(r, 0));
    }
  }
  return adj;
}

}  // namespace

Topology Topology::Mesh(int rows, int cols) {
  PRISMA_CHECK(rows >= 1 && cols >= 1);
  Topology t(StrFormat("mesh_%dx%d", rows, cols),
             GridAdjacency(rows, cols, /*wrap=*/false));
  t.RouteDimensionOrder(rows, cols, /*wrap=*/false);
  return t;
}

Topology Topology::Torus(int rows, int cols) {
  PRISMA_CHECK(rows >= 1 && cols >= 1);
  Topology t(StrFormat("torus_%dx%d", rows, cols),
             GridAdjacency(rows, cols, /*wrap=*/true));
  t.RouteDimensionOrder(rows, cols, /*wrap=*/true);
  return t;
}

Topology Topology::Ring(int nodes) {
  PRISMA_CHECK(nodes >= 2);
  std::vector<std::vector<NodeId>> adj(nodes);
  for (int i = 0; i < nodes; ++i) {
    adj[i].push_back((i + 1) % nodes);
    adj[i].push_back((i + nodes - 1) % nodes);
  }
  return Topology(StrFormat("ring_%d", nodes), std::move(adj));
}

Topology Topology::ChordalRing(int nodes, int chord) {
  PRISMA_CHECK(nodes >= 4);
  PRISMA_CHECK(chord >= 2 && chord < nodes);
  std::vector<std::vector<NodeId>> adj(nodes);
  for (int i = 0; i < nodes; ++i) {
    adj[i].push_back((i + 1) % nodes);
    adj[i].push_back((i + nodes - 1) % nodes);
    adj[i].push_back((i + chord) % nodes);
    adj[i].push_back((i + nodes - chord) % nodes);
  }
  // Remove duplicate edges (possible when chord == nodes/2).
  for (auto& v : adj) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return Topology(StrFormat("chordal_ring_%d_c%d", nodes, chord),
                  std::move(adj));
}

Topology Topology::FullyConnected(int nodes) {
  PRISMA_CHECK(nodes >= 2);
  std::vector<std::vector<NodeId>> adj(nodes);
  for (int i = 0; i < nodes; ++i) {
    for (int j = 0; j < nodes; ++j) {
      if (i != j) adj[i].push_back(j);
    }
  }
  return Topology(StrFormat("full_%d", nodes), std::move(adj));
}

Topology::Topology(std::string name, std::vector<std::vector<NodeId>> adjacency)
    : name_(std::move(name)), adjacency_(std::move(adjacency)) {
  for (auto& v : adjacency_) std::sort(v.begin(), v.end());
  BuildRoutes();
}

void Topology::BuildRoutes() {
  const int n = num_nodes();
  dist_.assign(n, std::vector<int>(n, -1));
  next_hop_.assign(n, std::vector<NodeId>(n, -1));
  for (int src = 0; src < n; ++src) {
    std::deque<NodeId> frontier;
    dist_[src][src] = 0;
    next_hop_[src][src] = src;
    frontier.push_back(src);
    // BFS; parent chain reconstructed into first-hop table.
    std::vector<NodeId> parent(n, -1);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const NodeId v : adjacency_[u]) {
        if (dist_[src][v] != -1) continue;
        dist_[src][v] = dist_[src][u] + 1;
        parent[v] = u;
        frontier.push_back(v);
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src || dist_[src][dst] < 0) continue;
      NodeId hop = dst;
      while (parent[hop] != src) hop = parent[hop];
      next_hop_[src][dst] = hop;
    }
  }
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      PRISMA_CHECK(dist_[a][b] >= 0) << "topology " << name_
                                     << " is disconnected";
    }
  }
}

void Topology::RouteDimensionOrder(int rows, int cols, bool wrap) {
  // One step from `from` towards `to` within a dimension of `size` nodes.
  auto step = [wrap](int from, int to, int size) {
    if (!wrap || size <= 2) return to > from ? from + 1 : from - 1;
    const int forward = (to - from + size) % size;
    return forward <= size - forward ? (from + 1) % size
                                     : (from + size - 1) % size;
  };
  for (int src = 0; src < rows * cols; ++src) {
    const int r = src / cols;
    const int c = src % cols;
    for (int dst = 0; dst < rows * cols; ++dst) {
      if (dst == src) continue;
      const int hop = dst % cols != c ? r * cols + step(c, dst % cols, cols)
                                      : step(r, dst / cols, rows) * cols + c;
      PRISMA_CHECK(std::binary_search(adjacency_[src].begin(),
                                      adjacency_[src].end(), hop));
      next_hop_[src][dst] = hop;
    }
  }
}

int Topology::num_directed_links() const {
  int total = 0;
  for (const auto& v : adjacency_) total += static_cast<int>(v.size());
  return total;
}

int Topology::max_degree() const {
  size_t d = 0;
  for (const auto& v : adjacency_) d = std::max(d, v.size());
  return static_cast<int>(d);
}

NodeId Topology::NextHop(NodeId from, NodeId to) const {
  return next_hop_[from][to];
}

int Topology::Distance(NodeId from, NodeId to) const {
  return dist_[from][to];
}

int Topology::Diameter() const {
  int d = 0;
  for (const auto& row : dist_) {
    for (const int v : row) d = std::max(d, v);
  }
  return d;
}

double Topology::AverageDistance() const {
  const int n = num_nodes();
  if (n < 2) return 0;
  int64_t sum = 0;
  for (const auto& row : dist_) {
    for (const int v : row) sum += v;
  }
  return static_cast<double>(sum) / (static_cast<int64_t>(n) * (n - 1));
}

}  // namespace prisma::net
