#ifndef PRISMA_EXEC_FIXPOINT_H_
#define PRISMA_EXEC_FIXPOINT_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"
#include "exec/transitive_closure.h"

namespace prisma::exec {

/// Pairs routed to destination partitions by one fixpoint activity.
/// Element i is the (sorted, distinct) set of pairs owed to partition i,
/// so batch contents are deterministic regardless of mail arrival order.
using RoutedPairs = std::vector<std::set<Tuple>>;

/// One partition's share of a distributed transitive-closure fixpoint
/// (DESIGN.md §11). This is the pure, mail-free kernel: the surrounding
/// POOL-X process (gdh::FixpointPeProcess) feeds it edge tuples and
/// absorbed delta batches and ships whatever it routes.
///
/// Partitioning scheme (N partitions, hash = Value::Hash() % N):
///   - The edge relation E arrives partitioned by hash(first column) —
///     exactly what the OFM shuffle producers emit for partition_column 0.
///   - A closure pair (x, z) is *owned* by partition hash(z): ownership
///     by second endpoint means an owned pair (x, y) is co-located with
///     every edge (y, ·) it can extend, so delta ⋈ E is purely local.
///   - The smart (squaring) strategy additionally keeps an *index* copy
///     of every pair partitioned by first endpoint, so T ⋈ T is local
///     too; every derivation is routed to both homes.
///
/// Stats follow the single-node conventions of TransitiveClosure():
/// distinct non-NULL edges only, pairs_derived counts join products
/// before duplicate elimination, and summing pairs_derived across
/// partitions reproduces the single-node figure exactly.
class FixpointPartition {
 public:
  FixpointPartition(TcAlgorithm algorithm, size_t num_partitions,
                    size_t my_index);

  /// Ingests one local edge tuple (from the side-0 shuffle). Tuples with
  /// a NULL endpoint are counted in stats().null_edges_ignored and
  /// dropped, matching the single-node operator; duplicates collapse.
  Status AddEdge(const Tuple& tuple);

  /// Routes this partition's distinct local edges to their closure homes
  /// (round 0). `index_out` is filled only for the smart strategy; both
  /// outputs are resized to num_partitions.
  void Seed(RoutedPairs* owner_out, RoutedPairs* index_out);

  /// Runs join round `round` (1-based) over the state absorbed so far
  /// and routes the derived pairs. Seminaive consumes the pending delta;
  /// naive/smart rejoin their full sets. Returns the number of join
  /// products (also accumulated into stats().pairs_derived).
  uint64_t JoinRound(RoutedPairs* owner_out, RoutedPairs* index_out);

  /// Absorbs owned-copy pairs shipped to this partition; returns how
  /// many were new (deduplicated against the known set). New pairs also
  /// enter the pending delta consumed by the next JoinRound.
  uint64_t AbsorbOwned(const std::vector<Tuple>& tuples);

  /// Absorbs index-copy pairs (smart strategy only).
  void AbsorbIndex(const std::vector<Tuple>& tuples);

  /// True when no new owned pairs have been absorbed since the last
  /// JoinRound (the per-partition "delta empty" vote).
  bool delta_empty() const { return pending_delta_.empty(); }

  /// The owned pairs absorbed since the last JoinRound, in Tuple::Compare
  /// order. Every owned pair is fresh in exactly one round, and partitions
  /// own disjoint slices, so the deltas of all rounds of all partitions,
  /// concatenated and sorted, reproduce the single-node sorted output
  /// byte for byte.
  const std::set<Tuple>& delta() const { return pending_delta_; }

  size_t PartitionOf(const Value& v) const {
    return static_cast<size_t>(v.Hash() % num_partitions_);
  }

  TcAlgorithm algorithm() const { return algorithm_; }
  size_t num_partitions() const { return num_partitions_; }
  const TcStats& stats() const { return stats_; }
  uint64_t owned_size() const { return static_cast<uint64_t>(owned_.size()); }
  uint64_t edge_count() const { return edge_count_; }

 private:
  void Route(const Value& from, const Value& to, RoutedPairs* owner_out,
             RoutedPairs* index_out);

  const TcAlgorithm algorithm_;
  const size_t num_partitions_;
  const size_t my_index_;

  /// Local slice of E as an adjacency map: first endpoint -> distinct
  /// successors. Ordered containers keep every iteration deterministic
  /// (this header is on the lint D2 observable surface).
  std::map<Value, std::set<Value>> edges_;
  uint64_t edge_count_ = 0;

  /// Owned closure pairs (partitioned by second endpoint).
  std::set<Tuple> owned_;
  /// Owned pairs absorbed since the last join round (the delta).
  std::set<Tuple> pending_delta_;
  /// Smart only: index copy keyed by first endpoint.
  std::map<Value, std::set<Value>> index_;

  TcStats stats_;
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_FIXPOINT_H_
