#include "exec/fixpoint.h"

#include <utility>

namespace prisma::exec {

FixpointPartition::FixpointPartition(TcAlgorithm algorithm,
                                     size_t num_partitions, size_t my_index)
    : algorithm_(algorithm),
      num_partitions_(num_partitions == 0 ? 1 : num_partitions),
      my_index_(my_index) {}

Status FixpointPartition::AddEdge(const Tuple& tuple) {
  if (tuple.size() != 2) {
    return InvalidArgumentError(
        "transitive closure input must be a binary relation");
  }
  if (tuple.at(0).is_null() || tuple.at(1).is_null()) {
    ++stats_.null_edges_ignored;
    return Status::OK();
  }
  if (edges_[tuple.at(0)].insert(tuple.at(1)).second) ++edge_count_;
  return Status::OK();
}

void FixpointPartition::Route(const Value& from, const Value& to,
                              RoutedPairs* owner_out, RoutedPairs* index_out) {
  (*owner_out)[PartitionOf(to)].insert(Tuple({from, to}));
  if (algorithm_ == TcAlgorithm::kSmart) {
    (*index_out)[PartitionOf(from)].insert(Tuple({from, to}));
  }
}

void FixpointPartition::Seed(RoutedPairs* owner_out, RoutedPairs* index_out) {
  owner_out->assign(num_partitions_, {});
  index_out->assign(num_partitions_, {});
  for (const auto& [from, succs] : edges_) {
    for (const Value& to : succs) Route(from, to, owner_out, index_out);
  }
}

uint64_t FixpointPartition::JoinRound(RoutedPairs* owner_out,
                                      RoutedPairs* index_out) {
  owner_out->assign(num_partitions_, {});
  index_out->assign(num_partitions_, {});
  uint64_t products = 0;

  // Derivations are shipped to their home partitions and deduplicated
  // there; locally we only count the join products (the cost term).
  switch (algorithm_) {
    case TcAlgorithm::kSeminaive: {
      // delta(x, y) ⋈ E(y, z): the pending delta is partitioned by y
      // (ownership by second endpoint), E by its first — co-located.
      std::set<Tuple> delta = std::move(pending_delta_);
      pending_delta_.clear();
      for (const Tuple& pair : delta) {
        auto it = edges_.find(pair.at(1));
        if (it == edges_.end()) continue;
        for (const Value& to : it->second) {
          ++products;
          Route(pair.at(0), to, owner_out, index_out);
        }
      }
      break;
    }
    case TcAlgorithm::kNaive: {
      // T(x, y) ⋈ E(y, z) over the *entire* owned slice each round —
      // naive re-derivation, now paid for in wire bits too.
      pending_delta_.clear();
      for (const Tuple& pair : owned_) {
        auto it = edges_.find(pair.at(1));
        if (it == edges_.end()) continue;
        for (const Value& to : it->second) {
          ++products;
          Route(pair.at(0), to, owner_out, index_out);
        }
      }
      break;
    }
    case TcAlgorithm::kSmart: {
      // T(x, y) ⋈ T(y, z): owned pairs (by second endpoint) join the
      // index copy (by first endpoint) — both hash(y), both local.
      pending_delta_.clear();
      for (const Tuple& pair : owned_) {
        auto it = index_.find(pair.at(1));
        if (it == index_.end()) continue;
        for (const Value& to : it->second) {
          ++products;
          Route(pair.at(0), to, owner_out, index_out);
        }
      }
      break;
    }
  }
  stats_.pairs_derived += products;
  return products;
}

uint64_t FixpointPartition::AbsorbOwned(const std::vector<Tuple>& tuples) {
  uint64_t fresh = 0;
  for (const Tuple& t : tuples) {
    if (owned_.insert(t).second) {
      pending_delta_.insert(t);
      ++fresh;
    }
  }
  stats_.result_size = owned_.size();
  return fresh;
}

void FixpointPartition::AbsorbIndex(const std::vector<Tuple>& tuples) {
  for (const Tuple& t : tuples) index_[t.at(0)].insert(t.at(1));
}

}  // namespace prisma::exec
