#ifndef PRISMA_GDH_PLAN_CACHE_H_
#define PRISMA_GDH_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "gdh/distributed_plan.h"
#include "gdh/messages.h"
#include "gdh/optimizer.h"
#include "obs/metrics.h"
#include "pool/owned.h"

namespace prisma::gdh {

/// Machine-wide shared plan cache (DESIGN.md §15.4): repeated
/// parameterized statements skip the coordinator's parse/bind/optimize/
/// split work and reuse the immutable DistributedPlan.
///
/// Ownership: like the DataDictionary and PeLocalRegistry this is a
/// machine-level structure owned by core::PrismaDb and handed to the GDH
/// and every query coordinator as a plain pointer — conceptually shared
/// memory, deliberately outside the pool::Owned ownership checker (any
/// coordinator may probe or fill it; the discrete-event simulator
/// serializes every access, so same-seed runs see identical cache states).
///
/// Key: normalized statement fingerprint + literal values. Literals are part of the key because constants are
/// embedded in the optimized plan (fragment pruning depends on them), so a
/// hit is only declared for a statement that optimizes to the very same
/// plan; the fingerprint still buys whitespace/case insensitivity.
///
/// Invalidation: epoch-based. DDL (table/index create — a fragment-count
/// change is a DDL), replica failover and resync cutover bump the epoch
/// and drop every entry. Entries are never served across epochs, so a
/// stale plan cannot outlive the schema/placement it was built for.
///
/// Residency: each entry gets a monotonic id when it is inserted, and the
/// cache records which OFM processes answered a request that shipped one
/// of its fragment plans (a PlanRef). A coordinator then names such a
/// plan by id to a recorded OFM instead of shipping it. The record lives
/// here, beside the immutable Entry, and goes with the entry on eviction
/// and invalidation; ids are never reused, so a coordinator still running
/// an evicted entry's plan cannot record or reuse anything.
class PlanCache {
 public:
  struct Key {
    std::string fingerprint;
    std::vector<std::string> params;

    bool operator<(const Key& other) const {
      if (fingerprint != other.fingerprint)
        return fingerprint < other.fingerprint;
      return params < other.params;
    }
  };

  /// What a hit restores in the coordinator: the split plan (immutable,
  /// shared across concurrent queries) plus the optimizer report EXPLAIN
  /// ANALYZE and bench stats surface.
  struct Entry {
    std::shared_ptr<const DistributedPlan> split;
    OptimizerReport optimizer_report;
    /// Set by Insert; 1, 2, ... in insertion order.
    uint64_t id = 0;
  };

  /// `capacity` bounds the entry count (FIFO eviction, deterministic);
  /// 0 disables the cache entirely (every Lookup misses, Insert drops).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Observability sink for query.plan_cache.{hit,miss,invalidate}
  /// (may stay null: no instrumentation).
  void AttachMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Returns the cached entry for `key`, or null (counted as hit/miss).
  std::shared_ptr<const Entry> Lookup(const Key& key);
  /// Lookup without counting: EXPLAIN ANALYZE profiles the plan a SELECT
  /// would run without moving the SELECT's hit rate.
  std::shared_ptr<const Entry> Peek(const Key& key) const;

  /// Publishes a freshly built plan under `key` at the current epoch and
  /// returns it with its id set; null when dropped (capacity 0, or a
  /// concurrent query already filled the key).
  std::shared_ptr<const Entry> Insert(const Key& key,
                                      std::shared_ptr<Entry> entry);

  /// Whether `ofm` answered a request that shipped `ref`'s plan.
  bool Resident(const PlanRef& ref, pool::ProcessId ofm) const;
  /// Records `ofm` as holding `ref`'s plan; ignored once the entry is gone.
  void NoteResident(const PlanRef& ref, pool::ProcessId ofm);
  /// Drops the record after `ofm` answered that it no longer holds the plan.
  void ForgetResident(const PlanRef& ref, pool::ProcessId ofm);

  /// Drops every entry and bumps the epoch. `reason` labels the
  /// invalidate metric ("ddl", "failover", "resync", ...).
  void Invalidate(const char* reason);

  uint64_t epoch() const { return epoch_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  const size_t capacity_;
  uint64_t epoch_ = 0;
  std::map<Key, std::shared_ptr<const Entry>> entries_;
  /// Live entries by id, in insertion order for FIFO eviction.
  std::map<uint64_t, Key> insert_order_;
  uint64_t next_id_ = 1;
  /// Residency records, ordered by entry id first so an entry's records
  /// erase as one range.
  std::set<std::pair<PlanRef, pool::ProcessId>> resident_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_PLAN_CACHE_H_
