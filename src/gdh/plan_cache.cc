#include "gdh/plan_cache.h"

#include <limits>
#include <utility>

namespace prisma::gdh {

std::shared_ptr<const PlanCache::Entry> PlanCache::Lookup(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("query.plan_cache.miss")->Increment();
    }
    return nullptr;
  }
  ++hits_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("query.plan_cache.hit")->Increment();
  }
  return it->second;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Peek(const Key& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Insert(
    const Key& key, std::shared_ptr<Entry> entry) {
  if (capacity_ == 0 || entry == nullptr || entry->split == nullptr) {
    return nullptr;
  }
  // A concurrent query already filled it.
  if (entries_.count(key) > 0) return nullptr;
  while (entries_.size() >= capacity_) {
    auto oldest = insert_order_.begin();
    const uint64_t id = oldest->first;
    resident_.erase(
        resident_.lower_bound({PlanRef{id, 0, 0},
                               std::numeric_limits<pool::ProcessId>::min()}),
        resident_.lower_bound({PlanRef{id + 1, 0, 0},
                               std::numeric_limits<pool::ProcessId>::min()}));
    entries_.erase(oldest->second);
    insert_order_.erase(oldest);
  }
  entry->id = next_id_++;
  entries_.emplace(key, entry);
  insert_order_.emplace(entry->id, key);
  return entry;
}

bool PlanCache::Resident(const PlanRef& ref, pool::ProcessId ofm) const {
  return resident_.contains({ref, ofm});
}

void PlanCache::NoteResident(const PlanRef& ref, pool::ProcessId ofm) {
  if (insert_order_.contains(ref.entry)) resident_.insert({ref, ofm});
}

void PlanCache::ForgetResident(const PlanRef& ref, pool::ProcessId ofm) {
  resident_.erase({ref, ofm});
}

void PlanCache::Invalidate(const char* reason) {
  ++epoch_;
  if (entries_.empty()) return;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("query.plan_cache.invalidate",
                     {{"reason", reason}})
        ->Increment(entries_.size());
  }
  entries_.clear();
  insert_order_.clear();
  resident_.clear();
}

}  // namespace prisma::gdh
