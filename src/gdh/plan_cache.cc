#include "gdh/plan_cache.h"

#include <limits>
#include <utility>

#include "common/str_util.h"

namespace prisma::gdh {

namespace {

PlanCache::Key MakeKey(const std::string& fingerprint,
                       const std::vector<Value>& params,
                       const std::set<int>& slots) {
  PlanCache::Key key{fingerprint, {}};
  key.params.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Value& value = params[i];
    const bool slot = slots.contains(static_cast<int>(i));
    switch (value.type()) {
      case DataType::kInt64:
        key.params.push_back(
            slot ? "i:" : StrFormat("i:%lld", static_cast<long long>(
                                                  value.int_value())));
        break;
      case DataType::kDouble:
        key.params.push_back(
            slot ? "d:" : StrFormat("d:%.17g", value.double_value()));
        break;
      default:
        // A quote prefix: '2 is a string, never the number 2.
        key.params.push_back(slot ? "'" : "'" + value.string_value());
        break;
    }
  }
  return key;
}

}  // namespace

PlanCache::Key PlanCache::KeyFor(const std::string& fingerprint,
                                 const std::vector<Value>& params) const {
  auto shape = shapes_.find(fingerprint);
  if (shape == shapes_.end()) return MakeKey(fingerprint, params, {});
  return MakeKey(fingerprint, params, shape->second.slots);
}

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
    const std::string& fingerprint, std::vector<Value> params,
    std::shared_ptr<Entry> entry) {
  if (capacity_ == 0 || entry == nullptr || entry->split == nullptr) {
    return nullptr;
  }
  std::set<int> slots = SlotOrdinals(*entry->split);
  auto shape = shapes_.find(fingerprint);
  if (shape != shapes_.end() && shape->second.slots != slots) return nullptr;
  Key key = MakeKey(fingerprint, params, slots);
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
    auto evicted = shapes_.find(oldest->second.fingerprint);
    if (--evicted->second.entries == 0) shapes_.erase(evicted);
    entries_.erase(oldest->second);
    insert_order_.erase(oldest);
  }
  Shape& record = shapes_[fingerprint];
  record.slots = std::move(slots);
  ++record.entries;
  entry->params = std::move(params);
  entry->id = next_id_++;
  entries_.emplace(key, entry);
  insert_order_.emplace(entry->id, std::move(key));
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
  shapes_.clear();
  resident_.clear();
}

}  // namespace prisma::gdh
