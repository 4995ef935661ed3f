#ifndef PRISMA_OBS_METRICS_H_
#define PRISMA_OBS_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prisma::obs {

/// Label set attached to a metric instance ({"pe","3"}, {"fragment","emp#1"},
/// {"query","42"}, ...). Kept sorted by key so the same logical scope always
/// canonicalizes to the same registry entry.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event count (messages sent, tuples scanned, WAL records, ...).
class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (PE busy ns, pending events, resident tuples, ...).
class Gauge {
 public:
  void Set(int64_t value) { value_ = value; }
  void Add(int64_t delta) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Distribution of int64 samples (latencies in ns, message sizes in bits)
/// over exponential power-of-two buckets. Bucket i counts samples in
/// [2^(i-1), 2^i); bucket 0 counts samples <= 0 or == 1. The fixed bucket
/// layout keeps dumps byte-stable regardless of sample order.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t sample);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  int64_t mean() const { return count_ == 0 ? 0 : sum_ / static_cast<int64_t>(count_); }
  /// Upper bound of the bucket holding the q-th quantile (q in [0,1]),
  /// deterministic because buckets are fixed.
  int64_t ApproxQuantile(double q) const;

  const uint64_t* buckets() const { return buckets_; }

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// Registry of named metric instances. Every component of the simulated
/// machine registers its counters here (per-PE, per-OFM and per-query
/// scopes via labels); DumpText/DumpJson walk entries in canonical-name
/// order so two identical runs produce byte-identical output.
///
/// Get* calls are idempotent: the first call creates the instance, later
/// calls return the same pointer, which stays valid for the registry's
/// lifetime (components cache it off the hot path).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  Histogram* GetHistogram(std::string_view name, const Labels& labels = {});

  /// Value of a counter/gauge if it exists, else 0 (test convenience).
  uint64_t CounterValue(std::string_view name, const Labels& labels = {}) const;
  int64_t GaugeValue(std::string_view name, const Labels& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const Labels& labels = {}) const;

  /// Sum of all counters with this name across label sets (e.g. total
  /// tuples scanned over every OFM scope).
  uint64_t CounterTotal(std::string_view name) const;

  /// Canonical key: name{k=v,k=v} with labels sorted by key.
  static std::string Key(std::string_view name, const Labels& labels);

  /// One line per metric, sorted by canonical key.
  /// counter net.messages_sent 1234
  std::string DumpText() const;
  /// Same content as a deterministic JSON object.
  std::string DumpJson() const;

  size_t size() const { return entries_.size(); }
  void Reset() { entries_.clear(); }

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  // Counters and gauges live inline (map nodes never move, so the
  // pointers Get* hands out stay valid); only the 64-bucket histogram is
  // allocated separately.
  struct Entry {
    Kind kind;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& GetEntry(std::string_view name, const Labels& labels, Kind kind);

  std::map<std::string, Entry> entries_;
};

}  // namespace prisma::obs

#endif  // PRISMA_OBS_METRICS_H_
