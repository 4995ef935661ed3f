#include "obs/metrics.h"

#include "common/logging.h"
#include "common/str_util.h"

namespace prisma::obs {

void Histogram::Record(int64_t sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  int bucket = 0;
  if (sample > 1) {
    // Index of the highest set bit, +1: sample in [2^(b-1), 2^b).
    bucket = 64 - __builtin_clzll(static_cast<uint64_t>(sample) - 1);
    bucket = std::min(bucket, kBuckets - 1);
  }
  ++buckets_[bucket];
}

int64_t Histogram::ApproxQuantile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      return i == 0 ? 1 : (int64_t{1} << i);
    }
  }
  return max_;
}

std::string MetricsRegistry::Key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (!labels.empty()) {
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    key += '{';
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) key += ',';
      key += sorted[i].first;
      key += '=';
      key += sorted[i].second;
    }
    key += '}';
  }
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  const Labels& labels,
                                                  Kind kind) {
  auto [it, inserted] = entries_.try_emplace(Key(name, labels));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    if (kind == Kind::kHistogram) {
      entry.histogram = std::make_unique<Histogram>();
    }
  }
  PRISMA_CHECK(entry.kind == kind)
      << "metric " << it->first << " re-registered with a different kind";
  return entry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return &GetEntry(name, labels, Kind::kCounter).counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return &GetEntry(name, labels, Kind::kGauge).gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const Labels& labels) {
  return GetEntry(name, labels, Kind::kHistogram).histogram.get();
}

uint64_t MetricsRegistry::CounterValue(std::string_view name,
                                       const Labels& labels) const {
  auto it = entries_.find(Key(name, labels));
  if (it == entries_.end() || it->second.kind != Kind::kCounter) return 0;
  return it->second.counter.value();
}

int64_t MetricsRegistry::GaugeValue(std::string_view name,
                                    const Labels& labels) const {
  auto it = entries_.find(Key(name, labels));
  if (it == entries_.end() || it->second.kind != Kind::kGauge) return 0;
  return it->second.gauge.value();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name,
                                                const Labels& labels) const {
  auto it = entries_.find(Key(name, labels));
  if (it == entries_.end() || it->second.kind != Kind::kHistogram) {
    return nullptr;
  }
  return it->second.histogram.get();
}

uint64_t MetricsRegistry::CounterTotal(std::string_view name) const {
  uint64_t total = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.kind != Kind::kCounter) continue;
    // Match "name" exactly or "name{...}".
    if (key.size() < name.size() ||
        std::string_view(key).substr(0, name.size()) != name) {
      continue;
    }
    if (key.size() != name.size() && key[name.size()] != '{') continue;
    total += entry.counter.value();
  }
  return total;
}

std::string MetricsRegistry::DumpText() const {
  std::string out;
  for (const auto& [key, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        out += StrFormat("counter %s %llu\n", key.c_str(),
                         static_cast<unsigned long long>(
                             entry.counter.value()));
        break;
      case Kind::kGauge:
        out += StrFormat("gauge %s %lld\n", key.c_str(),
                         static_cast<long long>(entry.gauge.value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += StrFormat(
            "histogram %s count=%llu sum=%lld min=%lld max=%lld p50=%lld "
            "p99=%lld\n",
            key.c_str(), static_cast<unsigned long long>(h.count()),
            static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
            static_cast<long long>(h.max()),
            static_cast<long long>(h.ApproxQuantile(0.5)),
            static_cast<long long>(h.ApproxQuantile(0.99)));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::string out = "{";
  bool first = true;
  auto emit_key = [&](const std::string& key) {
    if (!first) out += ',';
    first = false;
    out += '"';
    for (const char c : key) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += "\":";
  };
  for (const auto& [key, entry] : entries_) {
    emit_key(key);
    switch (entry.kind) {
      case Kind::kCounter:
        out += StrFormat("%llu", static_cast<unsigned long long>(
                                     entry.counter.value()));
        break;
      case Kind::kGauge:
        out += StrFormat("%lld",
                         static_cast<long long>(entry.gauge.value()));
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += StrFormat(
            "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld}",
            static_cast<unsigned long long>(h.count()),
            static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
            static_cast<long long>(h.max()));
        break;
      }
    }
  }
  out += '}';
  return out;
}

}  // namespace prisma::obs
