#include "common/metrics_registry.h"

#include <algorithm>
#include <cstdio>

namespace treeserver {

uint64_t Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::min(std::max(p, 0.0), 1.0);
  const double rank = p * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) > rank) {
      // The true value lies in this bucket. The power-of-two buckets
      // double in width, so reporting the raw upper bound makes every
      // tail percentile collapse onto the max; interpolate linearly
      // within the bucket instead, assuming its samples are evenly
      // spread over [lower, min(upper, max)].
      const uint64_t lo = BucketLowerBound(i);
      const uint64_t hi = std::min(BucketUpperBound(i), max);
      const double frac =
          (rank - static_cast<double>(seen) + 1.0) /
          static_cast<double>(in_bucket);
      const uint64_t v =
          lo + static_cast<uint64_t>(frac * static_cast<double>(hi - lo));
      return std::min(v, max);
    }
    seen += in_bucket;
  }
  return max;
}

void Histogram::Snapshot::Merge(const Snapshot& other) {
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
  for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = Count();
  s.sum = Sum();
  s.max = Max();
  for (int i = 0; i < kNumBuckets; ++i) s.buckets[i] = bucket_count(i);
  return s;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;  // leaked
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

PeakGauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<PeakGauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kCounter;
    m.count = c->value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kGauge;
    m.value = g->value();
    m.peak = g->peak();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricSnapshot::Kind::kHistogram;
    m.histogram = h->snapshot();
    m.count = m.histogram.count;
    out.push_back(std::move(m));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

std::string MetricsRegistry::DumpText() const {
  std::string out;
  char buf[256];
  for (const MetricSnapshot& m : Snapshot()) {
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%-40s counter %llu\n",
                      m.name.c_str(),
                      static_cast<unsigned long long>(m.count));
        break;
      case MetricSnapshot::Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "%-40s gauge   %lld (peak %lld)\n",
                      m.name.c_str(), static_cast<long long>(m.value),
                      static_cast<long long>(m.peak));
        break;
      case MetricSnapshot::Kind::kHistogram:
        std::snprintf(
            buf, sizeof(buf),
            "%-40s histo   n=%llu mean=%.1f p50=%llu p99=%llu max=%llu\n",
            m.name.c_str(), static_cast<unsigned long long>(m.histogram.count),
            m.histogram.Mean(),
            static_cast<unsigned long long>(m.histogram.Percentile(0.50)),
            static_cast<unsigned long long>(m.histogram.Percentile(0.99)),
            static_cast<unsigned long long>(m.histogram.max));
        break;
    }
    out += buf;
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace treeserver
