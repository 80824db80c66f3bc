#ifndef TREESERVER_COMMON_METRICS_REGISTRY_H_
#define TREESERVER_COMMON_METRICS_REGISTRY_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace treeserver {

/// Lock-free log-bucketed histogram for long-tailed engine quantities:
/// task latencies, message payload sizes, B_plan depth samples.
///
/// Bucket 0 holds the value 0; bucket i (1..64) holds values in
/// [2^(i-1), 2^i - 1]. Add() is three relaxed atomic increments plus a
/// CAS max-update, safe for concurrent use from any thread.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  /// Bucket index for a value (0 for 0, else bit width).
  static int BucketIndex(uint64_t v) {
    return v == 0 ? 0 : std::bit_width(v);
  }
  /// Smallest value the bucket holds.
  static uint64_t BucketLowerBound(int i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }
  /// Largest value the bucket holds.
  static uint64_t BucketUpperBound(int i) {
    if (i == 0) return 0;
    if (i >= 64) return ~uint64_t{0};
    return (uint64_t{1} << i) - 1;
  }

  void Add(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t max = max_.load(std::memory_order_relaxed);
    while (v > max &&
           !max_.compare_exchange_weak(max, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }
  uint64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  /// Consistent-enough copy for reporting (individual loads are atomic;
  /// the set is not a linearizable snapshot, fine for stats).
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t buckets[kNumBuckets] = {};

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
    /// Percentile estimate (upper bound of the bucket holding rank p).
    uint64_t Percentile(double p) const;
    /// Accumulates another snapshot (e.g. merging per-worker histograms).
    void Merge(const Snapshot& other);
  };
  Snapshot snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// One named metric's current value, for structured reporting.
struct MetricSnapshot {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  uint64_t count = 0;           // counter value / histogram count
  int64_t value = 0;            // gauge current
  int64_t peak = 0;             // gauge peak
  Histogram::Snapshot histogram;  // kHistogram only
};

/// Named registry of engine metrics. Get*() returns a stable pointer
/// valid for the registry's lifetime — instrument once, hold the
/// pointer, never pay the map lookup on the hot path. A process-wide
/// instance lives at MetricsRegistry::Global(); subsystems may also own
/// private registries (one per simulated cluster, say).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  PeakGauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Structured values of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Human-readable one-metric-per-line dump.
  std::string DumpText() const;

  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<PeakGauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace treeserver

#endif  // TREESERVER_COMMON_METRICS_REGISTRY_H_
