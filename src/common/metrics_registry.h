#ifndef MTDB_COMMON_METRICS_REGISTRY_H_
#define MTDB_COMMON_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"

namespace mtdb {

/// A relaxed-atomic monotonic counter: the one sanctioned counter
/// primitive of the engine. Every concurrently-bumped statistic — named
/// registry series, LayoutStats fields, per-tenant fault tallies — uses
/// this type; CI rejects raw `std::atomic` counter members outside
/// src/common/ so the hot-path memory ordering stays in one place.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  /// For counters that hold a level (entries, bytes) rather than a total.
  void Sub(uint64_t delta) { v_.fetch_sub(delta, std::memory_order_relaxed); }
  Counter& operator++() {
    Add(1);
    return *this;
  }
  void operator++(int) { Add(1); }
  Counter& operator+=(uint64_t delta) {
    Add(delta);
    return *this;
  }

  /// Adds one and returns the new value (threshold checks).
  uint64_t IncrementAndGet() {
    return v_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Atomic-compatible spelling kept so call sites read like the
  /// std::atomic fields this type replaced.
  uint64_t load() const { return value(); }
  operator uint64_t() const { return value(); }

  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Fixed-bucket latency histogram (microseconds). Bucket bounds are a
/// 1-2-5 exponential ladder shared by every histogram in the registry so
/// snapshots merge and render uniformly; Record() is a relaxed atomic
/// bump of one bucket plus count/sum — safe from any thread.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 19;  // +1 overflow bucket
  /// Upper bounds (inclusive) in microseconds; values beyond the last
  /// bound land in the overflow bucket.
  static const std::array<uint64_t, kBuckets>& BucketBoundsUs();

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets + 1> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// Point-in-time copy of everything the registry knows, safe to pass
/// around, diff, or render. Counter entries cover both owned counters
/// and registered gauge callbacks (evaluated at snapshot time).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::vector<uint64_t> bounds_us;  // kBuckets bounds; last bucket = overflow
    std::vector<uint64_t> buckets;    // bounds_us.size() + 1 counts
    uint64_t count = 0;
    uint64_t sum_us = 0;
  };

  std::vector<CounterEntry> counters;      // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name
  /// Series requests refused because the registry hit its cardinality cap.
  uint64_t dropped_series = 0;

  /// Finds a counter value by exact name; 0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  const HistogramEntry* FindHistogram(const std::string& name) const;

  /// Renders the snapshot as a stable, pretty-printed JSON object
  /// (counters, histograms, dropped_series) — the `mtdb_stats` format.
  std::string ToJson() const;
};

/// The engine-wide metrics registry: named Counters and LatencyHistograms
/// created on first use, plus gauge callbacks that adapt pre-existing
/// counter structs (IoFaultCounters, DurabilityCounters, BufferPoolStats)
/// into the same namespace at snapshot time.
///
/// Hot path: GetCounter/GetHistogram take a small latch ONCE per series —
/// callers cache the returned pointer (stable for the registry's
/// lifetime; the maps are node-based) and afterwards bump it with a
/// single relaxed atomic add.
///
/// Cardinality is bounded: at most `max_series` distinct counters and
/// histograms (combined). Past the cap, lookups of NEW names return a
/// shared overflow series and `dropped_series` counts the refusals, so a
/// tenant-id explosion degrades a snapshot instead of memory.
class MetricsRegistry {
 public:
  static constexpr size_t kDefaultMaxSeries = 4096;

  explicit MetricsRegistry(size_t max_series = kDefaultMaxSeries);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it on first use. Never
  /// nullptr; at the cardinality cap the shared overflow counter comes
  /// back instead.
  Counter* GetCounter(const std::string& name);

  /// Returns the histogram named `name`, creating it on first use.
  LatencyHistogram* GetHistogram(const std::string& name);

  /// Registers a read-only gauge evaluated at Snapshot() time (how the
  /// I/O-fault and durability counter structs join the registry without
  /// moving). The callback must stay valid for the registry's lifetime
  /// and must not call back into the registry.
  void RegisterGauge(std::string name, std::function<uint64_t()> fn);

  /// Point-in-time snapshot. Gauges are evaluated outside the registry
  /// latch, so their callbacks may take component latches freely.
  MetricsSnapshot Snapshot() const;

  size_t max_series() const { return max_series_; }
  uint64_t dropped_series() const { return dropped_series_.value(); }

 private:
  const size_t max_series_;
  /// Leaf latch: held only for map lookups/inserts, never while calling
  /// out, so it can be taken from any statement context.
  mutable Latch mu_{LatchRank::kMetricsRegistry, "metrics-registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::vector<std::pair<std::string, std::function<uint64_t()>>> gauges_;
  Counter overflow_counter_;
  LatencyHistogram overflow_histogram_;
  Counter dropped_series_;
};

}  // namespace mtdb

#endif  // MTDB_COMMON_METRICS_REGISTRY_H_
