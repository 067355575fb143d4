// palu::obs — a lock-cheap metrics registry for the production pipeline.
//
// The paper's analysis is meant to run continuously over live trunk
// captures, so every hot layer (ingest, window sweeps, the fit ladder)
// records what it did into a Registry: monotone Counters, settable
// Gauges, and latency Histograms with fixed binary-log buckets — the same
// d_i = 2^i pooling idiom the paper uses for degree distributions
// (stats::LogBinned), applied to nanosecond durations and iteration
// counts.
//
// Concurrency contract: registration (name → metric object) takes a
// mutex and is expected once per call site, typically hoisted out of the
// hot loop; recording (inc / set / observe) is a relaxed atomic op per
// event, safe from any thread, and never allocates.  Metric references
// returned by the registry stay valid for the registry's lifetime.
//
// Determinism contract: the registry never reads a clock — durations
// enter it only through obs::TraceSpan (src/obs/span.cpp, the one
// lint-allowlisted timing file of the subsystem) or through values the
// caller already holds.  No analysis result ever depends on a metric.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "palu/common/thread_annotations.hpp"

namespace palu::obs {

/// Metric labels: (key, value) pairs, Prometheus-style.  Keys must match
/// [a-zA-Z_][a-zA-Z0-9_]*; values are free-form (escaped on export).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (pool sizes, configured budgets).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency/size histogram on binary-log edges: bucket 0
/// holds v <= 1 and bucket i holds v in (2^{i-1}, 2^i], mirroring
/// stats::LogBinned.  The top bucket (i = 63) saturates: it also absorbs
/// every value past 2^63, so no observation can fall outside the array.
class Histogram {
 public:
  static constexpr std::uint32_t kNumBuckets = 64;

  /// Bucket index of `v` under the saturating log2 layout above.
  static std::uint32_t bucket_index(std::uint64_t v) noexcept;

  /// Inclusive upper edge 2^i of bucket i (i < 64).  The top bucket's
  /// nominal edge understates its contents by design (saturation).
  static std::uint64_t bucket_upper(std::uint32_t i) noexcept;

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::uint32_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// ------------------------------------------------------------ snapshots
//
// A snapshot is a plain-data copy of every registered series, sorted by
// (name, labels) so two registries fed identical event streams produce
// byte-identical snapshots — the property the sweep tests' pinned metric
// trails rely on.

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
  bool operator==(const CounterSample&) const = default;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  std::int64_t value = 0;
  bool operator==(const GaugeSample&) const = default;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Per-bucket (non-cumulative) counts, trimmed after the last
  /// non-empty bucket; bucket i spans (2^{i-1}, 2^i].
  std::vector<std::uint64_t> buckets;
  bool operator==(const HistogramSample&) const = default;
};

struct RegistrySnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  /// name → help text for the exporters.
  std::map<std::string, std::string> help;
};

// ------------------------------------------------------------- registry

/// Named metric store.  `counter`/`gauge`/`histogram` find-or-create the
/// series for (name, labels) and return a stable reference; re-requesting
/// an existing series with a different metric kind throws
/// palu::InvalidArgument, as does a name or label key that is not valid
/// under the Prometheus exposition grammar.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name, const Labels& labels = {},
                   std::string_view help = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {},
               std::string_view help = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::string_view help = {});

  /// Consistent point-in-time copy of every series (values are read with
  /// relaxed loads; each series is internally consistent, the set is
  /// whatever has been recorded when the snapshot walks it).
  RegistrySnapshot snapshot() const;

  /// Zeroes every value, keeping all registrations (test/bench isolation
  /// between runs without invalidating cached references).
  void reset_values();

  std::size_t num_series() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& find_or_create(Kind kind, std::string_view name,
                         const Labels& labels, std::string_view help)
      PALU_EXCLUDES(mutex_);

  mutable std::mutex mutex_;
  /// Keyed by name + rendered labels; std::map keeps snapshots sorted
  /// and node-based storage keeps Series addresses stable.
  std::map<std::string, Series> series_ PALU_GUARDED_BY(mutex_);
  std::map<std::string, std::string> help_ PALU_GUARDED_BY(mutex_);
  std::map<std::string, Kind> kind_by_name_ PALU_GUARDED_BY(mutex_);
};

/// Process-wide default sink.  Instrumented layers record here unless an
/// options struct routes them to a caller-owned registry.
Registry& default_registry();

/// True iff `name` matches the Prometheus metric-name grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*.
bool valid_metric_name(std::string_view name) noexcept;

/// True iff `key` matches the label-name grammar [a-zA-Z_][a-zA-Z0-9_]*.
bool valid_label_name(std::string_view key) noexcept;

}  // namespace palu::obs
