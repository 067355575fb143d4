#include "palu/obs/metrics.hpp"

// palu-lint: allow-file(hot-path-registration)
// preregister_palu_metrics exists to pay every name-lookup once, at
// startup, so scrapes see stable series from the first export; its
// registration loops are the one place where looking metrics up by name
// inside a loop is the point rather than a hot-path bug.

#include <bit>

#include "palu/common/error.hpp"
#include "palu/obs/names.hpp"

namespace palu::obs {

std::uint32_t Histogram::bucket_index(std::uint64_t v) noexcept {
  if (v <= 1) return 0;
  const auto i = static_cast<std::uint32_t>(std::bit_width(v - 1));
  return i < kNumBuckets ? i : kNumBuckets - 1;
}

std::uint64_t Histogram::bucket_upper(std::uint32_t i) noexcept {
  return std::uint64_t{1} << i;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

bool name_start_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool name_char(char c) noexcept {
  return name_start_char(c) || (c >= '0' && c <= '9');
}

// Renders labels into the series key: name{k="v",...}.  Values are kept
// verbatim here (the key only needs to be injective); exporters escape.
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) key += ',';
    key += labels[i].first;
    key += "=\"";
    key += labels[i].second;
    key += '"';
  }
  key += '}';
  return key;
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty() || !name_start_char(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!name_char(c)) return false;
  }
  return true;
}

bool valid_label_name(std::string_view key) noexcept {
  if (key.empty() || key[0] == ':' || !name_start_char(key[0])) return false;
  for (char c : key.substr(1)) {
    if (c == ':' || !name_char(c)) return false;
  }
  return true;
}

Registry::Series& Registry::find_or_create(Kind kind, std::string_view name,
                                           const Labels& labels,
                                           std::string_view help) {
  if (!valid_metric_name(name)) {
    throw InvalidArgument("obs: invalid metric name '" + std::string(name) +
                          "'");
  }
  for (const auto& [key, value] : labels) {
    (void)value;
    if (!valid_label_name(key)) {
      throw InvalidArgument("obs: invalid label name '" + key + "' on '" +
                            std::string(name) + "'");
    }
  }
  std::string key = series_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [kind_it, kind_inserted] =
      kind_by_name_.emplace(std::string(name), kind);
  if (!kind_inserted && kind_it->second != kind) {
    throw InvalidArgument("obs: metric '" + std::string(name) +
                          "' already registered with a different kind");
  }
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.kind = kind;
    s.name = std::string(name);
    s.labels = labels;
    switch (kind) {
      case Kind::kCounter:
        s.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        s.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        s.histogram = std::make_unique<Histogram>();
        break;
    }
    it = series_.emplace(std::move(key), std::move(s)).first;
  }
  if (!help.empty()) {
    help_.emplace(std::string(name), std::string(help));
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, const Labels& labels,
                           std::string_view help) {
  return *find_or_create(Kind::kCounter, name, labels, help).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels,
                       std::string_view help) {
  return *find_or_create(Kind::kGauge, name, labels, help).gauge;
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels,
                               std::string_view help) {
  return *find_or_create(Kind::kHistogram, name, labels, help).histogram;
}

RegistrySnapshot Registry::snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, s] : series_) {
    (void)key;
    switch (s.kind) {
      case Kind::kCounter:
        snap.counters.push_back({s.name, s.labels, s.counter->value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({s.name, s.labels, s.gauge->value()});
        break;
      case Kind::kHistogram: {
        HistogramSample h;
        h.name = s.name;
        h.labels = s.labels;
        h.count = s.histogram->count();
        h.sum = s.histogram->sum();
        std::uint32_t last = 0;
        for (std::uint32_t i = 0; i < Histogram::kNumBuckets; ++i) {
          if (s.histogram->bucket_count(i) > 0) last = i + 1;
        }
        h.buckets.reserve(last);
        for (std::uint32_t i = 0; i < last; ++i) {
          h.buckets.push_back(s.histogram->bucket_count(i));
        }
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  snap.help = help_;
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, s] : series_) {
    (void)key;
    switch (s.kind) {
      case Kind::kCounter:
        s.counter->reset();
        break;
      case Kind::kGauge:
        s.gauge->reset();
        break;
      case Kind::kHistogram:
        s.histogram->reset();
        break;
    }
  }
}

std::size_t Registry::num_series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

Registry& default_registry() {
  static Registry registry;
  return registry;
}

void preregister_palu_metrics(Registry& r) {
  static constexpr const char* kReaders[] = {"read_trace", "read_edge_list",
                                             "read_histogram_csv"};
  static constexpr const char* kLineOutcomes[] = {"kept", "repaired",
                                                  "dropped"};
  for (const char* reader : kReaders) {
    r.counter(names::kIngestReads, {{"reader", reader}},
              "Calls into a policy-aware reader");
    for (const char* outcome : kLineOutcomes) {
      r.counter(names::kIngestLines, {{"reader", reader}, {"outcome", outcome}},
                "Per-line ingest dispositions");
    }
    r.counter(names::kIngestBudgetExhausted, {{"reader", reader}},
              "Reads aborted after exhausting max_bad_lines");
  }

  r.counter(names::kSweepRuns, {}, "sweep_windows invocations");
  for (const char* outcome : {"completed", "failed", "skipped"}) {
    r.counter(names::kSweepWindows, {{"outcome", outcome}},
              "Per-window sweep dispositions");
  }
  r.counter(names::kSweepCancelled, {}, "Sweeps that observed cancellation");
  r.counter(names::kSweepDeadlineExpired, {},
            "Sweeps that hit their wall-clock deadline");
  r.counter(names::kSweepFailpointTrips, {},
            "Window failures caused by an armed failpoint");
  r.gauge(names::kSweepPoolThreads, {},
          "Worker count of the pool driving the most recent sweep");
  for (const char* path : {"fast", "counts", "replay"}) {
    for (const char* stage : {"sampling", "accumulation", "binning"}) {
      r.histogram(names::kSweepStageDurationNs,
                  {{"path", path}, {"stage", stage}},
                  "Per-window CPU nanoseconds spent in each sweep stage");
    }
  }
  for (const char* stage : {"sampling", "accumulation"}) {
    r.histogram(names::kSweepStageDurationNs,
                {{"path", "expected"}, {"stage", stage}},
                "Per-window CPU nanoseconds spent in each sweep stage");
  }
  r.histogram(names::kSweepDurationNs, {},
              "End-to-end wall nanoseconds per sweep_windows call");

  for (const char* stage : {"levmar", "nelder-mead", "moments"}) {
    r.counter(names::kFitStageAttempts, {{"stage", stage}},
              "Optimizer attempts per fit-ladder stage");
    r.counter(names::kFitStageSuccess, {{"stage", stage}},
              "Accepted results per fit-ladder stage");
    r.histogram(names::kFitStageIterations, {{"stage", stage}},
                "Iterations consumed per fit-ladder attempt");
  }
  for (const char* stage : {"levmar", "nelder-mead", "moments", "failed"}) {
    r.counter(names::kFitResults, {{"stage", stage}},
              "Fit-ladder rung each robust_fit_palu call returned from");
  }
  r.counter(names::kFitBaseRetries, {},
            "Base-fit retries during tail relaxation in robust_fit_palu");

  r.counter(names::kIngestReads, {{"reader", "trace_tail"}},
            "Calls into a policy-aware reader");
  for (const char* outcome : {"kept", "repaired", "dropped"}) {
    r.counter(names::kIngestLines,
              {{"reader", "trace_tail"}, {"outcome", outcome}},
              "Per-line ingest dispositions");
  }
  r.counter(names::kIngestBudgetExhausted, {{"reader", "trace_tail"}},
            "Reads aborted after exhausting max_bad_lines");

  r.counter(names::kStoreBlocksWritten, {},
            "Window blocks appended by capture writers");
  r.counter(names::kStoreBytesWritten, {},
            "Bytes written by capture writers");
  r.counter(names::kStoreBlocksRead, {},
            "Window blocks read and decoded by replay readers");
  r.counter(names::kStoreBytesRead, {}, "Bytes read by replay readers");
  r.counter(names::kStoreChecksumFailures, {},
            "Blocks or manifests rejected for a bad magic, size, or "
            "checksum");
  r.counter(names::kStoreTornTails, {},
            "Store opens that met a torn tail (missing/corrupt manifest)");
  r.histogram(names::kStoreDecodeNs, {},
              "Per-block varint/delta decode nanoseconds on the replay "
              "path");

  r.counter(names::kServePackets, {},
            "Packets admitted into the serve window accumulator");
  r.counter(names::kServeWindowsFitted, {},
            "Window boundaries processed by the serve daemon");
  r.counter(names::kServeWindowsStale, {},
            "Windows whose tumbling lane degraded to stale parameters");
  r.counter(names::kServeDeadlineMisses, {},
            "Windows served from the previous fit after a deadline miss");
  r.gauge(names::kServeQueueDepth, {},
          "Records currently queued between ingest and fit");
  for (const char* policy : {"drop-oldest", "drop-newest"}) {
    r.counter(names::kServeQueueDropped, {{"policy", policy}},
              "Records shed by the queue backpressure policy");
  }
  for (const char* stage : {"ingest", "fit"}) {
    r.counter(names::kServeStageRestarts, {{"stage", stage}},
              "Supervised serve stage restarts");
  }
  r.counter(names::kServeCheckpointWrites, {},
            "Checkpoints written successfully");
  r.counter(names::kServeCheckpointFailures, {},
            "Checkpoint writes that failed (service kept running)");
  r.gauge(names::kServeCheckpointAge, {},
          "Window boundaries since the last successful checkpoint");
  for (const char* outcome : {"ok", "failed"}) {
    r.counter(names::kServeRestores, {{"outcome", outcome}},
              "Checkpoint restore attempts at serve startup");
  }
  r.gauge(names::kServeStaleness, {},
          "Consecutive windows the tumbling lane has been stale");
  r.counter(names::kServeSnapshotWrites, {},
            "Metrics snapshot files written by the serve daemon");
}

}  // namespace palu::obs
