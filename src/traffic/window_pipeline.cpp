// Timing TU: steady_clock reads here feed the obs stage and sweep
// duration histograms and the wall-clock timeout; no analysis result
// (histograms, ensembles, d_max) ever depends on the clock.  Listed in
// tools/timing_files.txt for palu_lint's determinism rule.
#include "palu/traffic/window_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <vector>

#include "palu/common/failpoint.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/obs/span.hpp"
#include "palu/parallel/parallel_for.hpp"
#include "palu/parallel/scratch_pool.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_source.hpp"

namespace palu::traffic {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Per-worker sweep scratch: one generator (edges + alias tables built
/// once, reseeded per window; absent on replay sweeps, which have no
/// graph), one arena-reused accumulator, and the arena-reused staging
/// buffers of whichever source feeds it.  Leased from a ScratchPool so
/// whatever worker picks up a chunk reuses an existing arena instead of
/// rebuilding per window.
struct SweepScratch {
  std::optional<SyntheticTrafficGenerator> gen;
  WindowAccumulator acc;
  std::vector<Packet> buf;                   // packet batch
  std::vector<EdgePacketCounts> pairs;       // counts/replay window records
  std::vector<EdgePacketCounts> export_buf;  // capture-tee staging
  std::vector<std::byte> io_buf;             // replay block bytes
};

constexpr std::size_t kPacketBatch = 8192;

/// One window's stage nanoseconds, observed into the stage histograms
/// only once the window has succeeded.
struct StageNs {
  std::uint64_t sampling = 0;
  std::uint64_t accumulation = 0;
  std::uint64_t binning = 0;
};

obs::Histogram& stage_histogram(obs::Registry& r, const char* path,
                                const char* stage) {
  return r.histogram(obs::names::kSweepStageDurationNs,
                     {{"path", path}, {"stage", stage}});
}

obs::Registry& registry_of(obs::Registry* metrics) {
  return metrics != nullptr ? *metrics : obs::default_registry();
}

/// Metric handles for one sweep call, resolved once against whichever
/// registry the options selected so the per-window hot path never touches
/// the registry's mutex.  Constructing it counts the run; the embedded
/// span times the whole call into palu_sweep_duration_ns.
struct SweepMetrics {
  obs::Counter& runs;
  obs::Counter& windows_completed;
  obs::Counter& windows_failed;
  obs::Counter& windows_skipped;
  obs::Counter& cancelled;
  obs::Counter& deadline_expired;
  obs::Counter& failpoint_trips;
  obs::Gauge& pool_threads;
  obs::Histogram& sweep_duration;
  obs::Histogram& stage_sampling;
  obs::Histogram& stage_accumulation;
  obs::Histogram& stage_binning;
  obs::TraceSpan sweep_span;

  SweepMetrics(obs::Registry& r, const ThreadPool& pool, const char* path)
      : runs(r.counter(obs::names::kSweepRuns)),
        windows_completed(r.counter(obs::names::kSweepWindows,
                                    {{"outcome", "completed"}})),
        windows_failed(
            r.counter(obs::names::kSweepWindows, {{"outcome", "failed"}})),
        windows_skipped(
            r.counter(obs::names::kSweepWindows, {{"outcome", "skipped"}})),
        cancelled(r.counter(obs::names::kSweepCancelled)),
        deadline_expired(r.counter(obs::names::kSweepDeadlineExpired)),
        failpoint_trips(r.counter(obs::names::kSweepFailpointTrips)),
        pool_threads(r.gauge(obs::names::kSweepPoolThreads)),
        sweep_duration(r.histogram(obs::names::kSweepDurationNs)),
        stage_sampling(stage_histogram(r, path, "sampling")),
        stage_accumulation(stage_histogram(r, path, "accumulation")),
        stage_binning(stage_histogram(r, path, "binning")),
        sweep_span(sweep_duration) {
    runs.inc();
    pool_threads.set(static_cast<std::int64_t>(pool.size()));
  }
};

// ---------------------------------------------------------------------
// Stage graph (DESIGN.md §5b).  Every window flows through
//
//   fill (draw or decode → accumulate) → bin   (inside one pool worker)
//                                         └→ reduce (serial, caller's thread)
//
// The fill functions below are the only per-source code: each leaves
// window t in scratch.acc, charging draws or decode to `sampling` and the
// records' entry into the accumulator to `accumulation`, and returns the
// per-pair records the window was built from (empty for packets).
// ---------------------------------------------------------------------

std::span<const EdgePacketCounts> fill_packets(SweepScratch& scratch,
                                               Count n_valid, StageNs& ns) {
  scratch.acc.begin_window();
  if (scratch.buf.size() < kPacketBatch) scratch.buf.resize(kPacketBatch);
  Count left = n_valid;
  while (left > 0) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<Count>(left, kPacketBatch));
    const auto t0 = Clock::now();
    scratch.gen->next_batch(std::span<Packet>(scratch.buf.data(), n));
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      scratch.acc.add(scratch.buf[i].src, scratch.buf[i].dst);
    }
    const auto t2 = Clock::now();
    ns.sampling += ns_between(t0, t1);
    ns.accumulation += ns_between(t1, t2);
    left -= n;
  }
  return {};
}

/// Accumulates the record-space window staged in scratch.pairs — the
/// shared entry of the counts and replay sources.
std::span<const EdgePacketCounts> ingest_pairs(SweepScratch& scratch,
                                               StageNs& ns) {
  const auto t0 = Clock::now();
  scratch.acc.begin_window();
  scratch.acc.ingest_counts(scratch.pairs);
  ns.accumulation += ns_between(t0, Clock::now());
  return scratch.pairs;
}

std::span<const EdgePacketCounts> fill_counts(SweepScratch& scratch,
                                              Count n_valid, StageNs& ns) {
  const auto t0 = Clock::now();
  scratch.gen->next_window_counts(n_valid, scratch.pairs);
  ns.sampling += ns_between(t0, Clock::now());
  return ingest_pairs(scratch, ns);
}

std::span<const EdgePacketCounts> fill_replay(WindowSource& source,
                                              std::size_t window,
                                              SweepScratch& scratch,
                                              StageNs& ns) {
  const auto t0 = Clock::now();
  source.read_window(window, scratch.io_buf, scratch.pairs);
  ns.sampling += ns_between(t0, Clock::now());
  return ingest_pairs(scratch, ns);
}

/// The sampled sweep core, shared by every source: window slots, the
/// failure budget, cancel/timeout, the capture tee, stage accounting and
/// the window-order reduce.  `fill(scratch, t, ns)` leaves window t in
/// scratch.acc and returns its per-pair records (empty for packets).
template <typename Fill>
WindowSweepResult sweep_core(std::size_t num_windows, Quantity quantity,
                             ThreadPool& pool, const SweepOptions& opts,
                             SweepMetrics& metrics,
                             ScratchPool<SweepScratch>::Factory make_scratch,
                             const Fill& fill) {
  // Per-window slots: exactly one of histogram / error is set afterwards;
  // neither set means the window was skipped (cancellation or timeout).
  //
  // Thread-safety invariant (checked by tsan_stress_test): each worker
  // writes only the slots for its own window indices, and the reduce loop
  // below reads them only after parallel_for has joined every chunk's
  // future, which establishes the necessary happens-before.  These vectors
  // therefore need no mutex; all cross-window signalling goes through the
  // atomics beneath them.
  std::vector<std::optional<stats::DegreeHistogram>> histograms(
      num_windows);
  std::vector<std::optional<std::string>> errors(num_windows);
  std::atomic<bool> stop_new_windows{false};
  std::atomic<bool> cancel_seen{false};
  std::atomic<bool> deadline_seen{false};
  std::atomic<std::uint64_t> failpoint_trips{0};

  const bool has_deadline = opts.timeout.count() > 0;
  // Computed only when a deadline is set: unconditionally adding a
  // duration::max()-class timeout to now() overflows the time_point
  // (signed-overflow UB).  Oversized budgets clamp to the clock's
  // horizon, which is indistinguishable from unlimited.
  Clock::time_point deadline{};
  if (has_deadline) {
    const auto now = Clock::now();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
    deadline = opts.timeout >= headroom ? Clock::time_point::max()
                                        : now + opts.timeout;
  }
  const auto should_stop = [&]() {
    if (stop_new_windows.load(std::memory_order_relaxed)) return true;
    if (opts.cancel != nullptr &&
        opts.cancel->load(std::memory_order_relaxed)) {
      cancel_seen.store(true, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
      deadline_seen.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };

  ScratchPool<SweepScratch> scratch(std::move(make_scratch));

  parallel_for(pool, 0, num_windows, /*grain=*/1, [&](IndexRange range) {
    auto lease = scratch.acquire();
    SweepScratch& sc = *lease;
    for (std::size_t t = range.begin; t < range.end; ++t) {
      if (should_stop()) break;  // leave the remaining slots unset
      try {
        PALU_FAILPOINT("traffic.sweep_window");
        StageNs ns;
        std::span<const EdgePacketCounts> records = fill(sc, t, ns);
        const auto b0 = Clock::now();
        stats::DegreeHistogram h = sc.acc.histogram(quantity);
        if (opts.capture != nullptr) {
          // Tee the accumulated window before the reduce: record-space
          // windows hand over their records as drawn (the sink drops zero
          // rows), packet windows export the accumulator's cells.
          // Capture I/O is charged to binning — it is an output stage.
          if (records.empty()) {
            sc.export_buf.clear();
            sc.acc.export_counts(sc.export_buf);
            records = sc.export_buf;
          }
          opts.capture->append(t, sc.acc.total(), records);
        }
        histograms[t] = std::move(h);
        ns.binning = ns_between(b0, Clock::now());
        // One observation per successful window; a failed window records
        // nothing, so each stage's count equals the result's `windows`.
        metrics.stage_sampling.observe(ns.sampling);
        metrics.stage_accumulation.observe(ns.accumulation);
        metrics.stage_binning.observe(ns.binning);
      } catch (const std::exception& e) {
        if (failpoints::is_failpoint_error(e)) {
          failpoint_trips.fetch_add(1, std::memory_order_relaxed);
        }
        errors[t] = e.what();
        if (opts.max_failed_windows == 0) {
          // Strict mode: no point producing more windows for a sweep
          // that is already lost.
          stop_new_windows.store(true, std::memory_order_relaxed);
        }
      }
    }
  });

  WindowSweepResult out;
  for (std::size_t t = 0; t < num_windows; ++t) {
    if (errors[t]) {
      out.failures.push_back(WindowFailure{t, std::move(*errors[t])});
    } else if (!histograms[t]) {
      ++out.windows_skipped;
    } else {
      const stats::DegreeHistogram& h = *histograms[t];
      out.max_value = std::max(out.max_value, h.max_degree());
      out.ensemble.add(stats::LogBinned::from_histogram(h));
      out.merged.merge(h);
      ++out.windows;
    }
  }
  out.cancelled = out.windows_skipped > 0;

  // Record window dispositions and stop causes before the strict/budget
  // throw below, so metrics describe failed sweeps too.
  metrics.windows_completed.inc(out.windows);
  metrics.windows_failed.inc(out.failures.size());
  metrics.windows_skipped.inc(out.windows_skipped);
  metrics.failpoint_trips.inc(
      failpoint_trips.load(std::memory_order_relaxed));
  if (cancel_seen.load(std::memory_order_relaxed)) metrics.cancelled.inc();
  if (deadline_seen.load(std::memory_order_relaxed)) {
    metrics.deadline_expired.inc();
  }

  if (out.failures.size() > opts.max_failed_windows) {
    // Strict mode rethrows the lowest-index failure as is; a tolerant
    // sweep names it and the exhausted budget.
    const WindowFailure& first = out.failures.front();
    std::string what = first.error;
    if (opts.max_failed_windows > 0) {
      what += " (" + std::to_string(out.failures.size()) +
              " windows failed, budget " +
              std::to_string(opts.max_failed_windows) + ")";
    }
    throw SweepWindowError(first.window, what);
  }
  return out;
}

}  // namespace

WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool,
                                const SweepOptions& opts) {
  PALU_CHECK(n_valid >= 1, "sweep_windows: need at least one packet");
  PALU_CHECK(num_windows >= 1, "sweep_windows: need at least one window");
  const bool counts = opts.synthesis == SynthesisMode::kMultinomial;
  SweepMetrics metrics(registry_of(opts.metrics), pool,
                       counts ? "counts" : "fast");

  const Rng base(seed);
  // One shared traffic matrix: every window sees the same long-term
  // per-edge rates; only the packet draws differ between windows.
  const std::vector<double> shared_rates =
      make_edge_rates(underlying, rates, base.fork(0));
  // Each scratch slot pays the edge copy and alias-table build once (the
  // counts support adds itself lazily on a slot's first counts window)
  // and is reseeded per window: window t draws from fork(seed, t + 1).
  auto make_scratch = [&underlying, &shared_rates]() {
    auto s = std::make_unique<SweepScratch>();
    s->gen.emplace(underlying, shared_rates, Rng(0));
    return s;
  };
  return sweep_core(num_windows, quantity, pool, opts, metrics,
                    make_scratch,
                    [&](SweepScratch& s, std::size_t t, StageNs& ns) {
                      s.gen->reseed(base.fork(t + 1));
                      return counts ? fill_counts(s, n_valid, ns)
                                    : fill_packets(s, n_valid, ns);
                    });
}

WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool) {
  return sweep_windows(underlying, rates, n_valid, num_windows, quantity,
                       seed, pool, SweepOptions{});
}

WindowSweepResult sweep_windows(WindowSource& source,
                                std::size_t num_windows, Quantity quantity,
                                ThreadPool& pool, const SweepOptions& opts) {
  PALU_CHECK(opts.capture == nullptr,
             "sweep_windows: capture does not compose with replay (the "
             "windows are already stored)");
  PALU_CHECK(num_windows <= source.num_windows(),
             "sweep_windows: replay source holds fewer windows than "
             "requested");
  PALU_CHECK(num_windows >= 1, "sweep_windows: need at least one window");
  SweepMetrics metrics(registry_of(opts.metrics), pool, "replay");
  return sweep_core(
      num_windows, quantity, pool, opts, metrics,
      [] { return std::make_unique<SweepScratch>(); },
      [&source](SweepScratch& s, std::size_t t, StageNs& ns) {
        return fill_replay(source, t, s, ns);
      });
}

ExpectedWindow evaluate_expected_window(const graph::Graph& underlying,
                                        const RateModel& rates,
                                        Count n_valid, Quantity quantity,
                                        std::uint64_t seed,
                                        obs::Registry* metrics) {
  PALU_CHECK(n_valid >= 1,
             "evaluate_expected_window: need at least one packet");
  obs::Registry& registry = registry_of(metrics);
  SyntheticTrafficGenerator gen(
      underlying, make_edge_rates(underlying, rates, Rng(seed).fork(0)),
      Rng(0));
  ExpectedWindowEvaluator eval(gen.pair_support());
  {
    // The visibility pass is the analytic analogue of sampling, the
    // marginal folding that of accumulation.
    obs::TraceSpan span(stage_histogram(registry, "expected", "sampling"));
    eval.prepare(n_valid);
  }
  obs::TraceSpan span(stage_histogram(registry, "expected", "accumulation"));
  return eval.evaluate(quantity);
}

}  // namespace palu::traffic
