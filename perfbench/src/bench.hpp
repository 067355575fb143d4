// Shared harness of palu_perfbench: run configuration, input sizes, the
// timed-pass loop, the outcome record every workload fills, and the span
// tracer behind the traced run.
//
// Every timing in the benchmark is taken here, around calls into the
// library's public API; nothing under src/ or include/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "palu/palu.hpp"

namespace perfbench {

using palu::Count;
using palu::NodeId;

// ------------------------------------------------------------------ clocks

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
std::int64_t now_ns();
/// Process CPU seconds (user + system, all threads).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();

/// Whole-host CPU clock ticks from /proc/stat (zero when unreadable).
struct HostTicks {
  std::uint64_t steal = 0;  // taken by the hypervisor from this VM
  std::uint64_t total = 0;
};
HostTicks host_ticks();
/// Share of all CPU time between two readings that the hypervisor stole,
/// in percent; -1 when the readings are unusable.
double steal_pct(const HostTicks& from, const HostTicks& to);

// --------------------------------------------------------------- statistics

double median(std::vector<double> v);
/// Percentile p ∈ [0, 100] with linear interpolation between order
/// statistics (the "inclusive" definition).
double percentile(std::vector<double> v, double p);

// ------------------------------------------------------------ configuration

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Pinned worker count of every ThreadPool the benchmark builds.
  std::size_t pool_threads = 1;
};

/// Scratch directory inside the checkout (stores, Chrome traces).
inline const std::string kWorkDir = ".perfbench_work";

/// Input sizes of one run; --smoke shrinks every one of them.
struct Sizes {
  NodeId nodes = 150000;
  Count sweep_nv = 1000000;
  /// Independent inputs each pass of a batch workload covers (rate draws,
  /// and the stores captured from them), so that a run's figures average
  /// over several inputs instead of riding on one.
  std::size_t subseeds = 2;         // replay stores, expected evaluators
  std::size_t sweep_subseeds = 4;   // sweep_counts calls per pass
  std::size_t sweep_windows = 32;   // per sweep call (one per sub-seed)
  std::size_t replay_windows = 8;   // per store (one per sub-seed)
  std::size_t check_windows = 32;   // CLT check ensemble
  Count serve_nv = 100000;
  std::size_t serve_windows = 8;    // full windows per serve pass
  std::vector<Count> expected_ladder{100000, 1000000, 10000000};
  /// Set-ups per run: at least setup_repeats, more while they add up to
  /// less than setup_min_s (so a cheap set-up gets a median over many),
  /// at most setup_max_repeats.
  std::size_t setup_repeats = 5;
  double setup_min_s = 2.0;
  std::size_t setup_max_repeats = 25;
  std::size_t min_passes = 3;       // timed passes, beyond the warm-up
  std::size_t latency_floor = 100;  // serve publish samples per run
  std::size_t probe_windows = 2;    // traced probes of other workloads
};

Sizes sizes_for(const Config& cfg);

/// Seed of input r within a run: Rng(seed).fork(1000 + r)().
std::uint64_t sub_seed(std::uint64_t seed, std::size_t r);

/// The bench graph: bench_sweep's PALU network (solve_hubs(6, 0.35, 0.2,
/// 2.3, 1), graph seed 17), fixed so that runs differ only in the streams
/// drawn over it.
palu::core::UnderlyingNetwork build_graph(const Sizes& sizes);

// ------------------------------------------------------------------ outcome

/// Unit of every metric the benchmark can print, by name.
const char* unit_of(const std::string& metric);

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Publish-latency samples (ms): one per published window (serve) or
  /// per call (the batch workloads).
  std::vector<double> publish_ms;

  /// Records a correctness check; a failing one prints why and clears
  /// `correct`.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

// -------------------------------------------------------------- timed passes

/// One timed pass: its wall and CPU time and the windows it completed.
struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t windows = 0;
};

/// Runs `body` once and measures wall and process CPU around it.
PassSample time_pass(std::size_t windows, const std::function<void()>& body);

struct PassSeries {
  PassSample warmup;               // the discarded first pass
  std::vector<PassSample> passes;  // timed passes (warm-up excluded)
  double windows_per_s() const;      // median over passes
  double cpu_ms_per_window() const;  // median over passes
};

/// One discarded warm-up pass, then passes until `seconds` have elapsed
/// and at least `min_passes` ran and `more()` (if set) returns false.
PassSeries run_passes(double seconds, std::size_t min_passes,
                      const std::function<PassSample()>& pass,
                      const std::function<bool()>& more = {});

// ------------------------------------------------------------------- tracing

/// In-memory span recorder: one record per timed public call, written out
/// at exit as Chrome trace-event JSON (viewable in Perfetto).
class Tracer {
 public:
  /// Track id of spans that re-run a call outside its parent's interval
  /// (the fit replays attributed to core.refit_window).
  static constexpr std::uint32_t kReplayTrack = 1000;

  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: root
    std::uint32_t track = 0;   // thread (or kReplayTrack)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span around one call on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  Scope scope(const char* name, std::uint64_t parent = 0) {
    return Scope(*this, name, parent);
  }
  /// Records an already-timed span; returns its id.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint32_t track, std::int64_t start_ns,
                       std::int64_t end_ns);
  std::vector<Span> spans() const;
  void clear();
  /// Chrome trace-event JSON ("X" events, µs); returns false on I/O error.
  static bool write_chrome(const std::vector<Span>& spans,
                           const std::string& path);

 private:
  std::uint64_t next_id();
  static std::uint32_t this_track();

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t last_id_ = 0;  // guarded by mutex_
};

/// Per-name aggregate of span times.  A span's self time is its duration
/// minus its children's durations.
struct LayerStat {
  std::size_t calls = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  std::vector<double> each_ms;  // self time per call
  std::vector<double> wall_ms;  // inclusive duration per call
  double median_ms() const { return median(each_ms); }
};
std::map<std::string, LayerStat> layer_stats(
    const std::vector<Tracer::Span>& spans);

/// Prints the per-workload layer table: each layer's self time per window,
/// their sum, and the unexplained remainder against the untraced
/// per-window CPU time; then the tracing overhead.
void print_layer_table(const std::string& workload,
                       const std::map<std::string, LayerStat>& layers,
                       std::size_t windows, double untraced_cpu_ms,
                       double untraced_wps, double traced_wps);

// ------------------------------------------------------------------ workloads

/// Shared per-run state handed to every workload.
struct Env {
  Config cfg;
  Sizes sizes;
  palu::ThreadPool* pool = nullptr;  // pinned to cfg.pool_threads
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs over `net` (timed into setup_s together
  /// with the graph build).
  virtual void prepare(const palu::core::UnderlyingNetwork& net) = 0;
  /// One untraced pass of the timed phase.
  virtual PassSample run_pass(Outcome& out) = 0;
  /// True while the run still needs passes for its latency samples.
  virtual bool wants_more(const Outcome& /*out*/) const { return false; }
  /// Correctness checks against a computation made apart from the
  /// program (after the timed phase).
  virtual void check(Outcome& out) = 0;
  /// Traced re-run of the set-up calls worth a layer metric (the replay
  /// capture); its spans stay out of the per-window layer table.
  virtual void trace_setup(Tracer& /*tracer*/) {}
  /// One traced pass over `windows` windows: every public call wrapped in
  /// a span.  Returns the windows completed.
  virtual std::size_t run_traced(Tracer& tracer, std::size_t windows,
                                 Outcome& out) = 0;
  /// Per-layer metrics of this workload from its traced spans (plus any
  /// isolated probes of calls the pipeline makes internally).
  virtual void layer_metrics(const std::map<std::string, LayerStat>& layers,
                             std::size_t windows, Outcome& out) = 0;
  /// Windows a full traced pass covers.
  virtual std::size_t traced_windows() const = 0;
};

std::unique_ptr<Workload> make_sweep_counts(const Env& env);
std::unique_ptr<Workload> make_replay(const Env& env);
std::unique_ptr<Workload> make_serve(const Env& env);
std::unique_ptr<Workload> make_expected(const Env& env);

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env);

}  // namespace perfbench
