// Parallel multi-window analysis.
//
// The Section II methodology aggregates many consecutive windows of N_V
// valid packets and studies the per-bin mean and σ across them.  Windows
// of the synthetic stream are exchangeable (the generator is stationary),
// so they can be produced and histogrammed in parallel, one deterministic
// RNG stream per window — the library's main multi-core path for the
// Fig-3-style sweeps.
//
// Every sampled sweep runs one stage graph (DESIGN.md §5b): per window,
// inside a pool worker, the window's records enter a WindowAccumulator
// leased from a ScratchPool, the accumulator is histogrammed, and the
// histograms are reduced in window order on the calling thread.  The only
// per-source step is how records enter the accumulator:
//
//   * packet synthesis (SynthesisMode::kPacket): batched packet draws from
//     a per-worker generator reseeded per window, fed through add();
//   * count-space synthesis (SynthesisMode::kMultinomial): each window
//     drawn whole as per-pair counts (Multinomial over edge rates + one
//     direction Binomial per active pair), fed through ingest_counts() —
//     O(num_edges) per window instead of O(n_valid).  Same law, different
//     RNG consumption, so counts sweeps are distributionally equivalent to
//     packet sweeps, not byte-identical (DESIGN.md §5e);
//   * replay (the WindowSource overload): stored windows decoded from a
//     palu::store reader, fed through ingest_counts() (DESIGN.md §5j).
//
// Sweeps are hardened for long production runs: a worker exception carries
// its window index back to the caller (SweepWindowError), a failure budget
// lets a sweep tolerate a bounded number of bad windows without losing the
// rest, and a cancellation flag / wall-clock timeout stops a stuck sweep
// cleanly between windows.
//
// The analytic path has no windows to sample and shares no stage with the
// sweep: evaluate_expected_window() returns the expected pooled histogram
// and Table-I aggregates in closed form, one O(num_edges) evaluation per
// window size (DESIGN.md §5i).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "palu/common/error.hpp"
#include "palu/common/types.hpp"
#include "palu/graph/graph.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/stats/histogram.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/traffic/expected_window.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"

namespace palu::obs {
class Registry;
}

namespace palu::traffic {

class WindowSource;       // traffic/window_source.hpp
class WindowCaptureSink;  // traffic/window_source.hpp

/// Thrown when a sweep worker fails and the failure budget is zero; names
/// the window so operators can bisect a bad capture region.
class SweepWindowError : public Error {
 public:
  SweepWindowError(std::size_t window, const std::string& what)
      : Error("sweep_windows: window " + std::to_string(window) +
              " failed: " + what),
        window_(window) {}

  std::size_t window() const noexcept { return window_; }

 private:
  std::size_t window_;
};

/// One failed window of a tolerant sweep.
struct WindowFailure {
  std::size_t window = 0;
  std::string error;
};

/// How the graph overloads of sweep_windows synthesize windows.
enum class SynthesisMode {
  /// Draw n_valid individual packets per window (default; the reference
  /// path, pinned by golden digests of the retired SparseCountMatrix path).
  kPacket,
  /// Draw each window whole as per-pair counts via one Multinomial over
  /// the edge rates; O(num_edges) per window.  Distributionally
  /// equivalent to kPacket, not byte-identical.
  kMultinomial,
};

/// Resilience, synthesis and output knobs for sweep_windows.
struct SweepOptions {
  /// Windows allowed to fail before the sweep itself fails.  0 preserves
  /// the strict behaviour: the first failure is rethrown as
  /// SweepWindowError with the window index attached.
  std::size_t max_failed_windows = 0;
  /// How the graph overloads draw windows; the replay overload decodes
  /// stored windows instead and has no synthesis step.
  SynthesisMode synthesis = SynthesisMode::kPacket;
  /// Cooperative cancellation: checked between windows; a cancelled sweep
  /// returns the windows finished so far with `cancelled` set.
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock budget for the whole sweep; zero means unlimited.  Checked
  /// between windows (a worker stuck inside one window cannot be
  /// preempted, but no new window starts past the deadline).
  std::chrono::milliseconds timeout{0};
  /// Optional capture tee: every successfully accumulated window is
  /// appended as per-pair counts before the sweep reduces it.  Not owned; must be thread-safe (workers append
  /// concurrently) and outlive the sweep call.  An append failure is
  /// charged to the window like any other per-window fault.  The replay
  /// overload rejects it: its windows are already stored.
  WindowCaptureSink* capture = nullptr;
  /// Metrics sink for sweep counters and stage-duration histograms
  /// (palu_sweep_* families, see palu/obs/names.hpp) — the only record of
  /// a sweep's stage times: each successful window observes its sampling
  /// (draws, or replay read + decode), accumulation (records into the
  /// accumulator) and binning (histogramming + capture tee) nanoseconds
  /// once, so every stage's count equals WindowSweepResult::windows and
  /// its sum is the stage's CPU total.  nullptr routes to
  /// obs::default_registry(); point it at a caller-owned registry for
  /// per-run isolation (bench_sweep, the equivalence tests).
  obs::Registry* metrics = nullptr;
};

struct WindowSweepResult {
  stats::BinnedEnsemble ensemble;   // pooled D(d_i) mean/σ across windows
  stats::DegreeHistogram merged;    // all windows' quantity merged
  Degree max_value = 0;             // d_max over all windows (Eq. 1)
  std::size_t windows = 0;          // windows merged into the result
  std::vector<WindowFailure> failures;  // tolerated per-window failures
  std::size_t windows_skipped = 0;  // not attempted (cancel / timeout)
  bool cancelled = false;           // cancel flag or timeout fired
};

/// Draws `num_windows` windows of `n_valid` packets each over
/// `underlying`, histograms `quantity` per window, and reduces in window
/// order (deterministic given `seed`).  Windows are processed in parallel
/// on `pool`; window t uses the RNG stream fork(seed, t).  Successful
/// windows are merged in index order regardless of which windows failed,
/// so the result for a given seed is reproducible under fault injection.
WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool,
                                const SweepOptions& opts);

/// Strict overload (empty SweepOptions): first window failure throws.
WindowSweepResult sweep_windows(const graph::Graph& underlying,
                                const RateModel& rates, Count n_valid,
                                std::size_t num_windows, Quantity quantity,
                                std::uint64_t seed, ThreadPool& pool);

/// Replay overload: drives the same stage graph from stored windows —
/// no graph, no rate model, no RNG.  Windows [0, num_windows) of
/// `source` are decoded in parallel on `pool` (num_windows must not
/// exceed source.num_windows()), accumulated and reduced in window order,
/// so the result is byte-identical to the capturing sweep for every
/// quantity.  A per-window DataError from the source (corrupt block) is
/// charged against opts.max_failed_windows exactly like a synthesis
/// failure.
WindowSweepResult sweep_windows(WindowSource& source,
                                std::size_t num_windows, Quantity quantity,
                                ThreadPool& pool, const SweepOptions& opts);

/// The analytic expected-window path (DESIGN.md §5i): one deterministic
/// ExpectedWindowEvaluator pass over the generator's pair support yields
/// the expected pooled histogram of `quantity`, the expected Table-I
/// aggregates and the median-of-max d_max stand-in for windows of
/// `n_valid` packets — no sampling, O(num_edges), flat in N_V.  The edge
/// rates are the draw a sweep with the same `seed` uses
/// (make_edge_rates(…, Rng(seed).fork(0))), so the result is what that
/// sweep's ensemble converges to; σ bands come from an ordinary
/// kMultinomial sweep with the same seed.  The visibility pass and the
/// marginal folding are timed into palu_sweep_stage_duration_ns
/// {path="expected", stage="sampling"|"accumulation"} of `metrics`
/// (nullptr: obs::default_registry()).  Failures, including the
/// `theory.expected_window` failpoint, propagate to the caller.
ExpectedWindow evaluate_expected_window(const graph::Graph& underlying,
                                        const RateModel& rates,
                                        Count n_valid, Quantity quantity,
                                        std::uint64_t seed,
                                        obs::Registry* metrics = nullptr);

}  // namespace palu::traffic
