// The packet sweep path against the retired legacy SparseCountMatrix path,
// plus its resilience and observability semantics.
//
// The WindowAccumulator path replaced the legacy path as a pure
// optimisation; the legacy path survives only as golden digests
// (sweep_golden.hpp) and pinned metric values that the packet sweep must
// reproduce for every seed and quantity.  The path must also honour the
// failure-budget / cancellation / timeout semantics under fault
// injection, and every sweep path must leave a pre-registered metrics
// registry without new series.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "palu/graph/generators.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/sparse_matrix.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_pipeline.hpp"
#include "palu/traffic/window_source.hpp"
#include "sweep_golden.hpp"

namespace palu {
namespace {

constexpr std::array<traffic::Quantity, 6> kEveryQuantity = {
    traffic::Quantity::kSourcePackets,
    traffic::Quantity::kSourceFanOut,
    traffic::Quantity::kLinkPackets,
    traffic::Quantity::kDestinationFanIn,
    traffic::Quantity::kDestinationPackets,
    traffic::Quantity::kUndirectedDegree};

void expect_identical(const stats::DegreeHistogram& a,
                      const stats::DegreeHistogram& b,
                      const std::string& context) {
  EXPECT_EQ(a.total(), b.total()) << context;
  EXPECT_EQ(a.weighted_total(), b.weighted_total()) << context;
  EXPECT_EQ(a.sorted(), b.sorted()) << context;
}

TEST(WindowAccumulator, MatchesSparseMatrixAcrossReusedWindows) {
  Rng rng(101);
  traffic::WindowAccumulator acc;
  // Three windows through ONE accumulator: the arena-reuse reset must not
  // leak cells between windows.
  for (int window = 0; window < 3; ++window) {
    acc.begin_window();
    traffic::SparseCountMatrix reference;
    const Count packets = 4000 + static_cast<Count>(window) * 1000;
    for (Count i = 0; i < packets; ++i) {
      // Small id space forces duplicates, self-loops, and mirrored pairs.
      const NodeId src = rng.uniform_index(64);
      const NodeId dst = rng.uniform_index(64);
      acc.add(src, dst);
      reference.add(src, dst);
    }
    ASSERT_EQ(acc.total(), reference.total());
    ASSERT_EQ(acc.nnz(), reference.nnz());
    for (const auto q : kEveryQuantity) {
      expect_identical(acc.histogram(q),
                       traffic::quantity_histogram(reference, q),
                       std::string(traffic::quantity_name(q)) +
                           " window " + std::to_string(window));
    }
  }
}

TEST(WindowAccumulator, GrowsPastInitialCapacity) {
  // >> 1024 distinct cells and nodes: both open-addressing tables must
  // rehash without dropping counts.
  traffic::WindowAccumulator acc;
  acc.begin_window();
  traffic::SparseCountMatrix reference;
  for (NodeId i = 0; i < 5000; ++i) {
    acc.add(i, i + 1, 3);
    reference.add(i, i + 1, 3);
  }
  EXPECT_EQ(acc.nnz(), 5000u);
  EXPECT_EQ(acc.total(), 15000u);
  EXPECT_EQ(acc.at(4999, 5000), 3u);
  EXPECT_EQ(acc.at(5000, 4999), 0u);
  for (const auto q : kEveryQuantity) {
    expect_identical(acc.histogram(q),
                     traffic::quantity_histogram(reference, q),
                     std::string(traffic::quantity_name(q)));
  }
}

TEST(SweepFastPath, ByteIdenticalToLegacyAcrossQuantitiesAndSeeds) {
  const auto g = golden::golden_graph();
  ThreadPool pool(2);
  for (const auto& pin : golden::kPacketPins) {
    const auto sweep = traffic::sweep_windows(
        g, traffic::RateModel{}, golden::kGoldenPackets,
        golden::kGoldenWindows, pin.quantity, pin.seed, pool);
    EXPECT_EQ(golden::sweep_digest(sweep), pin.digest)
        << traffic::quantity_name(pin.quantity) << " seed " << pin.seed;
  }
}

// Observability half of the legacy contract: the packet path must leave
// the counters and gauges the legacy path left on the golden grid (pinned
// below; the retired shard families are gone).  Stage-duration histograms
// are excluded by construction — worker participation is timing-
// dependent.
TEST(SweepFastPath, CountersAndGaugesMatchLegacyPath) {
  const auto g = golden::golden_graph();
  ThreadPool pool(2);
  const std::vector<obs::CounterSample> legacy_counters = {
      {obs::names::kSweepCancelled, {}, 0},
      {obs::names::kSweepDeadlineExpired, {}, 0},
      {obs::names::kSweepFailpointTrips, {}, 0},
      {obs::names::kSweepRuns, {}, 1},
      {obs::names::kSweepWindows, {{"outcome", "completed"}}, 6},
      {obs::names::kSweepWindows, {{"outcome", "failed"}}, 0},
      {obs::names::kSweepWindows, {{"outcome", "skipped"}}, 0},
  };
  const std::vector<obs::GaugeSample> legacy_gauges = {
      {obs::names::kSweepPoolThreads, {}, 2},
  };
  for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
    obs::Registry registry;
    traffic::SweepOptions opts;
    opts.metrics = &registry;
    traffic::sweep_windows(g, traffic::RateModel{}, golden::kGoldenPackets,
                           golden::kGoldenWindows,
                           traffic::Quantity::kUndirectedDegree, seed, pool,
                           opts);
    const obs::RegistrySnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counters, legacy_counters) << "seed " << seed;
    EXPECT_EQ(snap.gauges, legacy_gauges) << "seed " << seed;
  }
}

TEST(SweepFastPath, StrictFailureCarriesWindowIndex) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(1);  // FIFO pool: windows execute in index order
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/1, /*skip=*/2);
  traffic::SweepOptions opts;
  try {
    traffic::sweep_windows(g, traffic::RateModel{}, 1000, 6,
                           traffic::Quantity::kSourceFanOut, 42, pool,
                           opts);
    FAIL() << "strict packet sweep must rethrow the window failure";
  } catch (const traffic::SweepWindowError& e) {
    EXPECT_EQ(e.window(), 2u);
  }
}

TEST(SweepFastPath, HonoursFailureBudget) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  testing::FailpointGuard guard;
  testing::force_sweep_window_failure(/*fires=*/2, /*skip=*/0);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 2;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 8,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_EQ(sweep.failures.size(), 2u);
  EXPECT_EQ(sweep.windows, 6u);
  EXPECT_FALSE(sweep.cancelled);
}

TEST(SweepFastPath, HonoursCancellation) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  std::atomic<bool> cancel{true};  // cancelled before any window starts
  traffic::SweepOptions opts;
  opts.cancel = &cancel;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 6,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_TRUE(sweep.cancelled);
  EXPECT_EQ(sweep.windows, 0u);
  EXPECT_EQ(sweep.windows_skipped, 6u);
}

TEST(SweepFastPath, HonoursTimeout) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 500, 0.01);
  ThreadPool pool(2);
  traffic::SweepOptions opts;
  opts.timeout = std::chrono::milliseconds(1);
  // 64 windows × 500k packets cannot finish inside 1 ms; the deadline
  // must stop new windows, leaving the rest skipped (not failed).
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 500000, 64,
      traffic::Quantity::kSourceFanOut, 42, pool, opts);
  EXPECT_TRUE(sweep.cancelled);
  EXPECT_GE(sweep.windows_skipped, 1u);
  EXPECT_TRUE(sweep.failures.empty());
  EXPECT_EQ(sweep.windows + sweep.windows_skipped, 64u);
}

TEST(SweepFastPath, HugeTimeoutDoesNotOverflowTheDeadline) {
  // Regression: the deadline used to be computed unconditionally as
  // now() + timeout, so a duration::max()-class budget overflowed the
  // time_point (signed-overflow UB) and could wrap into the past,
  // spuriously cancelling the sweep.  Oversized budgets must behave like
  // "unlimited": every window completes.
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  for (const auto timeout : {std::chrono::milliseconds::max(),
                             std::chrono::milliseconds::max() / 2,
                             std::chrono::duration_cast<
                                 std::chrono::milliseconds>(
                                 std::chrono::nanoseconds::max())}) {
    traffic::SweepOptions opts;
    opts.timeout = timeout;
    const auto sweep = traffic::sweep_windows(
        g, traffic::RateModel{}, 2000, 4,
        traffic::Quantity::kUndirectedDegree, 9, pool, opts);
    EXPECT_FALSE(sweep.cancelled) << timeout.count();
    EXPECT_EQ(sweep.windows, 4u) << timeout.count();
    EXPECT_EQ(sweep.windows_skipped, 0u) << timeout.count();
  }
}

// In-memory capture sink doubling as a replay source, so the replay path
// runs without a store on disk.  Fed by a counts sweep, whose exported
// records are already one per unordered pair.
class MemoryStore final : public traffic::WindowCaptureSink,
                          public traffic::WindowSource {
 public:
  void append(std::size_t window_index, Count n_valid,
              std::span<const traffic::EdgePacketCounts> records) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (windows_.size() <= window_index) windows_.resize(window_index + 1);
    windows_[window_index] = {n_valid, {records.begin(), records.end()}};
  }
  std::size_t num_windows() const override { return windows_.size(); }
  Count read_window(std::size_t index, std::vector<std::byte>& /*buf*/,
                    std::vector<traffic::EdgePacketCounts>& out) override {
    out = windows_[index].second;
    return windows_[index].first;
  }

 private:
  std::mutex mutex_;
  std::vector<std::pair<Count, std::vector<traffic::EdgePacketCounts>>>
      windows_;
};

// Each successful window observes each of its path's three stage series
// once, on every sampled path, so a series' count is the result's
// `windows` and its sum the stage's CPU total; windows failed by the
// sweep-window failpoint inside the budget add no observation.
TEST(SweepMetrics, StageHistogramsObserveEachSuccessfulWindowOnce) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  const auto q = traffic::Quantity::kUndirectedDegree;
  constexpr std::size_t kWindows = 6;
  ThreadPool pool(2);
  MemoryStore store;
  {
    obs::Registry capture_registry;
    traffic::SweepOptions opts;
    opts.metrics = &capture_registry;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.capture = &store;
    traffic::sweep_windows(g, traffic::RateModel{}, 20000, kWindows, q, 5,
                           pool, opts);
  }
  for (const int failures : {0, 2}) {
    for (const std::string path : {"fast", "counts", "replay"}) {
      const std::string context =
          path + " with " + std::to_string(failures) + " failed windows";
      testing::FailpointGuard guard;
      if (failures > 0) testing::force_sweep_window_failure(failures);
      obs::Registry registry;
      traffic::SweepOptions opts;
      opts.metrics = &registry;
      opts.max_failed_windows = static_cast<std::size_t>(failures);
      if (path == "counts") {
        opts.synthesis = traffic::SynthesisMode::kMultinomial;
      }
      const auto sweep =
          path == "replay"
              ? traffic::sweep_windows(store, kWindows, q, pool, opts)
              : traffic::sweep_windows(g, traffic::RateModel{}, 20000,
                                       kWindows, q, 5, pool, opts);
      EXPECT_EQ(sweep.windows, kWindows - static_cast<std::size_t>(failures))
          << context;
      std::size_t stage_series = 0;
      for (const auto& h : registry.snapshot().histograms) {
        if (h.name != obs::names::kSweepStageDurationNs) continue;
        ++stage_series;
        const obs::Labels::value_type path_label{"path", path};
        EXPECT_EQ(h.labels.front(), path_label) << context;
        EXPECT_EQ(h.count, sweep.windows) << context;
        EXPECT_GT(h.sum, 0u) << context;
      }
      EXPECT_EQ(stage_series, 3u) << context;
    }
  }
}

// preregister_palu_metrics must register exactly the sweep series the
// paths emit: running every path (packet, counts with a capture tee,
// replay, expected) against a pre-registered registry creates no new
// series, and every pre-registered stage series is observed by some path.
TEST(SweepMetrics, PreregisteredRegistryGainsNoSeriesOnAnyPath) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 300, 0.03);
  ThreadPool pool(2);
  obs::Registry registry;
  obs::preregister_palu_metrics(registry);
  const auto series = [&registry] {
    const obs::RegistrySnapshot snap = registry.snapshot();
    std::set<std::pair<std::string, obs::Labels>> out;
    for (const auto& c : snap.counters) out.emplace(c.name, c.labels);
    for (const auto& x : snap.gauges) out.emplace(x.name, x.labels);
    for (const auto& h : snap.histograms) out.emplace(h.name, h.labels);
    return out;
  };
  const auto before = series();

  const auto q = traffic::Quantity::kUndirectedDegree;
  traffic::SweepOptions opts;
  opts.metrics = &registry;
  traffic::sweep_windows(g, traffic::RateModel{}, 2000, 3, q, 5, pool, opts);
  MemoryStore store;
  opts.synthesis = traffic::SynthesisMode::kMultinomial;
  opts.capture = &store;
  traffic::sweep_windows(g, traffic::RateModel{}, 2000, 3, q, 5, pool, opts);
  traffic::SweepOptions replay_opts;
  replay_opts.metrics = &registry;
  traffic::sweep_windows(store, 3, q, pool, replay_opts);
  traffic::evaluate_expected_window(g, traffic::RateModel{}, 2000, q, 5,
                                    &registry);

  EXPECT_EQ(series(), before);
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name != obs::names::kSweepStageDurationNs) continue;
    std::string labels;
    for (const auto& [key, value] : h.labels) labels += key + "=" + value + " ";
    EXPECT_GT(h.count, 0u) << "pre-registered but never emitted: " << labels;
  }
}

}  // namespace
}  // namespace palu
