// ThreadSanitizer-targeted stress for the sweep fast path and its
// resilience machinery (DESIGN.md §5c).
//
// These tests pass on any build, but their point is the
// `-DPALU_SANITIZE=thread` tree: they drive sweep_windows with
// cancellation flips, wall-clock timeouts, armed failpoints, several
// sweeps sharing the process-global failpoint registry, and concurrent
// sweeps recording into one obs::Registry — all at once —
// so TSan can observe every cross-thread edge the pipeline claims is
// synchronized.  Assertions here are consistency invariants (every
// window accounted for exactly once), not timing expectations: on a
// loaded or single-core machine a cancel may land after the sweep is
// already done, and that must also be a pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "palu/common/failpoint.hpp"
#include "palu/graph/generators.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/parallel/scratch_pool.hpp"
#include "palu/parallel/thread_pool.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

graph::Graph stress_graph() {
  Rng rng(42);
  return graph::erdos_renyi(rng, 200, 0.05);
}

// windows finished, tolerated, and skipped must partition the request —
// the core no-lost-no-duplicated-window invariant of the sweep.
void expect_partitioned(const traffic::WindowSweepResult& r,
                        std::size_t requested) {
  EXPECT_EQ(r.windows + r.failures.size() + r.windows_skipped, requested);
}

TEST(TsanStress, SweepSurvivesConcurrentCancellation) {
  const auto g = stress_graph();
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::atomic<bool> cancel{false};
    traffic::SweepOptions opts;
    opts.cancel = &cancel;
    opts.max_failed_windows = 32;
    std::thread canceller([&cancel]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      cancel.store(true, std::memory_order_relaxed);
    });
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 2000, 32,
        traffic::Quantity::kSourcePackets,
        static_cast<std::uint64_t>(round) + 1, pool, opts);
    canceller.join();
    expect_partitioned(result, 32);
    EXPECT_EQ(result.cancelled, result.windows_skipped > 0);
  }
}

TEST(TsanStress, SweepTimeoutRacesWorkersCleanly) {
  const auto g = stress_graph();
  ThreadPool pool(4);
  traffic::SweepOptions opts;
  opts.timeout = std::chrono::milliseconds(5);
  opts.max_failed_windows = 64;
  const auto result = traffic::sweep_windows(
      g, traffic::RateModel{}, 4000, 64,
      traffic::Quantity::kLinkPackets, 7, pool, opts);
  expect_partitioned(result, 64);
}

TEST(TsanStress, ConcurrentSweepsShareFailpointRegistry) {
  // Two sweeps on separate pools while a third thread keeps re-arming and
  // disarming the shared failpoint site: the registry's internal
  // synchronization and the sweeps' failure accounting must both hold.
  const auto g = stress_graph();
  std::atomic<bool> stop_arming{false};
  std::thread armer([&stop_arming]() {
    while (!stop_arming.load(std::memory_order_relaxed)) {
      failpoints::arm("traffic.sweep_window", /*fires=*/2, /*skip=*/3);
      std::this_thread::yield();
      failpoints::disarm("traffic.sweep_window");
    }
  });

  auto run_sweep = [&g](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.max_failed_windows = 24;  // tolerate every injected failure
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 24,
        traffic::Quantity::kDestinationFanIn, seed, pool, opts);
    expect_partitioned(result, 24);
  };
  std::thread a([&run_sweep]() { run_sweep(11); });
  std::thread b([&run_sweep]() { run_sweep(23); });
  a.join();
  b.join();
  stop_arming.store(true, std::memory_order_relaxed);
  armer.join();
  failpoints::disarm_all();
}

TEST(TsanStress, ConcurrentSweepsShareOneMetricsRegistry) {
  // Two sweeps recording into the SAME obs::Registry while a reader
  // thread keeps snapshotting it: registration (mutex), recording
  // (relaxed atomics), and snapshotting must all be race-free, and the
  // shared counters must end at the exact two-sweep totals.
  const auto g = stress_graph();
  obs::Registry registry;
  std::atomic<bool> stop_reading{false};
  std::thread reader([&registry, &stop_reading]() {
    while (!stop_reading.load(std::memory_order_relaxed)) {
      // snapshot() performs the racing reads TSan is here to watch; the
      // only invariant mid-flight is that the series set never shrinks.
      const auto snap = registry.snapshot();
      EXPECT_LE(snap.counters.size(), registry.num_series());
      std::this_thread::yield();
    }
  });

  auto run_sweep = [&g, &registry](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.metrics = &registry;
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 12,
        traffic::Quantity::kUndirectedDegree, seed, pool, opts);
    expect_partitioned(result, 12);
  };
  std::thread a([&run_sweep]() { run_sweep(5); });
  std::thread b([&run_sweep]() { run_sweep(31); });
  a.join();
  b.join();
  stop_reading.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == obs::names::kSweepRuns) {
      EXPECT_EQ(c.value, 2u);
    }
    if (c.name == obs::names::kSweepWindows && !c.labels.empty() &&
        c.labels.front().second == "completed") {
      EXPECT_EQ(c.value, 24u);
    }
  }
}

TEST(TsanStress, ConcurrentCountsSweepsShareOneMetricsRegistry) {
  // The count-space path (PR 5) on the same contract as the packet path:
  // two counts sweeps recording into one registry while a third thread
  // snapshots, exercising the MultinomialSampler (shared per-worker via
  // ScratchPool leases), ingest_counts, and the path=counts stage
  // histograms under TSan.
  const auto g = stress_graph();
  obs::Registry registry;
  std::atomic<bool> stop_reading{false};
  std::thread reader([&registry, &stop_reading]() {
    while (!stop_reading.load(std::memory_order_relaxed)) {
      const auto snap = registry.snapshot();
      EXPECT_LE(snap.counters.size(), registry.num_series());
      std::this_thread::yield();
    }
  });

  auto run_sweep = [&g, &registry](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.metrics = &registry;
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 30000, 12,
        traffic::Quantity::kUndirectedDegree, seed, pool, opts);
    expect_partitioned(result, 12);
    EXPECT_EQ(result.windows, 12u);
  };
  std::thread a([&run_sweep]() { run_sweep(5); });
  std::thread b([&run_sweep]() { run_sweep(31); });
  a.join();
  b.join();
  stop_reading.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = registry.snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == obs::names::kSweepRuns) {
      EXPECT_EQ(c.value, 2u);
    }
    if (c.name == obs::names::kSweepWindows && !c.labels.empty() &&
        c.labels.front().second == "completed") {
      EXPECT_EQ(c.value, 24u);
    }
  }
}

TEST(TsanStress, CountsSweepSurvivesArmedFailpoints) {
  // The two new failpoints ("rng.multinomial", "traffic.window_counts")
  // flip concurrently with two running counts sweeps; every injected
  // failure must be tolerated by the budget and accounted exactly once.
  const auto g = stress_graph();
  std::atomic<bool> stop_arming{false};
  std::thread armer([&stop_arming]() {
    while (!stop_arming.load(std::memory_order_relaxed)) {
      failpoints::arm("traffic.window_counts", /*fires=*/2, /*skip=*/3);
      failpoints::arm("rng.multinomial", /*fires=*/1, /*skip=*/7);
      std::this_thread::yield();
      failpoints::disarm("traffic.window_counts");
      failpoints::disarm("rng.multinomial");
    }
  });

  auto run_sweep = [&g](std::uint64_t seed) {
    ThreadPool pool(2);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.max_failed_windows = 24;  // tolerate every injected failure
    const auto result = traffic::sweep_windows(
        g, traffic::RateModel{}, 1500, 24,
        traffic::Quantity::kDestinationFanIn, seed, pool, opts);
    expect_partitioned(result, 24);
  };
  std::thread a([&run_sweep]() { run_sweep(11); });
  std::thread b([&run_sweep]() { run_sweep(23); });
  a.join();
  b.join();
  stop_arming.store(true, std::memory_order_relaxed);
  armer.join();
  failpoints::disarm_all();
}

TEST(TsanStress, FaultInjectedSweepIsDeterministicUnderBudget) {
  // A failpoint armed to fire exactly 3 times plus a failure budget: the
  // failure COUNT is deterministic even with 4 workers racing over which
  // windows absorb the fires, and no window may be lost or double-counted.
  const auto g = stress_graph();
  failpoints::arm("traffic.sweep_window", /*fires=*/3, /*skip=*/5);
  ThreadPool pool(4);
  traffic::SweepOptions opts;
  opts.max_failed_windows = 16;
  const auto result = traffic::sweep_windows(
      g, traffic::RateModel{}, 1000, 16,
      traffic::Quantity::kSourceFanOut, 3, pool, opts);
  failpoints::disarm_all();
  expect_partitioned(result, 16);
  EXPECT_EQ(result.failures.size(), 3u);
}

TEST(TsanStress, ScratchPoolLeaseChurnAcrossPools) {
  // Lease churn from two independent thread pools against one scratch
  // pool — the pattern sweep_windows uses, at higher contention.
  ScratchPool<std::vector<int>> scratch(
      []() { return std::make_unique<std::vector<int>>(256, 0); });
  ThreadPool pool_a(3);
  ThreadPool pool_b(3);
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 48; ++i) {
    auto work = [&scratch, i]() {
      auto lease = scratch.acquire();
      (*lease)[static_cast<std::size_t>(i) % lease->size()] += 1;
    };
    futs.push_back(i % 2 == 0 ? pool_a.submit(work) : pool_b.submit(work));
  }
  for (auto& f : futs) f.get();
  EXPECT_GE(scratch.slots_created(), 1u);
  EXPECT_LE(scratch.slots_created(), 6u);  // bounded by max concurrency
}

TEST(TsanStress, SubmitStormFromManyThreads) {
  // External threads hammering ThreadPool::submit while workers drain:
  // exercises the queue_/stopping_ mutex discipline end to end.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &done]() {
      std::vector<std::future<void>> futs;
      for (int i = 0; i < 50; ++i) {
        futs.push_back(pool.submit([&done]() {
          done.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futs) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(done.load(), 200);
}

}  // namespace
}  // namespace palu
