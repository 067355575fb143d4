// The two batch-sweep workloads.
//
//   sweep_counts  count-space Monte-Carlo sweep (SynthesisMode::
//                 kMultinomial) of the bench graph at N_V = 1e6.
//   replay        the same ensemble captured into a window store during
//                 set-up, then re-driven from WindowStoreReader.
//
// Both traced passes rebuild the sweep's stage graph from public calls
// (next_window_counts / read_window → begin_window + ingest_counts →
// histogram → from_histogram + BinnedEnsemble::add + merge) with one span
// per call, and must reproduce the untraced sweep exactly.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace palu;
using traffic::EdgePacketCounts;

constexpr traffic::Quantity kQuantity = traffic::Quantity::kUndirectedDegree;

/// Result of one sweep in the form the identity checks compare.
struct Reduced {
  std::vector<std::pair<Degree, Count>> merged;
  std::vector<double> mean;
  std::vector<double> stddev;
  std::size_t windows = 0;

  static Reduced of(const traffic::WindowSweepResult& r) {
    return {r.merged.sorted(), r.ensemble.mean(), r.ensemble.stddev(),
            r.windows};
  }
  friend bool operator==(const Reduced&, const Reduced&) = default;
};

/// One worker's scratch for the traced stage graph.
struct Slot {
  std::optional<traffic::SyntheticTrafficGenerator> gen;
  traffic::WindowAccumulator acc;
  std::vector<EdgePacketCounts> pairs;
  std::vector<std::byte> buf;
};

/// The traced stage graph.  `source` fills slot.pairs for window t inside
/// its own span; the rest is the sweep's shared accumulate → bin back half
/// and its window-order reduce.
template <typename Source>
Reduced traced_stage_graph(Tracer& tracer, ThreadPool& pool,
                           std::size_t windows,
                           const std::function<std::unique_ptr<Slot>()>& make,
                           Source&& source) {
  ScratchPool<Slot> slots(make);
  std::vector<std::optional<stats::DegreeHistogram>> hists(windows);
  parallel_for(pool, 0, windows, /*grain=*/1, [&](IndexRange range) {
    auto lease = slots.acquire();
    for (std::size_t t = range.begin; t < range.end; ++t) {
      source(*lease, t);
      {
        auto s = tracer.scope("traffic.ingest_counts");
        lease->acc.begin_window();
        lease->acc.ingest_counts(lease->pairs);
      }
      auto s = tracer.scope("traffic.histogram");
      hists[t] = lease->acc.histogram(kQuantity);
    }
  });
  traffic::WindowSweepResult r;
  for (std::size_t t = 0; t < windows; ++t) {
    auto s = tracer.scope("stats.binning");
    r.ensemble.add(stats::LogBinned::from_histogram(*hists[t]));
    r.merged.merge(*hists[t]);
    ++r.windows;
  }
  return Reduced::of(r);
}

/// windows/s of `passes` counts sweeps on a pool of `threads` workers
/// (median, after one warm-up sweep).
double counts_rate(const graph::Graph& g, Count nv, std::size_t windows,
                   std::uint64_t seed, std::size_t threads,
                   std::size_t passes) {
  ThreadPool pool(threads);
  traffic::SweepOptions opts;
  opts.synthesis = traffic::SynthesisMode::kMultinomial;
  obs::Registry registry;
  opts.metrics = &registry;
  std::vector<double> rates;
  for (std::size_t i = 0; i <= passes; ++i) {
    const PassSample s = time_pass(windows, [&] {
      traffic::sweep_windows(g, traffic::RateModel{}, nv, windows, kQuantity,
                             seed, pool, opts);
    });
    if (i > 0) rates.push_back(static_cast<double>(windows) / s.wall_s);
  }
  return median(rates);
}

class SweepCounts final : public Workload {
 public:
  explicit SweepCounts(const Env& env) : env_(env) {}

  void prepare(const core::UnderlyingNetwork& net) override {
    net_ = &net;
    rates_ = traffic::make_edge_rates(net.graph, traffic::RateModel{},
                                      Rng(seed0_).fork(0));
  }

  PassSample run_pass(Outcome& out) override {
    const std::size_t k = env_.sizes.sweep_windows;
    const std::size_t n = env_.sizes.sweep_subseeds;
    std::vector<traffic::WindowSweepResult> results;
    const PassSample s = time_pass(k * n, [&] {
      for (std::size_t r = 0; r < n; ++r) {
        const std::int64_t t0 = now_ns();
        results.push_back(sweep(sub_seed(env_.cfg.seed, r), k));
        out.publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
    });
    std::vector<Reduced> reduced;
    for (const auto& r : results) {
      out.attempted += k;
      out.failed += k - r.windows;
      reduced.push_back(Reduced::of(r));
    }
    if (first_.empty()) first_ = reduced;
    if (reduced != first_) ++diverged_passes_;
    return s;
  }

  void check(Outcome& out) override {
    const Count nv = env_.sizes.sweep_nv;
    // (1) A directly drawn count-space window conserves packet mass.
    traffic::SyntheticTrafficGenerator gen(net_->graph, rates_,
                                           Rng(seed0_).fork(1));
    std::vector<EdgePacketCounts> pairs;
    gen.next_window_counts(nv, pairs);
    Count total = 0;
    for (const auto& pc : pairs) total += pc.forward + pc.backward;
    out.check(total == nv, "sweep_counts: sum(forward + backward) of a "
                           "drawn window == N_V");

    // (2) CLT agreement: the swept per-bin mean lies within 6 standard
    // errors (+0.004 absolute, the independence approximation's budget)
    // of the ExpectedWindowEvaluator mean — sweep_expected_test's rule.
    const std::size_t n = env_.sizes.check_windows;
    const auto swept = sweep(seed0_, n);
    traffic::ExpectedWindowEvaluator eval(gen.pair_support());
    eval.prepare(nv);
    const auto mass = eval.evaluate(kQuantity).mass;
    const auto mean = swept.ensemble.mean();
    const auto sd = swept.ensemble.stddev();
    double worst = 0.0;
    const std::size_t bins = std::max(mean.size(), mass.num_bins());
    bool ok = swept.windows == n;
    for (std::size_t i = 0; i < bins; ++i) {
      const double a = i < mass.num_bins() ? mass[i] : 0.0;
      const double m = i < mean.size() ? mean[i] : 0.0;
      const double s = i < sd.size() ? sd[i] : 0.0;
      const double tol = 6.0 * s / std::sqrt(static_cast<double>(n)) + 0.004;
      worst = std::max(worst, std::abs(a - m) / tol);
      ok = ok && std::abs(a - m) <= tol;
    }
    char what[160];
    std::snprintf(what, sizeof what,
                  "sweep_counts: %zu-window per-bin mean within 6 SE + "
                  "0.004 of the expected window (worst %.2f of tolerance)",
                  n, worst);
    out.check(ok, what);
    out.check(diverged_passes_ == 0,
              "sweep_counts: every pass reproduces the first exactly");
    if (traced_) {
      out.check(*traced_ == Reduced::of(sweep(seed0_, traced_->windows)),
                "sweep_counts: traced stage graph == sweep_windows");
    }
  }

  std::size_t run_traced(Tracer& tracer, std::size_t windows,
                         Outcome& out) override {
    const Rng base(seed0_);
    const Count nv = env_.sizes.sweep_nv;
    traced_ = traced_stage_graph(
        tracer, *env_.pool, windows,
        [this] {
          auto s = std::make_unique<Slot>();
          s->gen.emplace(net_->graph, rates_, Rng(0));
          return s;
        },
        [&](Slot& slot, std::size_t t) {
          auto s = tracer.scope("traffic.window_counts");
          slot.gen->reseed(base.fork(t + 1));
          slot.gen->next_window_counts(nv, slot.pairs);
        });
    out.attempted += windows;
    out.failed += windows - traced_->windows;
    return traced_->windows;
  }

  void layer_metrics(const std::map<std::string, LayerStat>& layers,
                     std::size_t /*windows*/, Outcome& out) override {
    out.set("traffic.window_counts_ms",
            layers.at("traffic.window_counts").median_ms());
    out.set("traffic.ingest_counts_ms",
            layers.at("traffic.ingest_counts").median_ms());
    out.set("traffic.histogram_ms",
            layers.at("traffic.histogram").median_ms());
    out.set("stats.binning_ms", layers.at("stats.binning").median_ms());
    // Isolated probe: the same sweep on 1 worker vs the pinned pool.
    const std::size_t p = env_.pool->size();
    const std::size_t k = std::max<std::size_t>(env_.sizes.sweep_windows, p);
    const double one =
        counts_rate(net_->graph, env_.sizes.sweep_nv, k, seed0_, 1, 3);
    const double many =
        counts_rate(net_->graph, env_.sizes.sweep_nv, k, seed0_, p, 3);
    out.set("parallel.scaling_efficiency",
            many / (static_cast<double>(p) * one));
    std::printf("parallel probe: %.2f windows/s on 1 thread, %.2f on %zu\n",
                one, many, p);
  }

  std::size_t traced_windows() const override {
    return env_.sizes.sweep_windows;
  }

 private:
  traffic::WindowSweepResult sweep(std::uint64_t seed, std::size_t windows) {
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.max_failed_windows = windows;
    opts.metrics = &registry_;
    return traffic::sweep_windows(net_->graph, traffic::RateModel{},
                                  env_.sizes.sweep_nv, windows, kQuantity,
                                  seed, *env_.pool, opts);
  }

  Env env_;
  std::uint64_t seed0_ = sub_seed(env_.cfg.seed, 0);
  const core::UnderlyingNetwork* net_ = nullptr;
  std::vector<double> rates_;  // of sub-seed 0
  obs::Registry registry_;
  std::vector<Reduced> first_;  // per sub-seed, from the first pass
  std::size_t diverged_passes_ = 0;
  std::optional<Reduced> traced_;
};

/// Capture sink that times each append (store.append spans).
class TimedSink final : public traffic::WindowCaptureSink {
 public:
  TimedSink(Tracer& tracer, traffic::WindowCaptureSink& inner)
      : tracer_(tracer), inner_(inner) {}
  void append(std::size_t window_index, Count n_valid,
              std::span<const EdgePacketCounts> records) override {
    auto s = tracer_.scope("store.append");
    inner_.append(window_index, n_valid, records);
  }

 private:
  Tracer& tracer_;
  traffic::WindowCaptureSink& inner_;
};

class Replay final : public Workload {
 public:
  explicit Replay(const Env& env) : env_(env) {
    for (std::size_t r = 0; r < env.sizes.subseeds; ++r) {
      dirs_.push_back(kWorkDir + "/replay-" + std::to_string(r) +
                      ".store");
    }
  }

  ~Replay() override {
    std::error_code ec;
    for (const auto& dir : dirs_) std::filesystem::remove_all(dir, ec);
    std::filesystem::remove_all(dirs_[0] + ".traced", ec);
  }

  void prepare(const core::UnderlyingNetwork& net) override {
    net_ = &net;
    const std::int64_t t0 = now_ns();
    captured_.clear();
    for (std::size_t r = 0; r < dirs_.size(); ++r) {
      captured_.push_back(
          capture(dirs_[r], sub_seed(env_.cfg.seed, r), nullptr));
    }
    capture_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  PassSample run_pass(Outcome& out) override {
    const std::size_t k = env_.sizes.replay_windows;
    std::vector<traffic::WindowSweepResult> results;
    const PassSample s = time_pass(k * dirs_.size(), [&] {
      for (const auto& dir : dirs_) {
        const std::int64_t t0 = now_ns();
        store::WindowStoreReader reader(dir);
        traffic::SweepOptions opts;
        opts.max_failed_windows = k;
        opts.metrics = &registry_;
        results.push_back(
            traffic::sweep_windows(reader, k, kQuantity, *env_.pool, opts));
        out.publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
    });
    for (std::size_t r = 0; r < results.size(); ++r) {
      out.attempted += k;
      out.failed += k - results[r].windows;  // checksum / decode failures
      if (!(Reduced::of(results[r]) == captured_[r])) ++diverged_passes_;
    }
    return s;
  }

  void check(Outcome& out) override {
    std::printf("capture %.2f windows/s; last store %llu windows, %llu "
                "records, %llu payload bytes\n",
                static_cast<double>(dirs_.size() *
                                    env_.sizes.replay_windows) /
                    capture_s_,
                static_cast<unsigned long long>(stats_.blocks),
                static_cast<unsigned long long>(stats_.records),
                static_cast<unsigned long long>(stats_.payload_bytes));
    bool archived = true;
    for (const auto& c : captured_) {
      archived = archived && c.windows == env_.sizes.replay_windows;
    }
    out.check(archived, "replay: capture archived every window");
    out.check(diverged_passes_ == 0,
              "replay: every replayed merged histogram and ensemble equals "
              "the capturing sweep's (round-trip identity)");
    if (traced_) {
      out.check(*traced_ == captured_prefix(traced_->windows),
                "replay: traced stage graph == capturing sweep");
    }
  }

  void trace_setup(Tracer& tracer) override {
    capture(dirs_[0] + ".traced", sub_seed(env_.cfg.seed, 0), &tracer);
  }

  std::size_t run_traced(Tracer& tracer, std::size_t windows,
                         Outcome& out) override {
    store::WindowStoreReader reader(dirs_[0]);
    windows = std::min(windows, reader.num_windows());
    traced_ = traced_stage_graph(
        tracer, *env_.pool, windows, [] { return std::make_unique<Slot>(); },
        [&](Slot& slot, std::size_t t) {
          auto s = tracer.scope("store.read_window");
          reader.read_window(t, slot.buf, slot.pairs);
        });
    out.attempted += windows;
    out.failed += windows - traced_->windows;
    return traced_->windows;
  }

  void layer_metrics(const std::map<std::string, LayerStat>& layers,
                     std::size_t /*windows*/, Outcome& out) override {
    out.set("store.append_ms", layers.at("store.append").median_ms());
    out.set("store.read_window_ms",
            layers.at("store.read_window").median_ms());
    out.set("traffic.ingest_counts_ms",
            layers.at("traffic.ingest_counts").median_ms());
    out.set("traffic.histogram_ms",
            layers.at("traffic.histogram").median_ms());
    out.set("stats.binning_ms", layers.at("stats.binning").median_ms());
    out.set("store.payload_bytes_per_record",
            static_cast<double>(stats_.payload_bytes) /
                static_cast<double>(stats_.records));
    out.set("store.checksum_gb_per_s", checksum_probe());
  }

  std::size_t traced_windows() const override {
    return env_.sizes.replay_windows;
  }

 private:
  /// Counts sweep of replay_windows windows teed into a fresh store.
  Reduced capture(const std::string& dir, std::uint64_t seed,
                  Tracer* tracer) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    store::WriterOptions wopts;
    wopts.node_domain = net_->graph.num_nodes();
    wopts.seed = seed;
    wopts.metrics = &registry_;
    store::WindowStoreWriter writer(dir, wopts);
    std::optional<TimedSink> timed;
    if (tracer != nullptr) timed.emplace(*tracer, writer);
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.metrics = &registry_;
    opts.capture = timed ? static_cast<traffic::WindowCaptureSink*>(&*timed)
                         : &writer;
    const auto r = traffic::sweep_windows(
        net_->graph, traffic::RateModel{}, env_.sizes.sweep_nv,
        env_.sizes.replay_windows, kQuantity, seed, *env_.pool, opts);
    writer.finish();
    if (tracer == nullptr) stats_ = writer.stats();
    return Reduced::of(r);
  }

  /// The capturing sweep's result restricted to its first `windows`
  /// windows (a probe replays a prefix of the store).
  Reduced captured_prefix(std::size_t windows) {
    if (windows == captured_[0].windows) return captured_[0];
    traffic::SweepOptions opts;
    opts.synthesis = traffic::SynthesisMode::kMultinomial;
    opts.metrics = &registry_;
    return Reduced::of(traffic::sweep_windows(
        net_->graph, traffic::RateModel{}, env_.sizes.sweep_nv, windows,
        kQuantity, sub_seed(env_.cfg.seed, 0), *env_.pool, opts));
  }

  /// checksum64 over every block's bytes, GB/s (median of 5 passes).
  double checksum_probe() {
    store::WindowStoreReader reader(dirs_[0]);
    std::ifstream f(store::WindowStoreWriter::store_file(dirs_[0]),
                    std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string bytes = ss.str();
    std::uint64_t total = 0;
    for (const auto& e : reader.manifest()) total += e.block_bytes;
    std::vector<double> rates;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      for (const auto& e : reader.manifest()) {
        sink ^= store::checksum64(bytes.data() + e.offset, e.block_bytes);
      }
      rates.push_back(static_cast<double>(total) /
                      static_cast<double>(now_ns() - t0));
    }
    std::printf("checksum probe: %llu block bytes, xor of checksums %016llx\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(sink));
    return median(rates);
  }

  Env env_;
  std::vector<std::string> dirs_;  // one store per sub-seed
  const core::UnderlyingNetwork* net_ = nullptr;
  obs::Registry registry_;
  std::vector<Reduced> captured_;  // the capturing sweeps, per sub-seed
  double capture_s_ = 0.0;
  store::WindowStoreWriter::Stats stats_;
  std::size_t diverged_passes_ = 0;
  std::optional<Reduced> traced_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_counts(const Env& env) {
  return std::make_unique<SweepCounts>(env);
}

std::unique_ptr<Workload> make_replay(const Env& env) {
  return std::make_unique<Replay>(env);
}

}  // namespace perfbench
