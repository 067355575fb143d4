// Sweep-throughput benchmark: packet vs. counts synthesis, the analytic
// expected path, and store replay, with a JSON artifact so the perf
// trajectory is tracked over time.
//
// Timing TU (tools/timing_files.txt): steady_clock reads time the paths;
// the sweeps themselves are seed-driven and stay reproducible.
//
// Runs the same Monte-Carlo window sweep three ways — the packet path
// (WindowAccumulator, batched packet draws), the count-space Multinomial
// path, and store replay (capture the counts ensemble once, then re-drive
// the sweep from decoded blocks) — plus the analytic expected-window
// evaluation, verifies that a count-space window conserves packet mass
// exactly, that the expected mass sums to 1 and that replay reproduces
// the capturing sweep, then writes BENCH_sweep.json:
//
//   {
//     "bench": "sweep",
//     "config": {"windows", "nvalid", "nodes", "edges", "quantity",
//                "seed", "nproc", "pool_threads"},
//     "fast":   {"seconds", "packets_per_sec",
//                "metrics": {... obs registry snapshot for the run ...}},
//     "counts": {... same shape ...},
//     "speedup_counts_vs_fast": counts pps / fast pps,
//     "counts_mass_conserved": true|false,
//     "scaling": {"windows", "points": [{"nvalid", "seconds_per_window"}],
//                 "ratios": [per-decade cost growth of the counts path]},
//     "expected": {"points": [{"nvalid", "seconds_per_eval"}],
//                  "ratios": [...],   // flat ⇒ analytic cost is N_V-free
//                  "counts_sweep_seconds_over_expected_eval": X},
//     "replay": {... same shape as fast/counts ...},
//     "replay_store": {"windows", "records", "payload_bytes", "file_bytes",
//                      "payload_bytes_per_record", "bytes_per_window",
//                      "capture_seconds"},
//     "speedup_synthesis_vs_replay_per_window": X,  // stage cost replaced
//     "speedup_replay_vs_counts": X,   // whole-sweep wall ratio
//     "replay_identical": true|false   // replay vs capture
//   }
//
// Each run records into its own obs::Registry, so the metrics block is
// per-run (not cumulative across paths); its palu_sweep_stage_duration_ns
// series carry the per-window stage times.  The counts path consumes RNG
// differently, so it is held to distributional equivalence (tested in
// sweep_counts_test) plus the exact mass check here, not byte identity;
// the packet path's exact output is pinned by golden digests in the test
// suite.
//
// Default config is the acceptance workload (64 windows × 1e6 packets);
// `--smoke` shrinks it to seconds so ctest can keep the binary honest,
// `--counts-only` skips the packet path and the replay axis (the counts
// smoke ctest), `--expected-only` runs just the analytic expectation axis
// (the expected smoke ctest), and `--replay-only` runs just the capture →
// replay axis (the replay smoke ctest).  Exit code is non-zero on any
// check failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "palu/cli/args.hpp"
#include "palu/palu.hpp"

namespace {

using namespace palu;

struct RunResult {
  double seconds = 0.0;
  double packets_per_sec = 0.0;
  std::uint64_t sampling_ns = 0;  // sampling-stage sum over the run's windows
  stats::DegreeHistogram merged;
  std::string metrics_json;  // this run's registry, already serialized
};

template <typename Sweep>
RunResult timed_sweep(Count n_valid, std::size_t windows, Sweep&& sweep) {
  obs::Registry registry;
  traffic::SweepOptions opts;
  opts.metrics = &registry;
  const auto t0 = std::chrono::steady_clock::now();
  traffic::WindowSweepResult result = sweep(opts);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.packets_per_sec =
      static_cast<double>(n_valid) * static_cast<double>(windows) /
      out.seconds;
  out.merged = std::move(result.merged);
  const obs::RegistrySnapshot snap = registry.snapshot();
  const obs::Labels::value_type sampling{"stage", "sampling"};
  for (const auto& h : snap.histograms) {
    if (h.name == obs::names::kSweepStageDurationNs &&
        std::find(h.labels.begin(), h.labels.end(), sampling) !=
            h.labels.end()) {
      out.sampling_ns += h.sum;
    }
  }
  std::ostringstream metrics;
  obs::write_json(metrics, snap);
  out.metrics_json = std::move(metrics).str();
  return out;
}

RunResult run_sweep(const graph::Graph& g, Count n_valid,
                    std::size_t windows, traffic::Quantity quantity,
                    std::uint64_t seed, ThreadPool& pool,
                    traffic::SynthesisMode synthesis,
                    traffic::WindowCaptureSink* capture = nullptr) {
  return timed_sweep(n_valid, windows, [&](traffic::SweepOptions& opts) {
    opts.synthesis = synthesis;
    opts.capture = capture;
    return traffic::sweep_windows(g, traffic::RateModel{}, n_valid, windows,
                                  quantity, seed, pool, opts);
  });
}

// Replay axis (PR 10): the same stage graph driven from a window store —
// block read + varint decode replaces synthesis, so the per-window cost
// is memory/IO bandwidth, not sampling.  The merged result must be
// byte-identical to the capturing sweep.
RunResult run_replay(store::WindowStoreReader& reader, std::size_t windows,
                     Count n_valid, traffic::Quantity quantity,
                     ThreadPool& pool) {
  return timed_sweep(n_valid, windows, [&](traffic::SweepOptions& opts) {
    return traffic::sweep_windows(reader, windows, quantity, pool, opts);
  });
}

// One count-space window drawn directly: Σ (forward + backward) must equal
// n_valid exactly — the Multinomial split conserves packet mass by
// construction, so any drift is a bug, not noise.
bool counts_mass_conserved(const graph::Graph& g, Count n_valid,
                           std::uint64_t seed) {
  traffic::SyntheticTrafficGenerator gen(
      g, traffic::make_edge_rates(g, traffic::RateModel{}, Rng(seed)),
      Rng(seed + 1));
  std::vector<traffic::EdgePacketCounts> pairs;
  gen.next_window_counts(n_valid, pairs);
  Count total = 0;
  for (const auto& pc : pairs) total += pc.forward + pc.backward;
  return total == n_valid;
}

// Re-indents a serialized JSON document to sit at nesting depth 2.
std::string indent_block(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    out += c;
    if (c == '\n') out += "  ";
  }
  while (!out.empty() && (out.back() == ' ' || out.back() == '\n')) {
    out.pop_back();
  }
  return out;
}

void write_run_json(std::ostream& out, const char* name,
                    const RunResult& r) {
  out << "  \"" << name << "\": {\"seconds\": " << r.seconds
      << ", \"packets_per_sec\": " << r.packets_per_sec
      << ",\n    \"metrics\": " << indent_block(r.metrics_json)
      << "},\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cli::Args::parse(argc, argv, 1);
  const bool smoke = args.get_flag("smoke");
  const bool expected_only = args.get_flag("expected-only");
  const bool replay_only = args.get_flag("replay-only");
  const bool counts_only =
      args.get_flag("counts-only") || expected_only || replay_only;
  const auto windows = static_cast<std::size_t>(
      args.get_int("windows", smoke ? 4 : 64));
  const auto n_valid =
      static_cast<Count>(args.get_int("nvalid", smoke ? 20000 : 1000000));
  const auto nodes = static_cast<NodeId>(
      args.get_int("nodes", smoke ? 20000 : 150000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  const std::string out_path =
      args.get_string("out", "BENCH_sweep.json");
  const std::string store_dir =
      args.get_string("store-dir", out_path + ".store");

  const auto params = core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3,
                                                   1.0);
  Rng rng(17);
  const auto net = core::generate_underlying(params, nodes, rng);
  const auto quantity = traffic::Quantity::kUndirectedDegree;
  ThreadPool pool;  // default: one worker per hardware thread

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("bench_sweep: %zu windows x %llu packets, %llu nodes, "
              "%zu edges, nproc %u, %zu pool threads\n",
              windows, static_cast<unsigned long long>(n_valid),
              static_cast<unsigned long long>(net.graph.num_nodes()),
              net.graph.num_edges(), nproc, pool.size());

  const bool mass_ok = expected_only || replay_only ||
                       counts_mass_conserved(net.graph, n_valid, seed);
  if (!expected_only && !replay_only) {
    std::printf("counts mass conservation: %s\n", mass_ok ? "ok" : "FAIL");
  }

  RunResult fast;
  if (!counts_only) {
    fast = run_sweep(net.graph, n_valid, windows, quantity, seed, pool,
                     traffic::SynthesisMode::kPacket);
    std::printf("fast:   %.3fs (%.2fM packets/s)\n", fast.seconds,
                fast.packets_per_sec / 1e6);
  }
  const std::vector<Count> scaling_nvalid =
      smoke ? std::vector<Count>{10000, 100000}
            : std::vector<Count>{100000, 1000000, 10000000};
  const std::size_t scaling_windows = smoke ? 4 : 8;

  RunResult counts;
  bool counts_sane = true;
  std::vector<double> per_window;
  std::vector<double> ratios;
  if (!expected_only && !replay_only) {
    counts = run_sweep(net.graph, n_valid, windows, quantity, seed, pool,
                       traffic::SynthesisMode::kMultinomial);
    std::printf("counts: %.3fs (%.2fM packets/s)\n", counts.seconds,
                counts.packets_per_sec / 1e6);
    counts_sane = counts.merged.total() > 0;

    // Counts-path scaling axis: per-window cost vs. N_V (the whole point
    // of count-space synthesis is that this curve is nearly flat per
    // decade).
    for (const Count nv : scaling_nvalid) {
      const RunResult r =
          run_sweep(net.graph, nv, scaling_windows, quantity, seed, pool,
                    traffic::SynthesisMode::kMultinomial);
      per_window.push_back(r.seconds /
                           static_cast<double>(scaling_windows));
      std::printf("counts scaling: nvalid=%llu %.2fms/window\n",
                  static_cast<unsigned long long>(nv),
                  per_window.back() * 1e3);
    }
    for (std::size_t i = 1; i < per_window.size(); ++i) {
      ratios.push_back(per_window[i] / per_window[i - 1]);
      std::printf("counts scaling ratio (x10 packets): %.3fx\n",
                  ratios.back());
    }

  }

  // Expected (analytic) axis (PR 9): one deterministic evaluation per
  // window size, no RNG.  The same N_V ladder as the counts axis, so the
  // two curves are directly comparable: expected cost should be flat in
  // N_V, and one evaluation replaces the whole sampled ensemble.
  std::vector<double> expected_per_eval;
  std::vector<double> expected_ratios;
  bool expected_sane = true;
  if (!replay_only) {
    for (const Count nv : scaling_nvalid) {
      obs::Registry registry;
      const auto t0 = std::chrono::steady_clock::now();
      const auto win = traffic::evaluate_expected_window(
          net.graph, traffic::RateModel{}, nv, quantity, seed, &registry);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      expected_per_eval.push_back(seconds);
      const double mass = win.mass.total_mass();
      if (std::abs(mass - 1.0) > 1e-9) expected_sane = false;
      std::printf("expected: nvalid=%llu %.2fms/eval (mass=%.9f)\n",
                  static_cast<unsigned long long>(nv), seconds * 1e3, mass);
    }
    for (std::size_t i = 1; i < expected_per_eval.size(); ++i) {
      expected_ratios.push_back(expected_per_eval[i] /
                                expected_per_eval[i - 1]);
      std::printf("expected scaling ratio (x10 packets): %.3fx\n",
                  expected_ratios.back());
    }
  }
  // One analytic evaluation vs. the counts sweep it replaces — the
  // configured `windows`-window ensemble (64 by default, the ROADMAP
  // framing) costed at the top of the N_V ladder from the per-window
  // scaling measurements.
  double expected_speedup = 0.0;
  if (!expected_only && !per_window.empty()) {
    expected_speedup = per_window.back() * static_cast<double>(windows) /
                       expected_per_eval.back();
    std::printf("expected vs counts sweep at nvalid=%llu: %.1fx\n",
                static_cast<unsigned long long>(scaling_nvalid.back()),
                expected_speedup);
  }

  // Replay axis (PR 10): capture the counts ensemble once into a window
  // store, then drive the same sweep from the store — block read + varint
  // decode replaces synthesis.  Replay must reproduce the capturing
  // sweep byte-identically, and the store must stay under
  // 8 payload bytes per (pair, count) record.
  RunResult captured, replay;
  store::WindowStoreWriter::Stats wstats;
  bool replay_identical = true;
  double replay_speedup = 0.0;
  double replay_sweep_ratio = 0.0;
  double replay_bytes_per_record = 0.0;
  const bool run_replay_axis = replay_only || !counts_only;
  if (run_replay_axis) {
    store::WriterOptions wopts;
    wopts.node_domain = net.graph.num_nodes();
    wopts.seed = seed;
    {
      store::WindowStoreWriter writer(store_dir, wopts);
      captured = run_sweep(net.graph, n_valid, windows, quantity, seed,
                           pool, traffic::SynthesisMode::kMultinomial,
                           &writer);
      writer.finish();
      wstats = writer.stats();
    }
    if (wstats.records > 0) {
      replay_bytes_per_record = static_cast<double>(wstats.payload_bytes) /
                                static_cast<double>(wstats.records);
    }
    std::printf("capture: %.3fs, store: %llu windows, %llu records, "
                "%llu B (%.2f payload B/record)\n",
                captured.seconds,
                static_cast<unsigned long long>(wstats.blocks),
                static_cast<unsigned long long>(wstats.records),
                static_cast<unsigned long long>(wstats.file_bytes),
                replay_bytes_per_record);

    store::WindowStoreReader reader(store_dir);
    replay = run_replay(reader, windows, n_valid, quantity, pool);
    replay_identical =
        replay.merged.sorted() == captured.merged.sorted() &&
        replay.merged.total() == captured.merged.total();
    // The per-window acceptance ratio: what synthesis costs to produce a
    // window's records (the counts path's sampling stage) vs. what replay
    // pays instead (block read + checksum + decode, accounted in the same
    // stage slot).  Accumulation and binning are shared verbatim by both
    // paths, so this isolates the work the store actually replaces; the
    // whole-sweep wall ratio is reported alongside it.  In --replay-only
    // mode the capturing run is the synthesis baseline.
    const auto& synth = replay_only ? captured : counts;
    replay_speedup = static_cast<double>(synth.sampling_ns) /
                     static_cast<double>(replay.sampling_ns);
    replay_sweep_ratio = synth.seconds / replay.seconds;
    const double sweep_ratio = replay_sweep_ratio;
    std::printf("replay: %.3fs (%.2fM packets/s, %.2fms/window), "
                "identical: %s\n",
                replay.seconds, replay.packets_per_sec / 1e6,
                replay.seconds / static_cast<double>(windows) * 1e3,
                replay_identical ? "true" : "false");
    std::printf("per-window synthesis %.2fms vs replay read %.2fms: "
                "%.1fx (whole sweep: %.1fx)\n",
                static_cast<double>(synth.sampling_ns) / 1e6 /
                    static_cast<double>(windows),
                static_cast<double>(replay.sampling_ns) / 1e6 /
                    static_cast<double>(windows),
                replay_speedup, sweep_ratio);
  }

  if (!counts_only) {
    const double counts_vs_fast =
        counts.packets_per_sec / fast.packets_per_sec;
    std::printf("speedup counts/fast: %.2fx\n", counts_vs_fast);

    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"sweep\",\n";
    out << "  \"config\": {\"windows\": " << windows
        << ", \"nvalid\": " << n_valid << ", \"nodes\": " << nodes
        << ", \"edges\": " << net.graph.num_edges() << ", \"quantity\": \""
        << traffic::quantity_name(quantity) << "\", \"seed\": " << seed
        << ", \"nproc\": " << nproc << ", \"pool_threads\": " << pool.size()
        << "},\n";
    write_run_json(out, "fast", fast);
    write_run_json(out, "counts", counts);
    out << "  \"speedup_counts_vs_fast\": " << counts_vs_fast << ",\n";
    out << "  \"counts_mass_conserved\": " << (mass_ok ? "true" : "false")
        << ",\n";
    out << "  \"scaling\": {\"windows\": " << scaling_windows
        << ", \"points\": [";
    for (std::size_t i = 0; i < scaling_nvalid.size(); ++i) {
      out << (i ? ", " : "") << "{\"nvalid\": " << scaling_nvalid[i]
          << ", \"seconds_per_window\": " << per_window[i] << "}";
    }
    out << "],\n    \"ratios\": [";
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      out << (i ? ", " : "") << ratios[i];
    }
    out << "]},\n";
    out << "  \"expected\": {\"points\": [";
    for (std::size_t i = 0; i < scaling_nvalid.size(); ++i) {
      out << (i ? ", " : "") << "{\"nvalid\": " << scaling_nvalid[i]
          << ", \"seconds_per_eval\": " << expected_per_eval[i] << "}";
    }
    out << "],\n    \"ratios\": [";
    for (std::size_t i = 0; i < expected_ratios.size(); ++i) {
      out << (i ? ", " : "") << expected_ratios[i];
    }
    out << "],\n    \"counts_sweep_seconds_over_expected_eval\": "
        << expected_speedup << "},\n";
    write_run_json(out, "replay", replay);
    out << "  \"replay_store\": {\"windows\": " << wstats.blocks
        << ", \"records\": " << wstats.records
        << ", \"payload_bytes\": " << wstats.payload_bytes
        << ", \"file_bytes\": " << wstats.file_bytes
        << ",\n    \"payload_bytes_per_record\": " << replay_bytes_per_record
        << ", \"bytes_per_window\": "
        << (wstats.blocks > 0
                ? static_cast<double>(wstats.file_bytes) /
                      static_cast<double>(wstats.blocks)
                : 0.0)
        << ", \"capture_seconds\": " << captured.seconds << "},\n";
    out << "  \"speedup_synthesis_vs_replay_per_window\": " << replay_speedup
        << ",\n";
    out << "  \"speedup_replay_vs_counts\": " << replay_sweep_ratio << ",\n";
    out << "  \"replay_identical\": "
        << (replay_identical ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  bool ok = true;
  if (!mass_ok) {
    std::fprintf(stderr,
                 "FAIL: counts window lost or invented packets\n");
    ok = false;
  }
  if (!counts_sane) {
    std::fprintf(stderr, "FAIL: counts sweep produced an empty result\n");
    ok = false;
  }
  if (!expected_sane) {
    std::fprintf(stderr,
                 "FAIL: expected mass does not sum to 1\n");
    ok = false;
  }
  if (!replay_identical) {
    std::fprintf(stderr,
                 "FAIL: replay diverged from the capturing sweep\n");
    ok = false;
  }
  if (run_replay_axis && replay_bytes_per_record > 8.0) {
    std::fprintf(stderr,
                 "FAIL: store exceeds 8 payload bytes per record\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
