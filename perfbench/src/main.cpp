// palu_perfbench: the end-to-end benchmark of the palu library.
//
//   palu_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// Workloads: sweep_counts, replay, serve, expected (see README.md).  A run
// sets up its inputs several times (setup_s is the median), runs one
// discarded warm-up pass, then timed passes for S seconds (and until the
// publish-latency sample floor is met), checks its outputs, and prints
// as its last stdout line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The line before it records the run's provenance (host
// fingerprint, pinned pool size, seed, sizes, and the share of CPU time
// the hypervisor stole while the passes ran).  --trace 1 also prints the
// layer table and tracing overhead and writes a Chrome trace-event file
// to .perfbench_work/.  Exit code: 0 when every check passed, 1 when a
// check failed or the run broke, 2 on bad arguments.
#include <cpuid.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd = {
    "setup_s",     "windows_per_s",  "cpu_ms_per_window",
    "peak_rss_mb", "publish_p50_ms", "publish_tail_ms"};

const std::vector<std::string> kPerLayer = {
    "traffic.window_counts_ms",    "traffic.ingest_counts_ms",
    "traffic.add_ns_per_packet",   "traffic.histogram_ms",
    "stats.binning_ms",            "parallel.scaling_efficiency",
    "store.append_ms",             "store.read_window_ms",
    "store.checksum_gb_per_s",     "store.payload_bytes_per_record",
    "io.tail_parse_ns_per_packet", "serve.queue_ns_per_packet",
    "core.refit_window_ms",        "fit.tumbling_palu_ms",
    "fit.sliding_palu_ms",         "fit.sliding_palu_max_ms",
    "fit.zm_ms",                   "traffic.expected_prepare_ms",
    "traffic.expected_evaluate_ms", "traffic.expected_aggregates_ms",
    "math.vexp_ns_per_elem",       "math.vlog1p_ns_per_elem",
    "math.binomial_bins_us"};

/// CPU brand string via cpuid (no file read).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "palu_perfbench: %s\nusage: palu_perfbench --workload "
               "{sweep_counts|replay|serve|expected} --seed N --seconds S "
               "--trace 0|1 [--smoke]\n",
               why);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
      } else if (a == "--smoke") {
        cfg.smoke = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  if (!(cfg.seconds >= 0.0)) usage("--seconds must be >= 0");
  // Pinned below nproc (one core stays free for the rest of the process
  // and the host), at most 2; never ThreadPool's hardware default.
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.pool_threads = std::clamp<std::size_t>(nproc - 1, 1, 2);
  return cfg;
}

void print_provenance(const Config& cfg, const Sizes& sz,
                      std::size_t setup_repeats, std::size_t timed_passes,
                      double host_steal_pct) {
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": "
      "%d, \"smoke\": %s, \"seconds\": %s, \"pool_threads\": %zu, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"setup_repeats\": %zu, \"timed_passes\": "
      "%zu, \"graph_nodes\": %llu, \"sweep_nv\": %llu, \"sweep_windows\": "
      "%zu, \"replay_windows\": %zu, \"serve_nv\": %llu, "
      "\"serve_windows\": %zu, \"latency_floor\": %zu, "
      "\"host_steal_pct\": %s}}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.trace ? 1 : 0, cfg.smoke ? "true" : "false",
      num(cfg.seconds).c_str(), cfg.pool_threads,
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_BUILD_TYPE).c_str(), setup_repeats,
      timed_passes, static_cast<unsigned long long>(sz.nodes),
      static_cast<unsigned long long>(sz.sweep_nv), sz.sweep_windows,
      sz.replay_windows, static_cast<unsigned long long>(sz.serve_nv),
      sz.serve_windows, sz.latency_floor, num(host_steal_pct).c_str());
}

/// Prints the result line; false when a listed metric is missing or not a
/// finite number.
bool print_result(const Outcome& out, const std::vector<std::string>& names) {
  std::string metrics;
  bool ok = true;
  for (const auto& name : names) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "palu_perfbench: metric %s missing\n",
                   name.c_str());
      ok = false;
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num(it->second) +
               ", \"unit\": \"" + unit_of(name) + "\"}";
  }
  if (!ok) return false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return true;
}

/// Traced run: untraced reference passes, traced passes with the layer
/// table, the primary workload's layer metrics, and short traced probes
/// of the other workloads for the layer metrics they own.
std::size_t traced_run(const Env& env, Workload& w,
                       const palu::core::UnderlyingNetwork& net,
                       Outcome& out) {
  const double third = env.cfg.seconds / 3.0;
  const PassSeries untraced = run_passes(
      third, env.sizes.min_passes, [&] { return w.run_pass(out); });

  Tracer tracer;
  w.trace_setup(tracer);
  const std::vector<Tracer::Span> setup_spans = tracer.spans();
  tracer.clear();
  const std::size_t k = w.traced_windows();
  const PassSeries traced = run_passes(third, 1, [&] {
    tracer.clear();  // the warm-up and earlier passes are not kept
    std::size_t done = 0;
    PassSample s = time_pass(k, [&] { done = w.run_traced(tracer, k, out); });
    s.windows = done;
    // Fit replays are extra work the untraced run never does; keep them
    // out of the traced rate so the overhead reflects the spans alone.
    for (const auto& span : tracer.spans()) {
      if (span.track == Tracer::kReplayTrack) {
        s.wall_s -= static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
    return s;
  });
  const std::vector<Tracer::Span> spans = tracer.spans();
  const std::size_t windows = traced.passes.back().windows;
  print_layer_table(env.cfg.workload, layer_stats(spans), windows,
                    untraced.cpu_ms_per_window(), untraced.windows_per_s(),
                    traced.windows_per_s());

  std::vector<Tracer::Span> all = setup_spans;
  all.insert(all.end(), spans.begin(), spans.end());
  w.layer_metrics(layer_stats(all), windows, out);
  const std::string path = kWorkDir + "/trace-" + env.cfg.workload +
                           "-seed" + std::to_string(env.cfg.seed) + ".json";
  if (Tracer::write_chrome(all, path)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), all.size());
  }

  for (const auto& name : workload_names()) {
    if (name == env.cfg.workload) continue;
    auto probe = make_workload(name, env);
    probe->prepare(net);
    Tracer pt;
    probe->trace_setup(pt);
    Outcome po;
    const std::size_t done =
        probe->run_traced(pt, env.sizes.probe_windows, po);
    probe->layer_metrics(layer_stats(pt.spans()), done, po);
    for (const auto& [key, value] : po.metrics) out.metrics.emplace(key, value);
    std::printf("probe %s: %zu traced windows\n", name.c_str(), done);
  }
  return untraced.passes.size() + traced.passes.size();
}

int run(const Config& cfg) {
  const Sizes sizes = sizes_for(cfg);
  std::filesystem::create_directories(kWorkDir);
  palu::ThreadPool pool(cfg.pool_threads);
  const Env env{cfg, sizes, &pool};
  std::printf("palu_perfbench: workload=%s seed=%llu seconds=%s trace=%d "
              "pool_threads=%zu%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              num(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.pool_threads,
              cfg.smoke ? " (smoke)" : "");

  // Set-up: graph build + input preparation, repeated as Sizes says; the
  // last one stays.
  std::unique_ptr<palu::core::UnderlyingNetwork> net;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::int64_t setup_ns = 0;
  while (setup_s.size() < sizes.setup_max_repeats &&
         (setup_s.size() < sizes.setup_repeats ||
          static_cast<double>(setup_ns) * 1e-9 < sizes.setup_min_s)) {
    w.reset();
    net.reset();
    const std::int64_t t0 = now_ns();
    net = std::make_unique<palu::core::UnderlyingNetwork>(build_graph(sizes));
    w = make_workload(cfg.workload, env);
    w->prepare(*net);
    const std::int64_t ns = now_ns() - t0;
    setup_ns += ns;
    setup_s.push_back(static_cast<double>(ns) * 1e-9);
  }
  std::printf("graph: %llu nodes, %zu edges; set-up %s s (median of %zu)\n",
              static_cast<unsigned long long>(net->graph.num_nodes()),
              net->graph.num_edges(), num(median(setup_s)).c_str(),
              setup_s.size());

  Outcome out;
  std::size_t passes = 0;
  const HostTicks ticks0 = host_ticks();
  if (!cfg.trace) {
    bool warmup = true;
    const PassSeries series = run_passes(
        cfg.seconds, sizes.min_passes,
        [&] {
          const PassSample s = w->run_pass(out);
          if (warmup) out.publish_ms.clear();  // the warm-up's samples go too
          warmup = false;
          return s;
        },
        [&] { return w->wants_more(out); });
    passes = series.passes.size();
    out.set("setup_s", median(setup_s));
    out.set("windows_per_s", series.windows_per_s());
    out.set("cpu_ms_per_window", series.cpu_ms_per_window());
    out.set("publish_p50_ms", percentile(out.publish_ms, 50));
    out.set("publish_tail_ms", percentile(out.publish_ms, 90));
    std::printf("publish latency: %zu samples, p50 and p90\n",
                out.publish_ms.size());
    std::printf("pass windows/s:");
    for (const auto& p : series.passes) {
      std::printf(" %.2f", static_cast<double>(p.windows) / p.wall_s);
    }
    std::printf("\n");
    std::printf("timed: %zu passes, %.3f windows/s, %.3f cpu ms/window; "
                "discarded warm-up pass %.3f windows/s\n",
                passes, series.windows_per_s(), series.cpu_ms_per_window(),
                static_cast<double>(series.warmup.windows) /
                    series.warmup.wall_s);
  } else {
    passes = traced_run(env, *w, *net, out);
  }
  const double host_steal = steal_pct(ticks0, host_ticks());
  w->check(out);
  out.set("peak_rss_mb", peak_rss_mb());
  w.reset();  // removes the workload's scratch files

  print_provenance(cfg, sizes, setup_s.size(), passes, host_steal);
  std::fflush(stdout);
  if (!print_result(out, cfg.trace ? kPerLayer : kEndToEnd)) return 1;
  return out.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead serve daemon must not kill us
  const Config cfg = parse_args(argc, argv);
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "palu_perfbench: %s\n", e.what());
    return 1;
  }
}
