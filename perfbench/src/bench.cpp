// Harness implementation: clocks, statistics, the pass loop, the tracer
// and the layer table (see bench.hpp).
#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

HostTicks host_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...", in clock ticks summed over every CPU.
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (auto& x : v) {
    if (!(in >> x)) return t;
  }
  t.steal = v[7];
  for (const auto x : v) t.total += x;
  return t;
}

double steal_pct(const HostTicks& from, const HostTicks& to) {
  if (to.total <= from.total) return -1.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Sizes sizes_for(const Config& cfg) {
  Sizes s;
  if (cfg.smoke) {
    s.nodes = 20000;
    s.sweep_nv = 20000;
    s.sweep_subseeds = 2;
    s.sweep_windows = 4;
    s.replay_windows = 4;
    s.check_windows = 16;
    s.serve_nv = 20000;
    s.serve_windows = 3;
    s.expected_ladder = {10000, 100000};
    s.setup_repeats = 1;
    s.setup_min_s = 0.0;
    s.min_passes = 2;
    s.latency_floor = 0;
  }
  return s;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t r) {
  return palu::Rng(seed).fork(1000 + r)();
}

palu::core::UnderlyingNetwork build_graph(const Sizes& sizes) {
  const auto params =
      palu::core::PaluParams::solve_hubs(6.0, 0.35, 0.2, 2.3, 1.0);
  palu::Rng rng(17);
  return palu::core::generate_underlying(params, sizes.nodes, rng);
}

const char* unit_of(const std::string& metric) {
  static const std::map<std::string, const char*> units = {
      {"setup_s", "s"},
      {"windows_per_s", "1/s"},
      {"cpu_ms_per_window", "ms"},
      {"peak_rss_mb", "MiB"},
      {"publish_p50_ms", "ms"},
      {"publish_tail_ms", "ms"},
      {"traffic.window_counts_ms", "ms"},
      {"traffic.ingest_counts_ms", "ms"},
      {"traffic.add_ns_per_packet", "ns"},
      {"traffic.histogram_ms", "ms"},
      {"stats.binning_ms", "ms"},
      {"parallel.scaling_efficiency", "ratio"},
      {"store.append_ms", "ms"},
      {"store.read_window_ms", "ms"},
      {"store.checksum_gb_per_s", "GB/s"},
      {"store.payload_bytes_per_record", "bytes"},
      {"io.tail_parse_ns_per_packet", "ns"},
      {"serve.queue_ns_per_packet", "ns"},
      {"core.refit_window_ms", "ms"},
      {"fit.tumbling_palu_ms", "ms"},
      {"fit.sliding_palu_ms", "ms"},
      {"fit.sliding_palu_max_ms", "ms"},
      {"fit.zm_ms", "ms"},
      {"traffic.expected_prepare_ms", "ms"},
      {"traffic.expected_evaluate_ms", "ms"},
      {"traffic.expected_aggregates_ms", "ms"},
      {"math.vexp_ns_per_elem", "ns"},
      {"math.vlog1p_ns_per_elem", "ns"},
      {"math.binomial_bins_us", "us"},
  };
  const auto it = units.find(metric);
  return it == units.end() ? "" : it->second;
}

void Outcome::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

PassSample time_pass(std::size_t windows,
                     const std::function<void()>& body) {
  const double c0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  body();
  PassSample s;
  s.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  s.cpu_s = process_cpu_s() - c0;
  s.windows = windows;
  return s;
}

double PassSeries::windows_per_s() const {
  std::vector<double> v;
  for (const auto& p : passes) {
    v.push_back(static_cast<double>(p.windows) / p.wall_s);
  }
  return median(v);
}

double PassSeries::cpu_ms_per_window() const {
  std::vector<double> v;
  for (const auto& p : passes) {
    v.push_back(p.cpu_s * 1e3 / static_cast<double>(p.windows));
  }
  return median(v);
}

PassSeries run_passes(double seconds, std::size_t min_passes,
                      const std::function<PassSample()>& pass,
                      const std::function<bool()>& more) {
  PassSeries series;
  series.warmup = pass();  // discarded
  const std::int64_t start = now_ns();
  while (series.passes.size() < min_passes ||
         static_cast<double>(now_ns() - start) * 1e-9 < seconds ||
         (more && more())) {
    series.passes.push_back(pass());
  }
  return series;
}

// ------------------------------------------------------------------- tracer

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer) {
  span_.name = name;
  span_.parent = parent;
  span_.id = tracer.next_id();
  span_.track = this_track();
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  span_.end_ns = now_ns();
  std::lock_guard<std::mutex> lock(tracer_.mutex_);
  tracer_.spans_.push_back(span_);
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

std::uint32_t Tracer::this_track() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t track = next.fetch_add(1);
  return track;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent,
                             std::uint32_t track, std::int64_t start_ns,
                             std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.id = ++last_id_;
  s.parent = parent;
  s.track = track;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool Tracer::write_chrome(const std::vector<Span>& all,
                          const std::string& path) {
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
    << kReplayTrack << ", \"args\": {\"name\": \"fit replays\"}}";
  char buf[320];
  for (const Span& s : all) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu}}",
                  s.name, s.track,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

std::map<std::string, LayerStat> layer_stats(
    const std::vector<Tracer::Span>& spans) {
  const auto ms = [](const Tracer::Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  };
  std::map<std::uint64_t, double> child_ms;
  for (const auto& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += ms(s);
  }
  std::map<std::string, LayerStat> out;
  for (const auto& s : spans) {
    const auto it = child_ms.find(s.id);
    const double self_ms = ms(s) - (it == child_ms.end() ? 0.0 : it->second);
    LayerStat& st = out[s.name];
    ++st.calls;
    st.total_ms += self_ms;
    st.max_ms = std::max(st.max_ms, self_ms);
    st.each_ms.push_back(self_ms);
    st.wall_ms.push_back(ms(s));
  }
  return out;
}

void print_layer_table(const std::string& workload,
                       const std::map<std::string, LayerStat>& layers,
                       std::size_t windows, double untraced_cpu_ms,
                       double untraced_wps, double traced_wps) {
  const double w = static_cast<double>(std::max<std::size_t>(windows, 1));
  std::printf("\nlayer table: %s, %zu traced windows (self time per "
              "window, summed over threads)\n",
              workload.c_str(), windows);
  std::printf("  %-32s %10s %12s %8s\n", "span", "calls", "ms/window",
              "share");
  double sum = 0.0;
  for (const auto& [name, st] : layers) sum += st.total_ms / w;
  for (const auto& [name, st] : layers) {
    const double per = st.total_ms / w;
    std::printf("  %-32s %10zu %12.4f %7.1f%%\n", name.c_str(), st.calls,
                per, untraced_cpu_ms > 0 ? 100.0 * per / untraced_cpu_ms : 0);
  }
  std::printf("  %-32s %10s %12.4f %7.1f%%\n", "sum of layers", "", sum,
              untraced_cpu_ms > 0 ? 100.0 * sum / untraced_cpu_ms : 0.0);
  std::printf("  %-32s %10s %12.4f %7.1f%%\n", "unexplained", "",
              untraced_cpu_ms - sum,
              untraced_cpu_ms > 0
                  ? 100.0 * (untraced_cpu_ms - sum) / untraced_cpu_ms
                  : 0.0);
  std::printf("  %-32s %10s %12.4f\n", "untraced cpu_ms_per_window", "",
              untraced_cpu_ms);
  std::printf("tracing overhead: traced %.3f vs untraced %.3f windows/s "
              "(%+.1f%%)\n",
              traced_wps, untraced_wps,
              untraced_wps > 0 ? 100.0 * (traced_wps / untraced_wps - 1.0)
                               : 0.0);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep_counts", "replay",
                                                 "serve", "expected"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Env& env) {
  if (name == "sweep_counts") return make_sweep_counts(env);
  if (name == "replay") return make_replay(env);
  if (name == "serve") return make_serve(env);
  if (name == "expected") return make_expected(env);
  return nullptr;
}

}  // namespace perfbench
