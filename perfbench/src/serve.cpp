// The serve workload: an in-process ServeDaemon fed a pre-rendered text
// trace through a pipe (its stdin), with blocking backpressure and
// N_V = 1e5 windows — a closed loop: the generator thread can run ahead
// of the fit stage only by the pipe buffer plus the queue capacity.
//
// Publish latency of window i: from the generator's write() of the
// window's last trace line returning until the daemon's result line for
// window i reaches the line-stamping output stream.
//
// The traced pass rebuilds the daemon's per-window path from public
// calls (TraceTailReader::feed → BoundedRecordQueue push/pop across two
// threads → WindowAccumulator::add → histogram →
// WindowedStreamingEstimator::refit_window) and replays refit_window's
// fit ladder calls (robust_fit_palu[_warm], fit_zipf_mandelbrot) on the
// same inputs, attributed as its children.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <optional>
#include <streambuf>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace palu;

constexpr traffic::Quantity kQuantity = traffic::Quantity::kUndirectedDegree;
constexpr std::size_t kChunk = 65536;  // the daemon's read size
// The serve stream is drawn once, from this fixed seed: a window's fit cost
// depends strongly on its content (the sliding refit is bimodal), so a
// stream redrawn per --seed spreads windows/s by ~50% between seeds.
constexpr std::uint64_t kStreamSeed = 29;

/// Output stream buffer that stamps every completed line.
class StampingBuf final : public std::streambuf {
 public:
  std::vector<std::string> lines;
  std::vector<std::int64_t> stamps;

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    put(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      current_ += c;
      return;
    }
    stamps.push_back(now_ns());
    lines.push_back(std::move(current_));
    current_.clear();
  }
  std::string current_;
};

/// Writes all of [p, p + n) to fd; false on a write error (EPIPE after an
/// early daemon exit).
bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// "key=value" fields of a published result line.
std::map<std::string, std::string> parse_fields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    const std::string tok = line.substr(pos, end - pos);
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) out[tok.substr(0, eq)] = tok.substr(eq + 1);
    pos = end + 1;
  }
  return out;
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The parameter fields a result line publishes for one lane.
void lane_fields(const char* prefix, const core::StreamingFitSnapshot& lane,
                 std::map<std::string, std::string>& out) {
  const std::string p(prefix);
  out[p + "_state"] = std::string(core::to_string(lane.freshness));
  out[p + "_alpha"] = g17(lane.fit.alpha);
  out[p + "_c"] = g17(lane.fit.c);
  out[p + "_mu"] = g17(lane.fit.mu);
  out[p + "_u"] = g17(lane.fit.u);
  out[p + "_l"] = g17(lane.fit.l);
  out[p + "_zm_alpha"] = g17(lane.zm.alpha);
  out[p + "_zm_delta"] = g17(lane.zm.delta);
}

/// Undirected-degree histogram of a window by plain counting: distinct
/// unordered non-self pairs, one degree per endpoint.
stats::DegreeHistogram plain_degree_histogram(
    std::span<const traffic::Packet> packets, NodeId num_nodes) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(packets.size());
  for (const auto& p : packets) {
    if (p.src == p.dst) continue;
    pairs.emplace_back(std::min(p.src, p.dst), std::max(p.src, p.dst));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<Count> degree(num_nodes, 0);
  for (const auto& [a, b] : pairs) {
    ++degree[a];
    ++degree[b];
  }
  stats::DegreeHistogram h;
  for (const Count d : degree) {
    if (d > 0) h.add(d);
  }
  return h;
}

/// One lane's fit, as refit_window computes it, for the replay spans.
struct LaneReplay {
  core::RobustPaluFit palu;
  std::optional<fit::ZmFitResult> zm;
};

class Serve final : public Workload {
 public:
  explicit Serve(const Env& env) : env_(env) {}

  void prepare(const core::UnderlyingNetwork& net) override {
    net_ = &net;
    const Count nv = env_.sizes.serve_nv;
    // Full windows plus half a window that must never be published.
    const std::size_t n = env_.sizes.serve_windows * nv + nv / 2;
    traffic::SyntheticTrafficGenerator gen(net.graph, traffic::RateModel{},
                                           Rng(kStreamSeed));
    packets_.assign(n, traffic::Packet{0, 0});
    gen.next_batch(packets_);
    // --seed relabels node ids with a seeded permutation (Fisher–Yates):
    // every byte parsed and every id hashed changes, no fitted value does.
    std::vector<NodeId> label(net.graph.num_nodes());
    for (std::size_t i = 0; i < label.size(); ++i) label[i] = i;
    Rng rng = Rng(env_.cfg.seed).fork(3);
    for (std::size_t i = label.size(); i > 1; --i) {
      std::swap(label[i - 1], label[rng() % i]);
    }
    for (auto& p : packets_) p = {label[p.src], label[p.dst]};
    text_.clear();
    text_.reserve(n * 14);
    window_end_.clear();
    char buf[48];
    for (std::size_t i = 0; i < n; ++i) {
      char* p = std::to_chars(buf, buf + 20, packets_[i].src).ptr;
      *p++ = ' ';
      p = std::to_chars(p, p + 20, packets_[i].dst).ptr;
      *p++ = '\n';
      text_.append(buf, p);
      if ((i + 1) % nv == 0) window_end_.push_back(text_.size());
    }
  }

  PassSample run_pass(Outcome& out) override {
    const std::size_t k = window_end_.size();
    int fds[2];
    if (::pipe(fds) != 0 || ::dup2(fds[0], STDIN_FILENO) < 0) {
      throw std::runtime_error("serve: cannot set up the input pipe");
    }
    ::close(fds[0]);

    StampingBuf stamped;
    std::ostream os(&stamped);
    obs::Registry registry;
    serve::ServeOptions opts;
    opts.input_path = "-";
    opts.window_packets = env_.sizes.serve_nv;
    opts.quantity = kQuantity;
    opts.backpressure = serve::BackpressurePolicy::kBlock;
    opts.metrics = &registry;
    opts.out = &os;
    opts.install_signal_handlers = false;

    std::vector<std::int64_t> written(k, 0);
    double writer_cpu = 0.0;
    const double c0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    int rc = 0;
    {
      serve::ServeDaemon daemon(opts);
      std::thread writer([&] {
        const double tc = thread_cpu_s();
        std::size_t pos = 0;
        bool ok = true;
        for (std::size_t w = 0; w < k && ok; ++w) {
          while (ok && pos < window_end_[w]) {
            const std::size_t n = std::min(kChunk, window_end_[w] - pos);
            ok = write_all(fds[1], text_.data() + pos, n);
            pos += n;
          }
          written[w] = now_ns();
        }
        if (ok) write_all(fds[1], text_.data() + pos, text_.size() - pos);
        ::close(fds[1]);
        writer_cpu = thread_cpu_s() - tc;
      });
      // An early exit must not leave the writer blocked on a full pipe:
      // swapping stdin for an empty pipe drops the last read end, so a
      // pending write fails with EPIPE.
      const auto release_writer = [&] {
        int empty[2];
        if (::pipe(empty) == 0) {
          ::close(empty[1]);
          ::dup2(empty[0], STDIN_FILENO);
          ::close(empty[0]);
        }
        writer.join();
      };
      try {
        rc = daemon.run();
      } catch (...) {
        release_writer();
        throw;
      }
      release_writer();
    }
    PassSample s;
    s.cpu_s = process_cpu_s() - c0 - writer_cpu;
    s.windows = stamped.lines.size();
    const std::int64_t end =
        stamped.stamps.empty() ? now_ns() : stamped.stamps.back();
    s.wall_s = static_cast<double>(end - t0) * 1e-9;

    // Failure accounting: a window not published, or published stale or
    // degraded, failed.
    out.attempted += k;
    std::size_t good = 0;
    for (std::size_t i = 0; i < stamped.lines.size(); ++i) {
      const auto f = parse_fields(stamped.lines[i]);
      const auto field = [&f](const char* key) {
        const auto it = f.find(key);
        return it == f.end() ? std::string() : it->second;
      };
      const bool ok = i < k && field("window") == std::to_string(i) &&
                      field("degraded") == "-" &&
                      field("w_state") == "fresh" &&
                      field("s_state") == "fresh";
      if (ok) {
        ++good;
        out.publish_ms.push_back(
            static_cast<double>(stamped.stamps[i] - written[i]) * 1e-6);
      }
    }
    out.failed += k - std::min(good, k);
    ++passes_;
    if (rc != 0 || stamped.lines.size() != k) ++bad_passes_;
    if (first_lines_.empty()) {
      first_lines_ = stamped.lines;
    } else if (stamped.lines != first_lines_) {
      ++bad_passes_;
    }
    if (s.windows == 0) s.windows = 1;  // keep the rate finite; counted above
    return s;
  }

  bool wants_more(const Outcome& out) const override {
    // Bounded, so a daemon that stops publishing fails the run instead of
    // hanging it.
    const std::size_t cap = 2 * (env_.sizes.latency_floor /
                                 std::max<std::size_t>(window_end_.size(), 1) +
                                 1);
    return out.publish_ms.size() < env_.sizes.latency_floor && passes_ < cap;
  }

  void check(Outcome& out) override {
    const std::size_t k = window_end_.size();
    const Count nv = env_.sizes.serve_nv;
    out.check(k == packets_.size() / nv && !first_lines_.empty() &&
                  first_lines_.size() == k && bad_passes_ == 0,
              "serve: every pass published exactly floor(packets / N_V) = " +
                  std::to_string(k) + " identical result lines");
    // Reference: plain counting over the generated trace, then a fresh
    // estimator; every published field must match exactly.
    core::WindowedStreamingEstimator est{core::StreamingOptions{}};
    std::size_t matched = 0;
    for (std::size_t w = 0; w < std::min(k, first_lines_.size()); ++w) {
      const auto h = plain_degree_histogram(
          std::span<const traffic::Packet>(packets_).subspan(w * nv, nv),
          net_->graph.num_nodes());
      const auto refit = est.refit_window(h);
      std::map<std::string, std::string> want;
      want["window"] = std::to_string(w);
      want["degraded"] = "-";  // not degraded
      lane_fields("w", refit.window, want);
      lane_fields("s", refit.sliding, want);
      const auto got = parse_fields(first_lines_[w]);
      bool same = true;
      for (const auto& [key, value] : want) {
        const auto it = got.find(key);
        if (it == got.end() || it->second != value) {
          std::printf("serve window %zu: %s published %s, reference %s\n", w,
                      key.c_str(),
                      it == got.end() ? "(missing)" : it->second.c_str(),
                      value.c_str());
          same = false;
        }
      }
      if (same) ++matched;
    }
    out.check(matched == k,
              "serve: a fresh estimator fed plainly counted histograms "
              "reproduces every published parameter (" +
                  std::to_string(matched) + "/" + std::to_string(k) + ")");
    if (traced_windows_ > 0) {
      out.check(replay_mismatches_ == 0,
                "serve: traced fit replays reproduce refit_window's lanes");
    }
  }

  std::size_t run_traced(Tracer& tracer, std::size_t windows,
                         Outcome& out) override {
    windows = std::min(windows, window_end_.size());
    io::TraceTailReader reader;
    serve::ServeOptions defaults;
    serve::BoundedRecordQueue queue(defaults.queue_capacity,
                                    serve::BackpressurePolicy::kBlock);
    traffic::WindowAccumulator acc;
    core::WindowedStreamingEstimator est{core::StreamingOptions{}};
    const core::StreamingOptions& so = est.options();
    std::deque<stats::DegreeHistogram> horizon;
    std::vector<io::TailRecord> records;
    std::vector<io::TailRecord> popped;
    std::size_t pos = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      records.clear();
      {
        auto s = tracer.scope("io.tail_parse");
        while (pos < window_end_[w]) {
          const std::size_t n = std::min(kChunk, window_end_[w] - pos);
          reader.feed(std::string_view(text_).substr(pos, n), records);
          pos += n;
        }
      }
      {
        auto s = tracer.scope("serve.queue");
        popped.clear();
        popped.reserve(records.size());
        std::thread consumer([&] {
          io::TailRecord rec;
          for (std::size_t i = 0; i < records.size() && queue.pop(rec); ++i) {
            popped.push_back(rec);
          }
        });
        for (const auto& rec : records) queue.push(rec);
        consumer.join();
      }
      {
        auto s = tracer.scope("traffic.add");
        acc.begin_window();
        for (const auto& rec : popped) acc.add(rec.packet.src, rec.packet.dst);
      }
      stats::DegreeHistogram h;
      {
        auto s = tracer.scope("traffic.histogram");
        h = acc.histogram(kQuantity);
      }
      const core::StreamingFitSnapshot prev_w = est.window_fit();
      const core::StreamingFitSnapshot prev_s = est.sliding_fit();
      horizon.push_back(h);
      while (horizon.size() > so.sliding_horizon) horizon.pop_front();
      std::uint64_t refit_id = 0;
      core::StreamingRefit refit;
      {
        auto s = tracer.scope("core.refit_window");
        refit_id = s.id();
        refit = est.refit_window(h);
      }
      // Replays of the ladder calls refit_window made, on the same inputs.
      const LaneReplay lw = replay_lane(tracer, refit_id, so, h, prev_w,
                                        "fit.tumbling_palu");
      if (!same_lane(lw, refit.window)) ++replay_mismatches_;
      if (horizon.size() > 1) {
        stats::DegreeHistogram merged;
        for (const auto& hh : horizon) merged.merge(hh);
        const LaneReplay ls = replay_lane(tracer, refit_id, so, merged, prev_s,
                                          "fit.sliding_palu");
        if (!same_lane(ls, refit.sliding)) ++replay_mismatches_;
      }
      out.attempted += 1;
      if (!refit.fresh) out.failed += 1;
      packets_traced_ += popped.size();
    }
    traced_windows_ += windows;
    return windows;
  }

  void layer_metrics(const std::map<std::string, LayerStat>& layers,
                     std::size_t /*windows*/, Outcome& out) override {
    const double packets = static_cast<double>(packets_traced_);
    const auto per_packet_ns = [&](const char* name) {
      return layers.at(name).total_ms * 1e6 / packets;
    };
    out.set("io.tail_parse_ns_per_packet", per_packet_ns("io.tail_parse"));
    out.set("serve.queue_ns_per_packet", per_packet_ns("serve.queue"));
    out.set("traffic.add_ns_per_packet", per_packet_ns("traffic.add"));
    out.set("traffic.histogram_ms",
            layers.at("traffic.histogram").median_ms());
    out.set("core.refit_window_ms",
            median(layers.at("core.refit_window").wall_ms));
    out.set("fit.tumbling_palu_ms",
            layers.at("fit.tumbling_palu").median_ms());
    out.set("fit.sliding_palu_ms", layers.at("fit.sliding_palu").median_ms());
    out.set("fit.sliding_palu_max_ms", layers.at("fit.sliding_palu").max_ms);
    std::printf("core.refit_window per window (ms):");
    for (const double ms : layers.at("core.refit_window").wall_ms) {
      std::printf(" %.1f", ms);
    }
    std::printf("\nfit.sliding_palu per window (ms):");
    for (const double ms : layers.at("fit.sliding_palu").each_ms) {
      std::printf(" %.1f", ms);
    }
    std::printf("\n");
    out.set("fit.zm_ms", layers.at("fit.zm").median_ms());
  }

  std::size_t traced_windows() const override { return window_end_.size(); }

 private:
  static LaneReplay replay_lane(Tracer& tracer, std::uint64_t parent,
                                const core::StreamingOptions& so,
                                const stats::DegreeHistogram& h,
                                const core::StreamingFitSnapshot& previous,
                                const char* palu_span) {
    const bool warm = so.warm_start && previous.has_fit();
    LaneReplay r;
    std::int64_t t0 = now_ns();
    r.palu = warm ? core::robust_fit_palu_warm(h, previous.fit, so.fit,
                                               so.robust, so.refine_max)
                  : core::robust_fit_palu(h, so.fit, so.robust,
                                          so.refine_max);
    tracer.record(palu_span, parent, Tracer::kReplayTrack, t0, now_ns());
    if (!so.fit_zm || !r.palu.ok()) return r;
    fit::ZmFitOptions zopts;
    if (warm && previous.zm_valid && std::isfinite(previous.zm.alpha) &&
        previous.zm.alpha > 0.0 && previous.zm.delta > -1.0) {
      zopts.alpha_init = previous.zm.alpha;
      zopts.delta_init = previous.zm.delta;
    }
    const auto binned = stats::LogBinned::from_histogram(h);
    t0 = now_ns();
    try {
      r.zm = fit::fit_zipf_mandelbrot(binned, h.max_degree(), zopts);
    } catch (const Error&) {
      r.zm.reset();
    }
    tracer.record("fit.zm", parent, Tracer::kReplayTrack, t0, now_ns());
    return r;
  }

  static bool same_lane(const LaneReplay& r,
                        const core::StreamingFitSnapshot& lane) {
    if (!r.palu.ok()) return lane.freshness != core::FitFreshness::kFresh;
    const auto& a = r.palu.fit;
    const auto& b = lane.fit;
    bool same = a.alpha == b.alpha && a.c == b.c && a.mu == b.mu &&
                a.u == b.u && a.l == b.l;
    if (r.zm) same = same && r.zm->alpha == lane.zm.alpha &&
                     r.zm->delta == lane.zm.delta;
    return same;
  }

  Env env_;
  const core::UnderlyingNetwork* net_ = nullptr;
  std::vector<traffic::Packet> packets_;
  std::string text_;
  std::vector<std::size_t> window_end_;  // text offset after each window
  std::vector<std::string> first_lines_;
  std::size_t passes_ = 0;
  std::size_t bad_passes_ = 0;
  std::size_t traced_windows_ = 0;
  std::size_t packets_traced_ = 0;
  std::size_t replay_mismatches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Env& env) {
  return std::make_unique<Serve>(env);
}

}  // namespace perfbench
