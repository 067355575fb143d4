// The expected workload: repeated ExpectedWindowEvaluator evaluations of
// the bench graph over the N_V ladder 1e5 / 1e6 / 1e7, one sub-seed's
// evaluator per pool worker, so that a pass spreads over the cores the
// other workloads use instead of riding on one.  It is the only workload
// that reaches the math layer (binmass, vexp, lambertw).  The traced pass
// splits each evaluation into prepare → aggregates → evaluate spans; the
// math kernels run inside those calls, so their per-element costs come
// from isolated probes on inputs sized like the graph's directed link set.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "palu/math/vexp.hpp"

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace palu;

constexpr traffic::Quantity kQuantity = traffic::Quantity::kUndirectedDegree;
constexpr double kForwardProb = 0.5;  // the generator's default

class Expected final : public Workload {
 public:
  explicit Expected(const Env& env) : env_(env) {}

  void prepare(const core::UnderlyingNetwork& net) override {
    net_ = &net;
    inputs_.clear();
    for (std::size_t r = 0; r < env_.sizes.subseeds; ++r) {
      // Evaluators alias their generator: each Input stays put on the heap.
      auto in = std::make_unique<Input>();
      const Rng base(sub_seed(env_.cfg.seed, r));
      in->rates = traffic::make_edge_rates(net.graph, traffic::RateModel{},
                                           base.fork(0));
      in->gen.emplace(net.graph, in->rates, base.fork(1));
      in->eval.emplace(in->gen->pair_support());
      inputs_.push_back(std::move(in));
    }
  }

  /// Each input's ladder runs on one pool worker (an evaluator is not
  /// shared between threads); the pass ends when every input is done.
  PassSample run_pass(Outcome& out) override {
    const auto& ladder = env_.sizes.expected_ladder;
    const PassSample s = time_pass(ladder.size() * inputs_.size(), [&] {
      parallel_for(*env_.pool, 0, inputs_.size(), /*grain=*/1,
                   [&](IndexRange range) {
                     for (std::size_t r = range.begin; r < range.end; ++r) {
                       run_ladder(*inputs_[r]);
                     }
                   });
    });
    for (auto& in : inputs_) {
      out.publish_ms.insert(out.publish_ms.end(), in->publish_ms.begin(),
                            in->publish_ms.end());
      out.attempted += in->publish_ms.size();
      out.failed += in->bad_mass;
      bad_mass_ += in->bad_mass;
      in->publish_ms.clear();
      in->bad_mass = 0;
    }
    return s;
  }

  void check(Outcome& out) override {
    out.check(bad_mass_ == 0,
              "expected: every evaluation's mass sums to 1 within 1e-9");
    // Σ over directed links of 1 − (1 − q)^N_V, computed here from
    // make_edge_rates with plain libm calls.
    for (std::size_t r = 0; r < inputs_.size(); ++r) {
      const auto q = directed_link_rates(inputs_[r]->rates);
      for (const Count nv : env_.sizes.expected_ladder) {
        inputs_[r]->eval->prepare(nv);
        const double got = inputs_[r]->eval->aggregates().unique_links;
        double want = 0.0;
        const double n = static_cast<double>(nv);
        for (const double qi : q) want += -std::expm1(n * std::log1p(-qi));
        char what[160];
        std::snprintf(what, sizeof what,
                      "expected: input %zu unique_links at N_V=%llu is %.6f, "
                      "own sum %.6f (relative tolerance 1e-9)",
                      r, static_cast<unsigned long long>(nv), got, want);
        out.check(std::abs(got - want) <= 1e-9 * want, what);
      }
    }
  }

  /// The untraced pass with a span around each call, one input per worker.
  std::size_t run_traced(Tracer& tracer, std::size_t /*windows*/,
                         Outcome& out) override {
    parallel_for(*env_.pool, 0, inputs_.size(), /*grain=*/1,
                 [&](IndexRange range) {
                   for (std::size_t r = range.begin; r < range.end; ++r) {
                     trace_ladder(tracer, *inputs_[r]);
                   }
                 });
    for (auto& in : inputs_) {
      out.attempted += env_.sizes.expected_ladder.size();
      out.failed += in->bad_mass;
      bad_mass_ += in->bad_mass;
      in->bad_mass = 0;
    }
    return traced_windows();
  }

  void layer_metrics(const std::map<std::string, LayerStat>& layers,
                     std::size_t /*windows*/, Outcome& out) override {
    out.set("traffic.expected_prepare_ms",
            layers.at("traffic.expected_prepare").median_ms());
    out.set("traffic.expected_aggregates_ms",
            layers.at("traffic.expected_aggregates").median_ms());
    out.set("traffic.expected_evaluate_ms",
            layers.at("traffic.expected_evaluate").median_ms());
    math_probes(out);
  }

  std::size_t traced_windows() const override {
    return env_.sizes.expected_ladder.size() * inputs_.size();
  }

 private:
  /// One sub-seed's rate draw and the evaluator over its pair support,
  /// plus what its ladder recorded in the current pass.
  struct Input {
    std::vector<double> rates;
    std::optional<traffic::SyntheticTrafficGenerator> gen;
    std::optional<traffic::ExpectedWindowEvaluator> eval;
    std::vector<double> publish_ms;
    std::size_t bad_mass = 0;
  };

  static bool mass_ok(const traffic::ExpectedWindow& w) {
    return std::abs(w.mass.total_mass() - 1.0) <= 1e-9;
  }

  void run_ladder(Input& in) const {
    for (const Count nv : env_.sizes.expected_ladder) {
      const std::int64_t t0 = now_ns();
      in.eval->prepare(nv);
      const auto w = in.eval->evaluate(kQuantity);
      in.publish_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (!mass_ok(w)) ++in.bad_mass;
    }
  }

  void trace_ladder(Tracer& tracer, Input& in) const {
    for (const Count nv : env_.sizes.expected_ladder) {
      {
        auto s = tracer.scope("traffic.expected_prepare");
        in.eval->prepare(nv);
      }
      {
        auto s = tracer.scope("traffic.expected_aggregates");
        in.eval->aggregates();
      }
      traffic::ExpectedWindow w;
      {
        auto s = tracer.scope("traffic.expected_evaluate");
        w = in.eval->evaluate(kQuantity);
      }
      if (!mass_ok(w)) ++in.bad_mass;
    }
  }

  /// Per directed link rate mass q: normalized edge rates split by
  /// direction (self loops keep their whole rate), parallel links summed.
  std::vector<double> directed_link_rates(
      const std::vector<double>& rates) const {
    long double total = 0.0L;
    for (const double r : rates) total += r;
    std::map<std::pair<NodeId, NodeId>, double> links;
    const auto& edges = net_->graph.edges();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const double r = static_cast<double>(rates[e] / total);
      if (edges[e].u == edges[e].v) {
        links[{edges[e].u, edges[e].v}] += r;
      } else {
        links[{edges[e].u, edges[e].v}] += kForwardProb * r;
        links[{edges[e].v, edges[e].u}] += (1.0 - kForwardProb) * r;
      }
    }
    std::vector<double> q;
    q.reserve(links.size());
    for (const auto& [key, v] : links) q.push_back(v);
    return q;
  }

  /// vexp / vlog1p per element and binomial_log2_bins per call, on the
  /// link set at N_V = 1e6 (median of 5 repetitions).
  void math_probes(Outcome& out) const {
    const auto q = directed_link_rates(inputs_[0]->rates);
    const std::size_t n = q.size();
    const double nv = 1e6;
    std::vector<double> neg_q(n), x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      neg_q[i] = -q[i];
      x[i] = nv * std::log1p(-q[i]);
    }
    const auto per_elem_ns = [&](auto&& kernel, const std::vector<double>& in) {
      std::vector<double> ns;
      for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = now_ns();
        kernel(in, y);
        ns.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(n));
      }
      return median(ns);
    };
    out.set("math.vexp_ns_per_elem",
            per_elem_ns([](const auto& a, auto& b) { math::vexp(a, b); }, x));
    out.set("math.vlog1p_ns_per_elem",
            per_elem_ns([](const auto& a, auto& b) { math::vlog1p(a, b); },
                        neg_q));
    const std::size_t calls = std::min<std::size_t>(n, 4096);
    std::vector<double> bins(stats::LogBinned::kMaxBins, 0.0);
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < calls; ++i) {
        math::binomial_log2_bins(static_cast<std::uint64_t>(nv), q[i], bins);
      }
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 /
                   static_cast<double>(calls));
    }
    out.set("math.binomial_bins_us", median(us));
  }

  Env env_;
  const core::UnderlyingNetwork* net_ = nullptr;
  std::vector<std::unique_ptr<Input>> inputs_;
  std::size_t bad_mass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_expected(const Env& env) {
  return std::make_unique<Expected>(env);
}

}  // namespace perfbench
