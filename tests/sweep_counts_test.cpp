// Count-space synthesis (PR 5): distributional equivalence to the packet
// paths, exact structural invariants, and pipeline semantics.
//
// The counts path draws each window whole (Multinomial over edge rates +
// one direction Binomial per active pair), so it consumes RNG differently
// from the packet paths and can never be byte-identical.  Its contract is
// distributional: for every quantity the per-bin ensemble mean across
// many windows must agree with the packet path within CLT tolerance, and
// the structural invariants (exact packet mass, unique pairs, merged
// duplicates/self-loops) must hold exactly.  See DESIGN.md §5e.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "palu/graph/generators.hpp"
#include "palu/graph/graph.hpp"
#include "palu/obs/metrics.hpp"
#include "palu/obs/names.hpp"
#include "palu/stats/log_binning.hpp"
#include "palu/testing/fault_injection.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_accumulator.hpp"
#include "palu/traffic/window_pipeline.hpp"
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

traffic::SweepOptions counts_options() {
  traffic::SweepOptions opts;
  opts.synthesis = traffic::SynthesisMode::kMultinomial;
  return opts;
}

// Per-bin CLT comparison of two window ensembles.  Bin counts may differ
// by a bin or two (d_max is itself random); missing bins carry mass 0.
void expect_distributionally_equal(const stats::BinnedEnsemble& a,
                                   const stats::BinnedEnsemble& b,
                                   std::size_t windows,
                                   const std::string& context) {
  const auto mean_a = a.mean(), mean_b = b.mean();
  const auto sd_a = a.stddev(), sd_b = b.stddev();
  const std::size_t bins = std::max(mean_a.size(), mean_b.size());
  const double w = static_cast<double>(windows);
  for (std::size_t i = 0; i < bins; ++i) {
    const double ma = i < mean_a.size() ? mean_a[i] : 0.0;
    const double mb = i < mean_b.size() ? mean_b[i] : 0.0;
    const double va = i < sd_a.size() ? sd_a[i] * sd_a[i] : 0.0;
    const double vb = i < sd_b.size() ? sd_b[i] * sd_b[i] : 0.0;
    // 6 standard errors of the difference of means, plus an absolute
    // floor for bins whose sample σ underestimates (rare tail bins).
    const double tol = 6.0 * std::sqrt((va + vb) / w) + 0.01;
    EXPECT_NEAR(ma, mb, tol) << context << " bin " << i;
  }
}

TEST(SweepCounts, DistributionallyEquivalentToPacketPath) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 600, 0.02);
  ThreadPool pool(2);
  constexpr std::size_t kWindows = 40;  // >= 32 per the acceptance bar
  for (const auto q : kEveryQuantity) {
    const auto packet =
        traffic::sweep_windows(g, traffic::RateModel{}, 5000, kWindows, q,
                               /*seed=*/17, pool, traffic::SweepOptions{});
    const auto counts =
        traffic::sweep_windows(g, traffic::RateModel{}, 5000, kWindows, q,
                               /*seed=*/17, pool, counts_options());
    const std::string context(traffic::quantity_name(q));
    ASSERT_EQ(counts.windows, kWindows) << context;
    expect_distributionally_equal(packet.ensemble, counts.ensemble,
                                  kWindows, context);
    // Merged totals are whole-ensemble aggregates of the same law; allow
    // a generous CLT band (they are sums over ~kWindows × support draws).
    const double mt_packet = static_cast<double>(packet.merged.total());
    const double mt_counts = static_cast<double>(counts.merged.total());
    EXPECT_NEAR(mt_counts / mt_packet, 1.0, 0.05) << context;
  }
}

// The counts path's exact output, pinned: digests computed before the
// intra-window shard mode was retired, when every shard count K ∈ {1, 2,
// 4, 8} produced them (sweep_golden.hpp).
TEST(SweepCounts, MatchesGoldenDigestsAcrossQuantitiesAndSeeds) {
  const auto g = golden::golden_graph();
  ThreadPool pool(2);
  for (const auto& pin : golden::kCountsPins) {
    const auto sweep = traffic::sweep_windows(
        g, traffic::RateModel{}, golden::kGoldenPackets,
        golden::kGoldenWindows, pin.quantity, pin.seed, pool,
        counts_options());
    EXPECT_EQ(golden::sweep_digest(sweep), pin.digest)
        << traffic::quantity_name(pin.quantity) << " seed " << pin.seed;
  }
}

TEST(SweepCounts, WindowConservesMassAndEmitsFullSupport) {
  Rng gen_rng(11);
  const auto g = graph::erdos_renyi(gen_rng, 300, 0.05);
  traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{}, Rng(5));
  std::vector<traffic::EdgePacketCounts> pairs;
  std::vector<std::pair<NodeId, NodeId>> first_order;
  for (const Count n : {Count{0}, Count{1}, Count{997}, Count{100000}}) {
    gen.next_window_counts(n, pairs);
    // The generator emits its whole merged-pair support every window —
    // zero rows included, in one fixed order — so downstream loop sizes
    // depend only on the graph, never on N_V.  This ER graph has no
    // duplicate edges, so the support is exactly the edge set.
    ASSERT_EQ(pairs.size(), g.num_edges()) << "n=" << n;
    if (first_order.empty()) {
      for (const auto& pc : pairs) first_order.emplace_back(pc.u, pc.v);
    } else {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        ASSERT_EQ(pairs[i].u, first_order[i].first) << "n=" << n;
        ASSERT_EQ(pairs[i].v, first_order[i].second) << "n=" << n;
      }
    }
    Count total = 0;
    for (const auto& pc : pairs) total += pc.forward + pc.backward;
    EXPECT_EQ(total, n) << "n=" << n;
    // No unordered pair may repeat: the support merge must be complete.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      for (std::size_t j = i + 1; j < pairs.size(); ++j) {
        const bool same =
            (pairs[i].u == pairs[j].u && pairs[i].v == pairs[j].v) ||
            (pairs[i].u == pairs[j].v && pairs[i].v == pairs[j].u);
        ASSERT_FALSE(same) << "duplicate pair at " << i << "," << j;
      }
    }
    if (n == 0) {
      for (const auto& pc : pairs) {
        ASSERT_EQ(pc.forward + pc.backward, 0u);
      }
    }
  }
}

TEST(SweepCounts, MergesParallelEdgesAndSelfLoops) {
  // Graph::add_edge permits parallel edges and self-loops; the counts
  // support must merge them into single pairs (with summed weight) and
  // route self-loop packets entirely into `forward`.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // mirror orientation of the same unordered pair
  g.add_edge(0, 1);  // parallel duplicate
  g.add_edge(2, 2);  // self-loop
  g.add_edge(2, 3);
  traffic::SyntheticTrafficGenerator gen(
      g, std::vector<double>{1.0, 1.0, 1.0, 1.0, 1.0}, Rng(9));
  std::vector<traffic::EdgePacketCounts> pairs;
  double mean_01 = 0.0, mean_22 = 0.0;
  constexpr int kWindows = 200;
  constexpr Count kN = 1000;
  for (int w = 0; w < kWindows; ++w) {
    gen.next_window_counts(kN, pairs);
    ASSERT_LE(pairs.size(), 3u);  // {0,1}, {2,2}, {2,3} at most
    for (const auto& pc : pairs) {
      const bool is_01 = (pc.u == 0 && pc.v == 1) ||
                         (pc.u == 1 && pc.v == 0);
      const bool is_22 = pc.u == 2 && pc.v == 2;
      const bool is_23 = (pc.u == 2 && pc.v == 3) ||
                         (pc.u == 3 && pc.v == 2);
      ASSERT_TRUE(is_01 || is_22 || is_23);
      if (is_01) mean_01 += static_cast<double>(pc.forward + pc.backward);
      if (is_22) {
        EXPECT_EQ(pc.backward, 0u);  // self-pairs are all-forward
        mean_22 += static_cast<double>(pc.forward);
      }
    }
  }
  mean_01 /= kWindows;
  mean_22 /= kWindows;
  // The merged {0,1} pair carries 3 of 5 rate units, {2,2} carries 1.
  EXPECT_NEAR(mean_01, 0.6 * kN, 6.0 * std::sqrt(0.6 * 0.4 * kN / 200.0));
  EXPECT_NEAR(mean_22, 0.2 * kN, 6.0 * std::sqrt(0.2 * 0.8 * kN / 200.0));
}

TEST(SweepCounts, PerEdgeCountMomentsMatchRates) {
  Rng gen_rng(13);
  const auto g = graph::erdos_renyi(gen_rng, 120, 0.1);
  traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{}, Rng(23));
  const auto& rates = gen.rates();
  ASSERT_EQ(rates.size(), g.num_edges());
  // The hottest edge's mean count must track n·rate (Multinomial mean).
  std::size_t hot = 0;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (rates[i] > rates[hot]) hot = i;
  }
  const NodeId hot_u = g.edges()[hot].u, hot_v = g.edges()[hot].v;
  constexpr Count kN = 20000;
  constexpr int kWindows = 64;
  double mean_links = 0.0, mean_hot = 0.0;
  std::vector<traffic::EdgePacketCounts> pairs;
  for (int w = 0; w < kWindows; ++w) {
    gen.next_window_counts(kN, pairs);
    for (const auto& pc : pairs) {
      mean_links += static_cast<double>(pc.forward > 0) +
                    static_cast<double>(pc.backward > 0);
      if ((pc.u == hot_u && pc.v == hot_v) ||
          (pc.u == hot_v && pc.v == hot_u)) {
        mean_hot += static_cast<double>(pc.forward + pc.backward);
      }
    }
  }
  mean_links /= kWindows;
  mean_hot /= kWindows;
  // Mean unique directed links across windows vs the closed form; the
  // link count is a sum of (negatively correlated) Bernoullis, so its
  // variance is at most the independent-case bound Σ p(1−p) <= E.
  const double expected = gen.expected_unique_links(kN);
  EXPECT_NEAR(mean_links, expected,
              6.0 * std::sqrt(expected / kWindows) + 1.0);
  const double hot_mean = static_cast<double>(kN) * rates[hot];
  const double hot_sd =
      std::sqrt(hot_mean * (1.0 - rates[hot]) / kWindows);
  EXPECT_NEAR(mean_hot, hot_mean, 6.0 * hot_sd + 1.0);
}

TEST(SweepCounts, RateNormalizationSurvivesHeavyTails) {
  // Regression (PR 5): the generator normalized rates with a naive
  // left-to-right sum, so one giant Pareto rate absorbed the small rates'
  // mass (1e16 + 1 == 1e16 in double) and every small edge was under-
  // weighted.  Compensated summation keeps the total exact to one ulp.
  graph::Graph g(101);
  std::vector<double> rates;
  rates.push_back(1e16);
  g.add_edge(0, 1);
  for (NodeId i = 1; i <= 99; ++i) {
    g.add_edge(0, i + 1);
    rates.push_back(1.0);
  }
  traffic::SyntheticTrafficGenerator gen(g, rates, Rng(3));
  // A naive left-to-right sum returns exactly 1e16 (each +1.0 is half an
  // ulp and lost to round-to-even); the compensated sum returns the correctly
  // rounded fl(1e16 + 99), same as this one-step double expression.
  const double true_total = 1e16 + 99.0;
  const auto& normalized = gen.rates();
  ASSERT_EQ(normalized.size(), 100u);
  EXPECT_DOUBLE_EQ(normalized[0], 1e16 / true_total);
  for (std::size_t i = 1; i < normalized.size(); ++i) {
    ASSERT_DOUBLE_EQ(normalized[i], 1.0 / true_total) << "edge " << i;
  }
  double sum = 0.0;
  for (const double r : normalized) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(SweepCounts, ExpectedQuantitiesAreMemoizedConsistently) {
  Rng gen_rng(19);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.05);
  const traffic::SyntheticTrafficGenerator gen(g, traffic::RateModel{},
                                               Rng(31));
  // Interleaved repeat queries must return bit-identical values (the memo
  // stores the first computation; a wrong key lookup would show up here).
  const double v1 = gen.expected_edge_visibility(1000);
  const double v2 = gen.expected_edge_visibility(50000);
  const double l1 = gen.expected_unique_links(1000);
  const double l2 = gen.expected_unique_links(50000);
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(gen.expected_edge_visibility(1000), v1);
    EXPECT_EQ(gen.expected_edge_visibility(50000), v2);
    EXPECT_EQ(gen.expected_unique_links(1000), l1);
    EXPECT_EQ(gen.expected_unique_links(50000), l2);
  }
  EXPECT_GT(v2, v1);  // larger windows see more of every edge
  EXPECT_GT(l2, l1);
  EXPECT_GT(v1, 0.0);
  EXPECT_LE(v2, 1.0);
}

TEST(SweepCounts, AccumulatorCountsModeMatchesHashReplay) {
  // ingest_counts (dense marginals) vs the same records replayed through
  // add(): all six histograms, nnz, total, and at() must agree exactly.
  Rng rng(41);
  std::vector<traffic::EdgePacketCounts> pairs;
  for (NodeId u = 0; u < 50; ++u) {
    for (NodeId v = u; v < 50; v += 3) {
      const Count f = rng.uniform_index(5);
      const Count b = u == v ? 0 : rng.uniform_index(5);
      // Zero rows included: the generator emits its full support, so the
      // accumulator must treat forward == backward == 0 as a no-op.
      pairs.push_back({u, v, f, b});
    }
  }
  traffic::WindowAccumulator dense;
  dense.begin_window();
  dense.ingest_counts(pairs);
  traffic::WindowAccumulator hashed;
  hashed.begin_window();
  for (const auto& pc : pairs) {
    hashed.add(pc.u, pc.v, pc.forward);
    hashed.add(pc.v, pc.u, pc.backward);
  }
  EXPECT_EQ(dense.total(), hashed.total());
  EXPECT_EQ(dense.nnz(), hashed.nnz());
  EXPECT_EQ(dense.at(3, 6), hashed.at(3, 6));
  EXPECT_EQ(dense.at(6, 3), hashed.at(6, 3));
  EXPECT_EQ(dense.at(7, 7), hashed.at(7, 7));
  for (const auto q : kEveryQuantity) {
    const auto a = dense.histogram(q);
    const auto b = hashed.histogram(q);
    EXPECT_EQ(a.sorted(), b.sorted()) << traffic::quantity_name(q);
    EXPECT_EQ(a.total(), b.total()) << traffic::quantity_name(q);
  }
  // The accumulator must come back cleanly to packet mode.
  dense.begin_window();
  dense.add(1, 2, 4);
  EXPECT_EQ(dense.total(), 4u);
  EXPECT_EQ(dense.nnz(), 1u);
  EXPECT_EQ(dense.at(1, 2), 4u);
}

TEST(SweepCounts, SparseNodeIdsFallBackToHashTables) {
  // Ids far beyond the pair count make dense arrays wasteful; the replay
  // fallback must keep every result exact.
  std::vector<traffic::EdgePacketCounts> pairs;
  pairs.push_back({1u << 30, (1u << 30) + 1, 5, 2});
  pairs.push_back({1u << 20, 1u << 30, 3, 0});
  traffic::WindowAccumulator acc;
  acc.begin_window();
  acc.ingest_counts(pairs);
  EXPECT_EQ(acc.total(), 10u);
  EXPECT_EQ(acc.nnz(), 3u);
  EXPECT_EQ(acc.at(1u << 30, (1u << 30) + 1), 5u);
  EXPECT_EQ(acc.at((1u << 30) + 1, 1u << 30), 2u);
  EXPECT_EQ(acc.at(1u << 20, 1u << 30), 3u);
  const auto h = acc.histogram(traffic::Quantity::kUndirectedDegree);
  EXPECT_EQ(h.total(), 3u);  // three distinct endpoints, two pairs
}

TEST(SweepCounts, FailpointHonoursFailureBudget) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.03);
  ThreadPool pool(1);  // FIFO pool: windows execute in index order
  {
    testing::FailpointGuard guard;
    failpoints::arm("traffic.window_counts", /*fires=*/1, /*skip=*/2);
    auto opts = counts_options();
    try {
      traffic::sweep_windows(g, traffic::RateModel{}, 1000, 6,
                             traffic::Quantity::kSourceFanOut, 42, pool,
                             opts);
      FAIL() << "strict counts sweep must rethrow the window failure";
    } catch (const traffic::SweepWindowError& e) {
      EXPECT_EQ(e.window(), 2u);
    }
  }
  {
    testing::FailpointGuard guard;
    failpoints::arm("traffic.window_counts", /*fires=*/2, /*skip=*/0);
    auto opts = counts_options();
    opts.max_failed_windows = 2;
    const auto sweep = traffic::sweep_windows(
        g, traffic::RateModel{}, 1000, 8,
        traffic::Quantity::kSourceFanOut, 42, pool, opts);
    EXPECT_EQ(sweep.failures.size(), 2u);
    EXPECT_EQ(sweep.windows, 6u);
  }
}

TEST(SweepCounts, StageMetricsCarryCountsPathLabel) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.03);
  ThreadPool pool(2);
  obs::Registry registry;
  auto opts = counts_options();
  opts.metrics = &registry;
  const auto sweep = traffic::sweep_windows(
      g, traffic::RateModel{}, 5000, 8,
      traffic::Quantity::kUndirectedDegree, 3, pool, opts);
  EXPECT_EQ(sweep.windows, 8u);
  const auto snap = registry.snapshot();
  bool saw_counts_label = false;
  for (const auto& h : snap.histograms) {
    if (h.name != obs::names::kSweepStageDurationNs) continue;
    for (const auto& [key, value] : h.labels) {
      if (key == "path") {
        EXPECT_EQ(value, "counts");
        saw_counts_label = true;
      }
    }
  }
  EXPECT_TRUE(saw_counts_label);
}

}  // namespace
}  // namespace palu
