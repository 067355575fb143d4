// Analytic synthesis: the expected-window entry point vs sampled
// truth, plus its semantics (determinism, counts-sweep σ bands, argument
// checks, failure propagation, metrics labels).
//
// The expectation path computes E[per-bin entity count] exactly for the
// packet quantities (Binomial marginals of the Multinomial window) and
// under within-entity link independence for the link-count quantities
// (Poisson-binomial over per-link visibilities; the dropped O(q_i·q_j)
// negative correlation is far below Monte-Carlo noise on these graphs).
// Its contract against a sampled ensemble is therefore CLT-style: the
// 64-replicate counts-path mean of every bin must sit within standard-
// error bands of the analytic mass, for all six quantities and several
// seeds.  See DESIGN.md §5i.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "palu/traffic/aggregates.hpp"
#include "palu/traffic/quantities.hpp"
#include "palu/traffic/stream.hpp"
#include "palu/traffic/window_pipeline.hpp"

namespace palu {
namespace {

constexpr std::array<traffic::Quantity, 6> kEveryQuantity = {
    traffic::Quantity::kSourcePackets,
    traffic::Quantity::kSourceFanOut,
    traffic::Quantity::kLinkPackets,
    traffic::Quantity::kDestinationFanIn,
    traffic::Quantity::kDestinationPackets,
    traffic::Quantity::kUndirectedDegree};

TEST(SweepExpected, MatchesSampledEnsembleMeansEverywhere) {
  Rng gen_rng(7);
  const auto g = graph::erdos_renyi(gen_rng, 400, 0.02);
  ThreadPool pool(2);
  constexpr std::size_t kReplicates = 64;
  constexpr Count kN = 3000;
  for (const std::uint64_t seed : {17u, 101u, 9000u}) {
    for (const auto q : kEveryQuantity) {
      const std::string context = std::string(traffic::quantity_name(q)) +
                                  " seed " + std::to_string(seed);
      const auto expected = traffic::evaluate_expected_window(
          g, traffic::RateModel{}, kN, q, seed);
      traffic::SweepOptions sampled_opts;
      sampled_opts.synthesis = traffic::SynthesisMode::kMultinomial;
      const auto sampled = traffic::sweep_windows(
          g, traffic::RateModel{}, kN, kReplicates, q, seed, pool,
          sampled_opts);
      const auto& mass = expected.mass;
      const auto mean = sampled.ensemble.mean();
      const auto sd = sampled.ensemble.stddev();
      const std::size_t bins = std::max<std::size_t>(mean.size(),
                                                     mass.num_bins());
      for (std::size_t i = 0; i < bins; ++i) {
        const double analytic = i < mass.num_bins() ? mass[i] : 0.0;
        const double mc = i < mean.size() ? mean[i] : 0.0;
        const double s = i < sd.size() ? sd[i] : 0.0;
        // 6 standard errors of the replicate mean plus an absolute floor
        // for bins whose sample σ underestimates (rare tail bins).
        const double tol =
            6.0 * s / std::sqrt(static_cast<double>(kReplicates)) + 0.004;
        EXPECT_NEAR(analytic, mc, tol) << context << " bin " << i;
      }
      // The analytic d_max stand-in (median of max) must land within the
      // spread of sampled maxima — same log₂ bin neighbourhood.
      ASSERT_GT(expected.max_value, 0u) << context;
      const double lg_e = std::log2(static_cast<double>(expected.max_value));
      const double lg_s = std::log2(static_cast<double>(sampled.max_value));
      EXPECT_NEAR(lg_e, lg_s, 1.5) << context;
    }
  }
}

TEST(SweepExpected, AggregatesMatchSampledTableI) {
  Rng gen_rng(11);
  const auto g = graph::erdos_renyi(gen_rng, 300, 0.03);
  constexpr Count kN = 4000;
  const auto win = traffic::evaluate_expected_window(
      g, traffic::RateModel{}, kN, traffic::Quantity::kUndirectedDegree,
      /*seed=*/23);
  const auto& agg = win.aggregates;

  // Closed-form cross-checks against the generator's own expectations,
  // replaying the entry point's exact rate draw (Rng(seed).fork(0)).
  const auto edge_rates =
      traffic::make_edge_rates(g, traffic::RateModel{}, Rng(23).fork(0));
  traffic::SyntheticTrafficGenerator gen(g, edge_rates, Rng(1));
  EXPECT_DOUBLE_EQ(agg.valid_packets, static_cast<double>(kN));
  EXPECT_NEAR(agg.unique_links, gen.expected_unique_links(kN),
              1e-9 * gen.expected_unique_links(kN));

  // Monte-Carlo cross-check of the node visibilities and the max: means
  // of sampled Table-I aggregates across windows.
  constexpr int kWindows = 64;
  double src = 0.0, dst = 0.0, links = 0.0, maxp = 0.0;
  for (int w = 0; w < kWindows; ++w) {
    const auto a = gen.window(kN);
    const auto t = traffic::aggregates_summation(a);
    src += static_cast<double>(t.unique_sources);
    dst += static_cast<double>(t.unique_destinations);
    links += static_cast<double>(t.unique_links);
    maxp += static_cast<double>(t.max_link_packets);
  }
  src /= kWindows;
  dst /= kWindows;
  links /= kWindows;
  maxp /= kWindows;
  // Unique counts are sums of ~|V| Bernoullis: σ ≤ √mean, so 6 standard
  // errors is 6·√(mean/64).
  EXPECT_NEAR(agg.unique_sources, src, 6.0 * std::sqrt(src / kWindows) + 1.0);
  EXPECT_NEAR(agg.unique_destinations, dst,
              6.0 * std::sqrt(dst / kWindows) + 1.0);
  EXPECT_NEAR(agg.unique_links, links,
              6.0 * std::sqrt(links / kWindows) + 1.0);
  // The analytic max is a median, the sampled one a mean of maxima — they
  // need only agree to within the distribution's own spread.
  EXPECT_NEAR(agg.max_link_packets / maxp, 1.0, 0.35);
}

TEST(SweepExpected, DeterministicWithUnitMass) {
  Rng gen_rng(13);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  const auto q = traffic::Quantity::kSourceFanOut;
  // Same seed (the seed fixes the Pareto rate draw, which the analytic
  // result legitimately depends on): bit-identical, since the path
  // consumes no per-window RNG.
  const auto a =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, 2000, q, 5);
  const auto b =
      traffic::evaluate_expected_window(g, traffic::RateModel{}, 2000, q, 5);
  ASSERT_EQ(a.bin_counts.size(), b.bin_counts.size());
  for (std::size_t i = 0; i < a.bin_counts.size(); ++i) {
    EXPECT_EQ(a.bin_counts[i], b.bin_counts[i]) << i;
  }
  EXPECT_EQ(a.visible_entities, b.visible_entities);
  EXPECT_EQ(a.max_value, b.max_value);
  EXPECT_EQ(a.aggregates.max_link_packets, b.aggregates.max_link_packets);
  EXPECT_NEAR(a.mass.total_mass(), 1.0, 1e-9);
}

// σ bands around the analytic window are an ordinary counts sweep with
// the same seed: its windows are sampled from the same rate draw.
TEST(SweepExpected, ReplicatesAttachSampledConfidenceBands) {
  Rng gen_rng(17);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  ThreadPool pool(2);
  traffic::SweepOptions opts;
  opts.synthesis = traffic::SynthesisMode::kMultinomial;
  const auto band = traffic::sweep_windows(
      g, traffic::RateModel{}, 2000, 12, traffic::Quantity::kLinkPackets, 7,
      pool, opts);
  EXPECT_EQ(band.ensemble.num_windows(), 12u);
  // With real sampled windows behind it, the band carries σ > 0
  // somewhere (the agreement test pins its mean against the analytic
  // mass tightly).
  const auto sd = band.ensemble.stddev();
  double max_sd = 0.0;
  for (const double s : sd) max_sd = std::max(max_sd, s);
  EXPECT_GT(max_sd, 0.0);
}

TEST(SweepExpected, RejectsZeroPackets) {
  Rng gen_rng(19);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  EXPECT_THROW(traffic::evaluate_expected_window(
                   g, traffic::RateModel{}, 0,
                   traffic::Quantity::kLinkPackets, 1),
               palu::InvalidArgument);
}

TEST(SweepExpected, FailpointPropagatesToCaller) {
  Rng gen_rng(23);
  const auto g = graph::erdos_renyi(gen_rng, 100, 0.05);
  testing::FailpointGuard guard;
  failpoints::arm("theory.expected_window", /*fires=*/1, /*skip=*/0);
  try {
    traffic::evaluate_expected_window(g, traffic::RateModel{}, 1000,
                                      traffic::Quantity::kLinkPackets, 1);
    FAIL() << "the evaluation must rethrow the injected failure";
  } catch (const std::exception& e) {
    EXPECT_TRUE(failpoints::is_failpoint_error(e)) << e.what();
  }
  // One fire: the next evaluation succeeds.
  const auto win = traffic::evaluate_expected_window(
      g, traffic::RateModel{}, 1000, traffic::Quantity::kLinkPackets, 1);
  EXPECT_NEAR(win.mass.total_mass(), 1.0, 1e-9);
}

TEST(SweepExpected, StageMetricsCarryExpectedPathLabel) {
  Rng gen_rng(29);
  const auto g = graph::erdos_renyi(gen_rng, 200, 0.04);
  obs::Registry registry;
  traffic::evaluate_expected_window(g, traffic::RateModel{}, 5000,
                                    traffic::Quantity::kUndirectedDegree, 3,
                                    &registry);
  // One observation each for the visibility pass ("sampling") and the
  // marginal folding ("accumulation"), all under path="expected".
  std::vector<std::string> stages;
  for (const auto& h : registry.snapshot().histograms) {
    if (h.name != obs::names::kSweepStageDurationNs) continue;
    for (const auto& [key, value] : h.labels) {
      if (key == "path") {
        EXPECT_EQ(value, "expected");
      } else if (key == "stage") {
        stages.push_back(value);
      }
    }
    EXPECT_EQ(h.count, 1u);
    EXPECT_GT(h.sum, 0u);
  }
  std::sort(stages.begin(), stages.end());
  EXPECT_EQ(stages, (std::vector<std::string>{"accumulation", "sampling"}));
}

}  // namespace
}  // namespace palu
