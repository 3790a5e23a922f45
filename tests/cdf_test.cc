// Flow-size CDF sampler, the paper's three workload distributions, and the
// load the Poisson generator offers.
#include "workload/cdf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.h"
#include "workload/distributions.h"
#include "workload/poisson.h"

namespace fastcc::workload {
namespace {

Cdf simple_cdf() {
  return Cdf("simple", {{1000, 0.0}, {2000, 0.5}, {10000, 1.0}});
}

TEST(Cdf, MeanIsExactForPiecewiseLinear) {
  const Cdf cdf = simple_cdf();
  // 0.5 * avg(1000,2000) + 0.5 * avg(2000,10000) = 750 + 3000.
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 3750.0);
}

TEST(Cdf, ProbabilityBelowInterpolates) {
  const Cdf cdf = simple_cdf();
  EXPECT_DOUBLE_EQ(cdf.probability_below(1000), 0.0);
  EXPECT_DOUBLE_EQ(cdf.probability_below(1500), 0.25);
  EXPECT_DOUBLE_EQ(cdf.probability_below(2000), 0.5);
  EXPECT_DOUBLE_EQ(cdf.probability_below(6000), 0.75);
  EXPECT_DOUBLE_EQ(cdf.probability_below(10000), 1.0);
  EXPECT_DOUBLE_EQ(cdf.probability_below(99999), 1.0);
}

TEST(Cdf, SamplesStayWithinSupport) {
  const Cdf cdf = simple_cdf();
  sim::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const auto s = cdf.sample(rng);
    EXPECT_GE(s, 1000u);
    EXPECT_LE(s, 10'000u);
  }
}

TEST(Cdf, SampleMeanConvergesToAnalyticMean) {
  const Cdf cdf = simple_cdf();
  sim::Rng rng(2);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(cdf.sample(rng));
  EXPECT_NEAR(sum / n, cdf.mean_bytes(), 0.02 * cdf.mean_bytes());
}

TEST(Cdf, SamplingIsDeterministicPerSeed) {
  const Cdf cdf = simple_cdf();
  sim::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(cdf.sample(a), cdf.sample(b));
}

TEST(Cdf, LeadingNonzeroProbabilityGetsImplicitAnchor) {
  // First explicit point has positive mass: an implicit (size, 0) anchor
  // keeps inverse sampling well defined.
  const Cdf cdf("anchored", {{500, 0.4}, {1000, 1.0}});
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(cdf.sample(rng), 500u);
}

// ---- The paper's distributions (Section VI-A anchors) ----

TEST(Distributions, HadoopAnchors) {
  const Cdf& h = hadoop_cdf();
  // "95% < 300KB" and "2.5% > 1MB".
  EXPECT_NEAR(h.probability_below(300'000), 0.95, 0.005);
  EXPECT_NEAR(1.0 - h.probability_below(1'000'000), 0.025, 0.005);
}

TEST(Distributions, WebSearchHasLongFlowTail) {
  const Cdf& w = websearch_cdf();
  // "30% > 1MB" (approximately, the DCTCP websearch shape).
  const double over_1mb = 1.0 - w.probability_below(1'000'000);
  EXPECT_GT(over_1mb, 0.2);
  EXPECT_LT(over_1mb, 0.35);
}

TEST(Distributions, StorageAnchors) {
  const Cdf& s = storage_cdf();
  // "96% < 128KB and 100% < 2MB".
  EXPECT_NEAR(s.probability_below(131'072), 0.96, 0.005);
  EXPECT_DOUBLE_EQ(s.probability_below(2'097'152), 1.0);
  EXPECT_LE(s.max_bytes(), 2'097'152);
}

TEST(Distributions, MeansOrderedByWorkloadWeight) {
  // WebSearch is byte-heavy, storage is tiny, hadoop in between.
  EXPECT_GT(websearch_cdf().mean_bytes(), hadoop_cdf().mean_bytes());
  EXPECT_GT(hadoop_cdf().mean_bytes(), storage_cdf().mean_bytes());
}

TEST(Distributions, SampledTailMatchesAnchors) {
  sim::Rng rng(11);
  int over_300k = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    if (hadoop_cdf().sample(rng) > 300'000) ++over_300k;
  }
  EXPECT_NEAR(static_cast<double>(over_300k) / n, 0.05, 0.01);
}

// ---- Poisson arrivals (Section VI-A) ----

TEST(PoissonTraffic, OfferedBytesMatchTheLoad) {
  // Every flow is 10 KB, so ~40,000 arrivals keep the sampling error far
  // inside the tolerance; a Gbps/bytes slip in the arrival rate is 8x off.
  const Cdf fixed("10KB", {{10'000, 1.0}});
  PoissonTrafficParams params;
  params.components = {{&fixed, 1.0}};
  params.load = 0.5;
  params.host_bandwidth = sim::gbps(100);
  params.host_count = 32;
  params.duration = 2 * sim::kMillisecond;
  sim::Rng rng(1);
  double offered = 0.0;
  for (const net::FlowSpec& f : generate_poisson_traffic(params, rng)) {
    offered += static_cast<double>(f.size_bytes);
  }
  const double capacity = params.host_bandwidth * params.host_count *
                          static_cast<double>(params.duration);
  EXPECT_NEAR(offered / capacity, params.load, 0.05 * params.load);
}

TEST(PoissonTraffic, MergedComponentsEqualSortedConcatenation) {
  // Each component arrives as one run, in time and id order; the generator
  // merges the runs.  The reference draws the same runs from the same
  // stream, concatenates them and sorts the whole.
  PoissonTrafficParams params;
  params.components = {{&websearch_cdf(), 0.5},
                       {&storage_cdf(), 0.3},
                       {&hadoop_cdf(), 0.2}};
  params.load = 0.5;
  params.host_bandwidth = sim::gbps(100);
  params.host_count = 16;
  params.duration = 500 * sim::kMicrosecond;
  params.first_flow_id = 7;

  sim::Rng ref_rng(9);
  std::vector<net::FlowSpec> want;
  net::FlowId next_id = params.first_flow_id;
  std::vector<std::size_t> run_sizes;
  for (const TrafficComponent& comp : params.components) {
    const double mean_gap_ns = 1.0 / component_arrival_rate(params, comp);
    const std::size_t before = want.size();
    for (double t = ref_rng.exponential(mean_gap_ns);
         t < static_cast<double>(params.duration);
         t += ref_rng.exponential(mean_gap_ns)) {
      net::FlowSpec spec;
      spec.id = next_id++;
      spec.src = static_cast<net::NodeId>(
          ref_rng.uniform_int(0, params.host_count - 1));
      do {
        spec.dst = static_cast<net::NodeId>(
            ref_rng.uniform_int(0, params.host_count - 1));
      } while (spec.dst == spec.src);
      spec.size_bytes = comp.cdf->sample(ref_rng);
      spec.start_time = static_cast<sim::Time>(t);
      want.push_back(spec);
    }
    run_sizes.push_back(want.size() - before);
  }
  for (const std::size_t n : run_sizes) EXPECT_GT(n, 10u);
  std::sort(want.begin(), want.end(),
            [](const net::FlowSpec& a, const net::FlowSpec& b) {
              if (a.start_time != b.start_time) {
                return a.start_time < b.start_time;
              }
              return a.id < b.id;
            });

  sim::Rng rng(9);
  const std::vector<net::FlowSpec> got = generate_poisson_traffic(params, rng);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "at " << i;
    EXPECT_EQ(got[i].start_time, want[i].start_time) << "at " << i;
    EXPECT_EQ(got[i].src, want[i].src) << "at " << i;
    EXPECT_EQ(got[i].dst, want[i].dst) << "at " << i;
    EXPECT_EQ(got[i].size_bytes, want[i].size_bytes) << "at " << i;
  }
}

}  // namespace
}  // namespace fastcc::workload
