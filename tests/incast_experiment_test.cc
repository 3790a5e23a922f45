// Integration tests of the incast experiment driver, including the paper's
// headline claims as regression checks (smaller scale for CI budget).
#include "experiments/incast.h"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

namespace fastcc::exp {
namespace {

IncastConfig small_config(Variant v) {
  IncastConfig c;
  c.variant = v;
  c.pattern.senders = 8;
  c.pattern.flow_bytes = 200'000;
  c.star.host_count = 9;
  return c;
}

class IncastAllVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(IncastAllVariants, CompletesLosslesslyWithSaneMetrics) {
  const IncastResult r = run_incast(small_config(GetParam()));
  ASSERT_EQ(r.flows.size(), 8u);
  EXPECT_EQ(r.drops, 0u);
  for (const FlowTiming& f : r.flows) {
    EXPECT_GT(f.finish, f.start);
    // No flow can beat the line-rate bound: 200 KB at 100 Gbps > 16 us.
    EXPECT_GT(f.fct(), 16'000);
  }
  for (const auto& p : r.jain.points()) {
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 1.0 + 1e-9);
  }
  // Queue drains by the end of the run.
  ASSERT_FALSE(r.queue_bytes.empty());
  EXPECT_LT(r.queue_bytes.points().back().value, 2000.0);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, IncastAllVariants,
    ::testing::Values(Variant::kHpcc, Variant::kHpcc1G, Variant::kHpccProb,
                      Variant::kHpccVai, Variant::kHpccSf, Variant::kHpccVaiSf,
                      Variant::kSwift, Variant::kSwift1G, Variant::kSwiftProb,
                      Variant::kSwiftVai, Variant::kSwiftSf,
                      Variant::kSwiftVaiSf, Variant::kSwiftHai,
                      Variant::kDcqcn, Variant::kTimely,
                      Variant::kDctcp),
    [](const auto& param_info) {
      std::string name = variant_name(param_info.param);
      for (char& c : name) {
        if (c == ' ') c = '_';
      }
      return name;
    });

TEST(IncastExperiment, AggregateThroughputBoundedByLink) {
  const IncastResult r = run_incast(small_config(Variant::kHpcc));
  // 8 x 200 KB through one 100 Gbps link: wire-rate floor ~134 us.
  const double wire_bytes = 8.0 * 200.0 * 1048;  // incl. headers
  EXPECT_GT(static_cast<double>(r.completion_time),
            wire_bytes / sim::gbps(100));
}

TEST(IncastExperiment, DeterministicAcrossRuns) {
  const IncastResult a = run_incast(small_config(Variant::kHpccVaiSf));
  const IncastResult b = run_incast(small_config(Variant::kHpccVaiSf));
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].finish, b.flows[i].finish);
  }
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(IncastExperiment, StaggeredStartsFollowThePattern) {
  const IncastResult r = run_incast(small_config(Variant::kHpcc));
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    EXPECT_EQ(r.flows[i].start,
              static_cast<sim::Time>(i / 2) * 20 * sim::kMicrosecond);
  }
}

// --- Paper claims at the 16-1 scale (Section III-E / VI-B) ---

struct PaperScale : ::testing::Test {
  static IncastResult run_variant(Variant v) {
    IncastConfig c;
    c.variant = v;  // paper defaults: 16-1, 1 MB, 2 per 20 us
    return run_incast(c);
  }
};

TEST_F(PaperScale, DefaultHpccStarvesEarlyFlows) {
  // Figure 2's trend: with default HPCC the first flows to start finish
  // among the last (later joiners keep grabbing line-rate shares).
  const IncastResult r = run_variant(Variant::kHpcc);
  const sim::Time first_flow_finish = r.flows.front().finish;
  int finishing_after_first = 0;
  for (const FlowTiming& f : r.flows) {
    if (f.finish > first_flow_finish) ++finishing_after_first;
  }
  EXPECT_LT(finishing_after_first, 4);
}

TEST_F(PaperScale, VaiSfHalvesTheFinishSpreadInHpcc) {
  const IncastResult base = run_variant(Variant::kHpcc);
  const IncastResult vai_sf = run_variant(Variant::kHpccVaiSf);
  EXPECT_LT(vai_sf.finish_spread() * 2, base.finish_spread());
}

TEST_F(PaperScale, VaiSfHalvesTheFinishSpreadInSwift) {
  const IncastResult base = run_variant(Variant::kSwift);
  const IncastResult vai_sf = run_variant(Variant::kSwiftVaiSf);
  EXPECT_LT(vai_sf.finish_spread() * 2, base.finish_spread());
}

TEST_F(PaperScale, VaiSfConvergesToFairnessFasterInHpcc) {
  const IncastResult base = run_variant(Variant::kHpcc);
  const IncastResult vai_sf = run_variant(Variant::kHpccVaiSf);
  const sim::Time base_settle = base.jain_settle_time(0.9);
  const sim::Time vai_settle = vai_sf.jain_settle_time(0.9);
  ASSERT_GE(vai_settle, 0);
  EXPECT_TRUE(base_settle < 0 || vai_settle < base_settle);
}

TEST_F(PaperScale, HpccVaiSfKeepsNearZeroSteadyQueues) {
  // Figure 5(b): with VAI SF the bottleneck queue stays near zero outside
  // the join transient.
  const IncastResult r = run_variant(Variant::kHpccVaiSf);
  EXPECT_LT(r.queue_bytes.mean_after(r.completion_time / 2), 5'000.0);
}

TEST_F(PaperScale, SwiftVaiSfFasterCompletionThanDefault) {
  const IncastResult base = run_variant(Variant::kSwift);
  const IncastResult vai_sf = run_variant(Variant::kSwiftVaiSf);
  EXPECT_LT(vai_sf.completion_time, base.completion_time);
}

TEST_F(PaperScale, VaiSfMaintainsHighThroughput) {
  // Abstract: "while using our mechanisms, we ... maintain high throughput".
  // The bottleneck utilization with VAI SF must be at least that of the
  // default configuration (fairness is not bought with idle bandwidth).
  const IncastResult hpcc = run_variant(Variant::kHpcc);
  const IncastResult hpcc_vai = run_variant(Variant::kHpccVaiSf);
  EXPECT_GE(hpcc_vai.mean_utilization(), 0.9 * hpcc.mean_utilization());
  EXPECT_GT(hpcc_vai.mean_utilization(), 0.85);
  const IncastResult swift = run_variant(Variant::kSwift);
  const IncastResult swift_vai = run_variant(Variant::kSwiftVaiSf);
  EXPECT_GE(swift_vai.mean_utilization(), 0.9 * swift.mean_utilization());
}

TEST_F(PaperScale, SmallFlowProbesUnharmedByVaiSf) {
  // Abstract: "without compromising small flow performance".  2 KB probes
  // injected during the 16-1 long-flow incast must complete about as fast
  // under VAI SF as under default HPCC.
  auto probed = [](Variant v) {
    IncastConfig c;
    c.variant = v;
    c.probe_count = 20;
    return run_incast(c);
  };
  const IncastResult base = probed(Variant::kHpcc);
  const IncastResult vai_sf = probed(Variant::kHpccVaiSf);
  ASSERT_EQ(base.probes.size(), 20u);
  ASSERT_EQ(vai_sf.probes.size(), 20u);
  EXPECT_LE(vai_sf.median_probe_fct(), 2 * base.median_probe_fct());
  // And probes stay genuinely small-flow fast: well under one incast FCT.
  EXPECT_LT(vai_sf.median_probe_fct(), 200 * sim::kMicrosecond);
}

TEST(IncastProbes, DisabledByDefault) {
  IncastConfig c;
  c.pattern.senders = 4;
  c.pattern.flow_bytes = 50'000;
  c.star.host_count = 5;
  const IncastResult r = run_incast(c);
  EXPECT_TRUE(r.probes.empty());
  EXPECT_EQ(r.median_probe_fct(), -1);
}

TEST_F(PaperScale, VaiSfCutsUnfairnessDebt) {
  // Condensed form of Figures 5/6: the integral of (1 - Jain) over the run
  // must shrink by at least 3x with the paper's mechanisms.
  const IncastResult base = run_variant(Variant::kHpcc);
  const IncastResult vai_sf = run_variant(Variant::kHpccVaiSf);
  EXPECT_LT(vai_sf.convergence().unfairness_integral_ns * 3,
            base.convergence().unfairness_integral_ns);
}

// A config run_incast cannot run is refused before the star is built, with
// an error that begins with the field's name.
struct BadIncast {
  const char* name;
  void (*spoil)(IncastConfig&);
  const char* field;
};

void PrintTo(const BadIncast& b, std::ostream* os) { *os << b.name; }

class IncastConfigRejection : public ::testing::TestWithParam<BadIncast> {};

TEST_P(IncastConfigRejection, RunIncastThrowsNamingTheField) {
  IncastConfig c;  // the default 16-1 incast
  GetParam().spoil(c);
  try {
    run_incast(c);
    ADD_FAILURE() << "no std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string expected = std::string(GetParam().field) + " ";
    EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
  }
}

// Without the check, under -O2 -DNDEBUG, the host, sender, size, bandwidth
// and buffer rows segfault, the zero wave size raises SIGFPE, and the zero
// sample intervals never return (the sampler re-arms at the same instant).
INSTANTIATE_TEST_SUITE_P(
    Rows, IncastConfigRejection,
    ::testing::Values(
        BadIncast{"StarSmallerThanSenders",
                  [](IncastConfig& c) { c.star.host_count = 8; },
                  "star.host_count"},
        BadIncast{"ZeroSenders",
                  [](IncastConfig& c) { c.pattern.senders = 0; },
                  "pattern.senders"},
        BadIncast{"NegativeSenders",
                  [](IncastConfig& c) { c.pattern.senders = -1; },
                  "pattern.senders"},
        BadIncast{"ZeroFlowBytes",
                  [](IncastConfig& c) { c.pattern.flow_bytes = 0; },
                  "pattern.flow_bytes"},
        BadIncast{"ZeroHostBandwidth",
                  [](IncastConfig& c) { c.star.host_bandwidth = 0; },
                  "star.host_bandwidth"},
        BadIncast{"BufferBelowOnePacket",
                  [](IncastConfig& c) { c.buffer_limit_bytes = 500; },
                  "buffer_limit_bytes"},
        BadIncast{"ZeroFlowsPerWave",
                  [](IncastConfig& c) { c.pattern.flows_per_wave = 0; },
                  "pattern.flows_per_wave"},
        BadIncast{"ZeroJainSampleInterval",
                  [](IncastConfig& c) { c.jain_sample_interval = 0; },
                  "jain_sample_interval"},
        BadIncast{"ZeroQueueSampleInterval",
                  [](IncastConfig& c) { c.queue_sample_interval = 0; },
                  "queue_sample_interval"}),
    [](const ::testing::TestParamInfo<BadIncast>& row) {
      return std::string(row.param.name);
    });

TEST(IncastExperiment, UnfinishedAtTheCapThrowsNamingTheCount) {
  IncastConfig c;
  c.max_sim_time = 100 * sim::kMicrosecond;  // no 1 MB flow is done by then
  try {
    run_incast(c);
    ADD_FAILURE() << "no std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("16 of 16 flows unfinished"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace fastcc::exp
