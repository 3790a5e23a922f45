// Integration tests of the fat-tree datacenter experiment driver at a tiny
// CI-budget scale.
#include "experiments/datacenter.h"

#include <gtest/gtest.h>

#include "experiments/sharded.h"
#include "stats/fct.h"
#include "workload/distributions.h"
#include "workload/poisson.h"
#include "workload/trace.h"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fastcc::exp {
namespace {

DatacenterConfig tiny_config(Variant v) {
  DatacenterConfig c;
  c.variant = v;
  c.topo = topo::scaled_fat_tree();
  c.components = {{&workload::hadoop_cdf(), 1.0}};
  c.load = 0.4;
  c.generate_duration = 200 * sim::kMicrosecond;
  c.seed = 3;
  return c;
}

TEST(DatacenterExperiment, AllFlowsCompleteLosslessly) {
  const DatacenterResult r = run_datacenter(tiny_config(Variant::kHpcc));
  EXPECT_GT(r.flows.size(), 50u);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.drops, 0u);
}

TEST(DatacenterExperiment, SlowdownsAreAtLeastOne) {
  const DatacenterResult r = run_datacenter(tiny_config(Variant::kHpcc));
  for (const auto& f : r.flows) {
    EXPECT_GE(f.slowdown(), 0.999) << "flow " << f.id << " beat the ideal";
  }
}

TEST(DatacenterExperiment, DeterministicAcrossRuns) {
  const DatacenterResult a = run_datacenter(tiny_config(Variant::kSwift));
  const DatacenterResult b = run_datacenter(tiny_config(Variant::kSwift));
  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DatacenterExperiment, SeedChangesTheWorkload) {
  DatacenterConfig c1 = tiny_config(Variant::kHpcc);
  DatacenterConfig c2 = tiny_config(Variant::kHpcc);
  c2.seed = 4;
  const DatacenterResult a = run_datacenter(c1);
  const DatacenterResult b = run_datacenter(c2);
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(DatacenterExperiment, SlowdownTableIsWellFormed) {
  const DatacenterResult r = run_datacenter(tiny_config(Variant::kHpccVaiSf));
  const auto rows = stats::slowdown_by_size(r.flows, 10, 50.0);
  ASSERT_GT(rows.size(), 5u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i].max_size_bytes, rows[i - 1].max_size_bytes);
    EXPECT_GE(rows[i].slowdown, 1.0);
  }
}

TEST(DatacenterExperiment, MixedWorkloadDrawsFromBothCdfs) {
  DatacenterConfig c = tiny_config(Variant::kHpcc);
  c.components = {{&workload::websearch_cdf(), 0.5},
                  {&workload::storage_cdf(), 0.5}};
  const DatacenterResult r = run_datacenter(c);
  // Storage flows are tiny and numerous; websearch contributes multi-MB
  // flows.  Both signatures must appear.
  bool has_small = false, has_large = false;
  for (const auto& f : r.flows) {
    if (f.size_bytes < 10'000) has_small = true;
    if (f.size_bytes > 1'000'000) has_large = true;
  }
  EXPECT_TRUE(has_small);
  EXPECT_TRUE(has_large);
}

TEST(DatacenterExperiment, TraceReplayMatchesGeneratedRun) {
  // Replaying the exact flow schedule through preset_flows must reproduce
  // the generated run event-for-event.
  DatacenterConfig generated = tiny_config(Variant::kHpcc);
  const DatacenterResult a = run_datacenter(generated);

  // Regenerate the same schedule out-of-band (same derivation as the driver:
  // network rng seeded with config.seed, generator stream forked once).
  workload::PoissonTrafficParams traffic;
  traffic.components = generated.components;
  traffic.load = generated.load;
  traffic.host_bandwidth = generated.topo.host_bandwidth;
  traffic.host_count = generated.topo.host_count();
  traffic.duration = generated.generate_duration;
  sim::Rng base(generated.seed);
  sim::Rng traffic_rng = base.fork();
  std::vector<net::FlowSpec> flows =
      workload::generate_poisson_traffic(traffic, traffic_rng);

  // Round-trip the schedule through the CSV trace format.
  std::stringstream buffer;
  workload::write_flow_trace(buffer, flows);
  DatacenterConfig replay = tiny_config(Variant::kHpcc);
  replay.preset_flows = workload::read_flow_trace(buffer);
  const DatacenterResult b = run_datacenter(replay);

  ASSERT_EQ(a.flows.size(), b.flows.size());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(DatacenterExperiment, OversubscribedFabricStillCompletes) {
  DatacenterConfig c = tiny_config(Variant::kHpccVaiSf);
  c.topo = topo::with_oversubscription(topo::scaled_fat_tree(), 4.0);
  c.load = 0.2;  // offered load must fit the thinner core
  const DatacenterResult r = run_datacenter(c);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.drops, 0u);
}

TEST(DatacenterExperiment, DcqcnRunsWithRedAndPfc) {
  const DatacenterResult r = run_datacenter(tiny_config(Variant::kDcqcn));
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.drops, 0u);
}

// ---- Malformed preset flows ----

struct BadPreset {
  const char* name;
  net::FlowSpec flow;  ///< Joins two valid flows, ids 1 and 2.
  const char* field;   ///< The error must name flow.id and this field.
};

void PrintTo(const BadPreset& b, std::ostream* os) { *os << b.name; }

class PresetFlowRejection : public ::testing::TestWithParam<BadPreset> {};

TEST_P(PresetFlowRejection, BothRunnersThrowNamingFlowAndField) {
  const BadPreset& bad = GetParam();
  DatacenterConfig c = tiny_config(Variant::kHpcc);
  c.max_sim_time = sim::kMillisecond;  // bounds a run that should not start
  c.preset_flows = {{1, 0, 1, 10'000, 0}, {2, 4, 20, 10'000, 0}, bad.flow};
  const std::string expected = "preset flow " + std::to_string(bad.flow.id) +
                               ": " + bad.field + " ";
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "serial");
    try {
      if (sharded) {
        run_datacenter_sharded(c, 2);
      } else {
        run_datacenter(c);
      }
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
    }
  }
}

// The scaled tree has 32 hosts, indices 0-31.
INSTANTIATE_TEST_SUITE_P(
    Rows, PresetFlowRejection,
    ::testing::Values(
        BadPreset{"SrcPastTree", {3, 32, 1, 10'000, 0}, "src"},
        BadPreset{"DstPastTree", {3, 0, 32, 10'000, 0}, "dst"},
        BadPreset{"DstEqualsSrc", {3, 5, 5, 10'000, 0}, "dst"},
        BadPreset{"ZeroSize", {3, 0, 9, 0, 0}, "size_bytes"},
        BadPreset{"NegativeStart", {3, 0, 9, 10'000, -sim::kMicrosecond},
                  "start_time"},
        BadPreset{"RepeatedId", {1, 6, 17, 10'000, 0}, "id"}),
    [](const ::testing::TestParamInfo<BadPreset>& row) {
      return std::string(row.param.name);
    });

// ---- Malformed configs ----

struct BadConfig {
  const char* name;
  void (*spoil)(DatacenterConfig&);
  const char* field;  ///< The error must begin with this field's name.
};

void PrintTo(const BadConfig& b, std::ostream* os) { *os << b.name; }

class ConfigRejection : public ::testing::TestWithParam<BadConfig> {};

TEST_P(ConfigRejection, BothRunnersThrowNamingTheField) {
  const BadConfig& bad = GetParam();
  DatacenterConfig c = tiny_config(Variant::kHpcc);
  c.max_sim_time = sim::kMillisecond;  // bounds a run that should not start
  bad.spoil(c);
  const std::string expected = std::string(bad.field) + " ";
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "serial");
    try {
      if (sharded) {
        run_datacenter_sharded(c, 2);
      } else {
        run_datacenter(c);
      }
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(expected, 0), 0u) << e.what();
    }
  }
}

// Without the check, the zero counts and the null CDF crash, a negative load
// generates arrivals until memory runs out, a zero fabric bandwidth strands
// flows unfinished, and the other zeros run an empty workload to the cap.
INSTANTIATE_TEST_SUITE_P(
    Rows, ConfigRejection,
    ::testing::Values(
        BadConfig{"ZeroPods", [](DatacenterConfig& c) { c.topo.pods = 0; },
                  "topo.pods"},
        BadConfig{"NegativeTorsPerPod",
                  [](DatacenterConfig& c) { c.topo.tors_per_pod = -1; },
                  "topo.tors_per_pod"},
        BadConfig{"ZeroAggsPerPod",
                  [](DatacenterConfig& c) { c.topo.aggs_per_pod = 0; },
                  "topo.aggs_per_pod"},
        BadConfig{"ZeroHostsPerTor",
                  [](DatacenterConfig& c) { c.topo.hosts_per_tor = 0; },
                  "topo.hosts_per_tor"},
        BadConfig{"ZeroSpineGroupSize",
                  [](DatacenterConfig& c) { c.topo.spine_group_size = 0; },
                  "topo.spine_group_size"},
        BadConfig{"ZeroHostBandwidth",
                  [](DatacenterConfig& c) { c.topo.host_bandwidth = 0; },
                  "topo.host_bandwidth"},
        BadConfig{"ZeroFabricBandwidth",
                  [](DatacenterConfig& c) { c.topo.fabric_bandwidth = 0; },
                  "topo.fabric_bandwidth"},
        BadConfig{"NoComponent",
                  [](DatacenterConfig& c) { c.components.clear(); },
                  "components"},
        BadConfig{"NullCdf",
                  [](DatacenterConfig& c) { c.components[0].cdf = nullptr; },
                  "components[0].cdf"},
        BadConfig{"ZeroLoadFraction",
                  [](DatacenterConfig& c) { c.components[0].load_fraction = 0; },
                  "components[0].load_fraction"},
        BadConfig{"ZeroLoad", [](DatacenterConfig& c) { c.load = 0; }, "load"},
        BadConfig{"NegativeLoad", [](DatacenterConfig& c) { c.load = -0.5; },
                  "load"},
        BadConfig{"LoadAboveOne", [](DatacenterConfig& c) { c.load = 1.5; },
                  "load"},
        BadConfig{"ZeroGenerateDuration",
                  [](DatacenterConfig& c) { c.generate_duration = 0; },
                  "generate_duration"}),
    [](const ::testing::TestParamInfo<BadConfig>& row) {
      return std::string(row.param.name);
    });

}  // namespace
}  // namespace fastcc::exp
