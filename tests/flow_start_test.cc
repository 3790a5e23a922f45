// Flow starts from one cursor per simulator: one pending start event, in
// (start time, rank) order, each popping where a start queued at set-up
// would have.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "experiments/datacenter_setup.h"
#include "experiments/sharded.h"
#include "topo/fat_tree.h"
#include "workload/distributions.h"

namespace fastcc::exp {
namespace {

DatacenterConfig drawn_config() {
  DatacenterConfig c;
  c.variant = Variant::kHpccVaiSf;
  c.topo = topo::sharded_scaled_fat_tree();
  c.components = {{&workload::hadoop_cdf(), 1.0}};
  c.load = 0.4;
  c.generate_duration = 200 * sim::kMicrosecond;
  c.seed = 5;
  return c;
}

/// 32 flows on the 64-host tree, in four waves of equal start times; each
/// wave lists its flows out of id order, and the last wave precedes the
/// others in time.
DatacenterConfig equal_start_config() {
  DatacenterConfig c = drawn_config();
  const sim::Time wave_starts[] = {20, 10, 10, 5};
  for (net::FlowId i = 0; i < 32; ++i) {
    net::FlowSpec f;
    f.id = 100 - 3 * i;
    f.src = (7 * i) % 64;
    f.dst = (7 * i + 29) % 64;
    f.size_bytes = 20'000 + 1'000 * i;
    f.start_time = wave_starts[i / 8] * sim::kMicrosecond;
    c.preset_flows.push_back(f);
  }
  return c;
}

TEST(FlowStartCursor, StartsInTimeThenAddOrder) {
  sim::Simulator simulator;
  std::vector<std::size_t> started;
  FlowStartCursor cursor(simulator,
                         [&started](std::size_t i) { started.push_back(i); });
  const sim::Time at[] = {30, 10, 30, 20, 10, 30};
  for (std::size_t i = 0; i < 6; ++i) cursor.add(at[i], i);
  cursor.arm();
  EXPECT_EQ(simulator.queue().size(), 1u);
  simulator.run();
  EXPECT_EQ(started, (std::vector<std::size_t>{1, 4, 3, 0, 2, 5}));
  EXPECT_EQ(simulator.events_executed(), 6u);
}

TEST(FlowStartCursor, StartRunsBeforeSameInstantEventScheduledAfterSetUp) {
  // Every start pops where it would had it been queued at arm(): ahead of
  // an equal-time event scheduled later, although the cursor schedules it
  // only when the start before it runs.
  sim::Simulator simulator;
  std::vector<std::string> order;
  FlowStartCursor cursor(simulator, [&order](std::size_t i) {
    order.push_back("start " + std::to_string(i));
  });
  cursor.add(10, 0);
  cursor.add(20, 1);
  cursor.add(20, 2);
  cursor.arm();
  simulator.at(20, [&order] { order.push_back("event"); });
  simulator.at(10, [&order] { order.push_back("early event"); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<std::string>{"start 0", "early event",
                                             "start 1", "start 2", "event"}));
}

TEST(FlowStartCursor, SerialSetupLeavesOnePendingEvent) {
  sim::Simulator simulator;
  DatacenterSetup setup(drawn_config(), simulator);
  const DatacenterSetup::FlowHome home{&simulator, &setup.network().rng()};
  setup.schedule_flows({&home, 1}, [](net::NodeId) { return std::size_t{0}; });
  ASSERT_GT(setup.flow_count(), 100u);
  EXPECT_EQ(simulator.queue().size(), 1u);
}

TEST(FlowStartCursor, ShardedSetupLeavesAtMostOnePendingEventPerShard) {
  const DatacenterConfig config = equal_start_config();
  std::vector<sim::Simulator> sims(16);
  DatacenterSetup setup(config, sims[0]);
  const net::ShardMap smap =
      topo::tor_shard_map(setup.tree(), config.topo,
                          setup.network().node_count());
  ASSERT_EQ(smap.count, 16);
  std::vector<DatacenterSetup::FlowHome> homes;
  for (sim::Simulator& s : sims) homes.push_back({&s, &setup.network().rng()});
  std::vector<bool> has_source(16, false);
  for (const net::FlowSpec& f : config.preset_flows) {
    has_source[static_cast<std::size_t>(
        smap.of(setup.tree().hosts[f.src]->id()))] = true;
  }
  setup.schedule_flows(homes, [&smap](net::NodeId src) {
    return static_cast<std::size_t>(smap.of(src));
  });
  for (std::size_t s = 0; s < sims.size(); ++s) {
    EXPECT_EQ(sims[s].queue().size(), has_source[s] ? 1u : 0u)
        << "shard " << s;
  }
}

TEST(FlowStartCursor, SetupStartsEachWaveAheadOfLaterEqualTimeEvents) {
  // The serial set-up of equal_start_config(): at each wave's instant, an
  // event scheduled after set-up finds every flow of the wave started, and
  // none of a later wave.
  const DatacenterConfig config = equal_start_config();
  sim::Simulator simulator;
  DatacenterSetup setup(config, simulator);
  const DatacenterSetup::FlowHome home{&simulator, &setup.network().rng()};
  const topo::FatTree& tree = setup.tree();
  const auto started = [&tree](const net::FlowSpec& f) {
    return tree.hosts[f.src]->flow(f.id) != nullptr;
  };
  setup.schedule_flows({&home, 1}, [](net::NodeId) { return std::size_t{0}; });
  int checks = 0;
  for (const sim::Time wave : {5, 10, 20}) {
    simulator.at(wave * sim::kMicrosecond, [&, wave] {
      for (const net::FlowSpec& f : config.preset_flows) {
        EXPECT_EQ(started(f), f.start_time <= wave * sim::kMicrosecond)
            << "flow " << f.id << " at " << wave << " us";
      }
      ++checks;
    });
  }
  simulator.run(20 * sim::kMicrosecond);
  EXPECT_EQ(checks, 3);
}

TEST(FlowStartCursor, ShardedEqualStartsMatchAcrossWorkerCounts) {
  // Cursor events run on shard workers and read the set-up's shared spec
  // and path tables; equal start times across shards must not make the
  // result depend on which worker ran which shard.
  DatacenterConfig c = equal_start_config();
  c.shard_granularity = topo::ShardGranularity::kTor;
  const DatacenterResult r1 = run_datacenter_sharded(c, 1);
  const DatacenterResult r4 = run_datacenter_sharded(c, 4);
  ASSERT_EQ(r1.flows.size(), 32u);
  EXPECT_EQ(r1.unfinished, 0u);
  ASSERT_EQ(r4.flows.size(), r1.flows.size());
  EXPECT_EQ(r4.events_executed, r1.events_executed);
  for (std::size_t i = 0; i < r1.flows.size(); ++i) {
    EXPECT_EQ(r4.flows[i].id, r1.flows[i].id);
    EXPECT_EQ(r4.flows[i].start_time, r1.flows[i].start_time);
    EXPECT_EQ(r4.flows[i].fct, r1.flows[i].fct);
  }
}

}  // namespace
}  // namespace fastcc::exp
