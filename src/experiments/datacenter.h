// Datacenter simulation driver (Figures 10-13).
//
// Runs Poisson CDF-driven traffic over the fat-tree and records a FlowRecord
// per completed flow; the slowdown tables in stats/fct.h turn those into the
// paper's FCT-slowdown-vs-size figures.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/protocols.h"
#include "stats/fct.h"
#include "topo/fat_tree.h"
#include "workload/poisson.h"

namespace fastcc::exp {

/// Both runners throw std::invalid_argument, naming the field, for a config
/// they cannot run: a topology count or link bandwidth that is not positive
/// and, when preset_flows is empty, no component, a null CDF, a
/// load_fraction that is not positive, a load outside (0, 1] or a
/// generate_duration that is not positive.
struct DatacenterConfig {
  Variant variant = Variant::kHpcc;
  topo::FatTreeParams topo = topo::scaled_fat_tree();
  std::vector<workload::TrafficComponent> components;  ///< Workload mix.
  double load = 0.5;
  sim::Time generate_duration = 2 * sim::kMillisecond;  ///< Arrival window.
  sim::Time max_sim_time = 400 * sim::kMillisecond;     ///< Drain cap.
  std::uint64_t seed = 1;

  /// Partition grain for run_datacenter_sharded (ignored by the serial
  /// entry point): kPod gives one shard per pod, kTor one per rack, so the
  /// parallel width scales with rack count.  Like the worker count, this is
  /// a wall-clock knob with a determinism contract per grain — but
  /// *changing* the grain changes shard Rng stream assignment, so results
  /// are comparable across grains only statistically (same flow
  /// population, equivalent aggregate FCTs), exactly like sharded vs
  /// serial.
  topo::ShardGranularity shard_granularity = topo::ShardGranularity::kPod;

  /// When non-empty, replay these flows (src/dst as host indices — e.g.
  /// loaded via workload::load_flow_trace) instead of generating traffic;
  /// `components`/`load`/`generate_duration` are then ignored.  Both
  /// runners throw std::invalid_argument for a malformed flow: a host index
  /// outside the tree, dst == src, size 0, a negative start or a repeated id.
  std::vector<net::FlowSpec> preset_flows;
};

struct DatacenterResult {
  std::vector<stats::FlowRecord> flows;
  std::uint64_t drops = 0;
  std::uint64_t events_executed = 0;
  sim::Time end_time = 0;
  std::size_t unfinished = 0;  ///< Flows still running at max_sim_time.
};

DatacenterResult run_datacenter(const DatacenterConfig& config);

}  // namespace fastcc::exp
