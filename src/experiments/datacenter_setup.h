// Set-up shared by the two datacenter runners, and the config checks of
// every runner (internal to experiments/).
//
// run_datacenter() and run_datacenter_sharded() build the same experiment:
// the fat-tree, the variant's RED/PFC settings, the congestion-control
// factory, the flow specs (preset or a Poisson draw), the path cache, and
// one scheduled start event per flow.  DatacenterSetup does all of that in
// one fixed order, so a given config yields the same network, the same flow
// set and the same random-stream consumption in both runners.  The runners
// differ only in where each flow's start event lands and which Rng its
// controller draws from (FlowHome), and in how they run and collect.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace fastcc::exp {

/// Throws std::invalid_argument, naming the field, for a config the runners
/// cannot run (the cases are listed on DatacenterConfig).  DatacenterSetup's
/// constructor calls it first; run_datacenter_sharded calls it before
/// sizing its shards by the topology.
void check_datacenter_config(const DatacenterConfig& config);

/// Throws std::invalid_argument, naming the field, for an incast run_incast
/// cannot run: no sender, a 0-byte flow, no flow per wave, a star with
/// fewer than senders + 1 hosts, a link bandwidth or sample interval that
/// is not positive, or a buffer cap below one packet.  run_incast calls it
/// first.
void check_incast_config(const IncastConfig& config);

class DatacenterSetup {
 public:
  /// Builds the fat-tree on `simulator`, applies the variant's RED/PFC
  /// settings, creates the CC factory, and takes the flow specs from
  /// config.preset_flows or draws them from a fork of the network's Rng.
  /// Throws std::invalid_argument for a malformed config (see
  /// check_datacenter_config) and, naming the flow id and the field, for a
  /// preset flow with a src or dst outside the tree, dst == src, size 0, a
  /// negative start time, or an id another preset flow already uses.
  DatacenterSetup(const DatacenterConfig& config, sim::Simulator& simulator);
  DatacenterSetup(const DatacenterSetup&) = delete;
  DatacenterSetup& operator=(const DatacenterSetup&) = delete;

  net::Network& network() { return network_; }
  const topo::FatTree& tree() const { return tree_; }
  std::size_t flow_count() const { return specs_.size(); }

  /// Where a flow whose source host is `src` runs: the simulator that owns
  /// the host and the Rng its controller draws from.
  struct FlowHome {
    sim::Simulator* simulator;
    sim::Rng* rng;
  };

  /// Remaps every spec's host indices to node ids, resolves its path
  /// (cached per host pair), and schedules its start on home_of(src).  The
  /// scheduled events refer into this object, so it must outlive the run.
  void schedule_flows(const std::function<FlowHome(net::NodeId src)>& home_of);

  /// The path flow `id` was scheduled on.  Read-only once schedule_flows()
  /// returns, so completion callbacks on any worker may call it.
  const net::PathInfo& path_of_flow(net::FlowId id) const {
    return *flow_paths_.at(id);
  }

 private:
  const net::PathInfo& path_of(net::NodeId src, net::NodeId dst);

  net::Network network_;
  topo::FatTree tree_;
  CcFactory factory_;
  std::vector<net::FlowSpec> specs_;
  // Ordered maps: deterministic by construction, and node-based storage
  // keeps the PathInfo references handed out stable across insertions.
  std::map<std::pair<net::NodeId, net::NodeId>, net::PathInfo> path_cache_;
  std::map<net::FlowId, const net::PathInfo*> flow_paths_;
};

}  // namespace fastcc::exp
