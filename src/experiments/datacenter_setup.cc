#include "experiments/datacenter_setup.h"

#include <cassert>

namespace fastcc::exp {

namespace {

/// The fat-tree plus the variant's switch settings, applied before the CC
/// factory sees the network.
topo::FatTree build_configured_tree(net::Network& network,
                                    const DatacenterConfig& config) {
  topo::FatTree tree = build_fat_tree(network, config.topo);
  if (variant_needs_red(config.variant)) {
    network.set_red_all(red_params_for(config.variant));
    // ECN-driven deployments rely on PFC for losslessness while the
    // protocol converges (RDMA practice for DCQCN; harmless for DCTCP).
    net::PfcParams pfc;
    pfc.pause_bytes = 200'000;
    pfc.resume_bytes = 100'000;
    network.set_pfc_all(pfc);
  }
  return tree;
}

}  // namespace

DatacenterSetup::DatacenterSetup(const DatacenterConfig& config,
                                 sim::Simulator& simulator)
    : network_(simulator, config.seed),
      tree_(build_configured_tree(network_, config)),
      factory_(network_, config.variant, /*small_topology=*/false) {
  assert(!config.components.empty() || !config.preset_flows.empty());
  if (!config.preset_flows.empty()) {
    specs_ = config.preset_flows;
    return;
  }
  workload::PoissonTrafficParams traffic;
  traffic.components = config.components;
  traffic.load = config.load;
  traffic.host_bandwidth = config.topo.host_bandwidth;
  traffic.host_count = static_cast<int>(tree_.hosts.size());
  traffic.duration = config.generate_duration;
  sim::Rng traffic_rng = network_.rng().fork();
  specs_ = workload::generate_poisson_traffic(traffic, traffic_rng);
}

const net::PathInfo& DatacenterSetup::path_of(net::NodeId src,
                                              net::NodeId dst) {
  // The fat-tree is symmetric, so repeated pairs are common and BFS is
  // worth caching.
  auto key = std::make_pair(src, dst);
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    it = path_cache_.emplace(key, network_.path(src, dst)).first;
  }
  return it->second;
}

void DatacenterSetup::schedule_flows(
    const std::function<FlowHome(net::NodeId src)>& home_of) {
  for (net::FlowSpec& spec : specs_) {
    // Remap generator host indices to topology node ids.
    net::Host* src = tree_.hosts[spec.src];
    net::Host* dst = tree_.hosts[spec.dst];
    spec.src = src->id();
    spec.dst = dst->id();
    const net::PathInfo& path = path_of(spec.src, spec.dst);
    flow_paths_.emplace(spec.id, &path);
    const FlowHome home = home_of(spec.src);
    const CcFactory* factory = &factory_;
    sim::Rng* rng = home.rng;
    // The factory and cached path live in this object, which the caller
    // keeps alive until its run has drained every flow-start event.
    // lint:allow(ref-capture-callback -- the set-up object outlives the run)
    home.simulator->at(spec.start_time, [factory, src, spec, &path, rng] {
      net::FlowTx flow;
      flow.spec = spec;
      flow.line_rate = src->port(0).bandwidth();
      flow.base_rtt = path.base_rtt;
      flow.path_hops = path.hops;
      flow.cc = factory->make(path, rng);
      src->start_flow(std::move(flow));
    });
  }
}

}  // namespace fastcc::exp
