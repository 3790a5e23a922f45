#include "experiments/datacenter.h"

#include "experiments/datacenter_setup.h"
#include "sim/simulator.h"

namespace fastcc::exp {

DatacenterResult run_datacenter(const DatacenterConfig& config) {
  sim::Simulator simulator;
  DatacenterSetup setup(config, simulator);

  stats::FctRecorder recorder;
  std::size_t completed = 0;
  const std::size_t total = setup.flow_count();
  for (net::Host* h : setup.tree().hosts) {
    h->set_completion_callback([&](const net::FlowTx& f) {
      recorder.record(f, setup.path_of_flow(f.spec.id));
      ++completed;
      if (completed == total) simulator.stop();
    });
  }

  // One simulator, and the network's own stream for CC randomness.
  const DatacenterSetup::FlowHome home{&simulator, &setup.network().rng()};
  setup.schedule_flows({&home, 1}, [](net::NodeId) { return std::size_t{0}; });

  simulator.run(config.max_sim_time);

  DatacenterResult result;
  result.flows = recorder.records();
  result.drops = setup.network().total_drops();
  result.events_executed = simulator.events_executed();
  result.end_time = simulator.now();
  result.unfinished = total - completed;
  return result;
}

}  // namespace fastcc::exp
