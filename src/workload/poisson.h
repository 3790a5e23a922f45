// Poisson datacenter traffic generation (Section VI-A).
//
// Flows arrive as a Poisson process whose rate is chosen so that the
// aggregate offered bytes equal `load` x the total host injection capacity;
// each arrival picks a uniform random (src, dst) host pair (src != dst) and
// a size drawn from a flow-size CDF.  A mix of CDFs splits the load by
// weight, modelling the paper's shared WebSearch + storage cluster.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/cdf.h"

namespace fastcc::workload {

struct TrafficComponent {
  const Cdf* cdf = nullptr;
  double load_fraction = 1.0;  ///< Share of total target load.
};

struct PoissonTrafficParams {
  std::vector<TrafficComponent> components;
  double load = 0.5;            ///< Fraction of aggregate host bandwidth.
  sim::Rate host_bandwidth = 0; ///< Per-host injection capacity.
  int host_count = 0;
  sim::Time duration = 0;       ///< Arrivals generated in [0, duration).
  net::FlowId first_flow_id = 1;
};

/// Pre-generates the full arrival schedule (deterministic given `rng`).
/// Returned specs are sorted by (start time, id).  NOTE: spec.src /
/// spec.dst hold *host indices* in [0, host_count); the experiment driver
/// remaps them to topology node ids.
std::vector<net::FlowSpec> generate_poisson_traffic(
    const PoissonTrafficParams& params, sim::Rng& rng);

/// Flow arrival rate (flows per ns) implied by one component of the mix.
double component_arrival_rate(const PoissonTrafficParams& params,
                              const TrafficComponent& component);

}  // namespace fastcc::workload
