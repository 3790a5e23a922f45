#include "workload/poisson.h"

#include <algorithm>
#include <cassert>

namespace fastcc::workload {

double component_arrival_rate(const PoissonTrafficParams& params,
                              const TrafficComponent& component) {
  assert(component.cdf != nullptr);
  const double aggregate_bytes_per_ns =
      params.load * component.load_fraction *
      params.host_bandwidth * static_cast<double>(params.host_count);
  return aggregate_bytes_per_ns / component.cdf->mean_bytes();
}

std::vector<net::FlowSpec> generate_poisson_traffic(
    const PoissonTrafficParams& params, sim::Rng& rng) {
  assert(params.host_count >= 2 && params.duration > 0);
  const auto by_start_then_id = [](const net::FlowSpec& a,
                                   const net::FlowSpec& b) {
    if (a.start_time != b.start_time) return a.start_time < b.start_time;
    return a.id < b.id;
  };
  std::vector<net::FlowSpec> flows;
  net::FlowId next_id = params.first_flow_id;

  for (const TrafficComponent& comp : params.components) {
    const double lambda = component_arrival_rate(params, comp);
    assert(lambda > 0.0);
    const double mean_gap_ns = 1.0 / lambda;
    const auto run_start = static_cast<std::ptrdiff_t>(flows.size());
    double t = rng.exponential(mean_gap_ns);
    while (t < static_cast<double>(params.duration)) {
      net::FlowSpec spec;
      spec.id = next_id++;
      spec.src = static_cast<net::NodeId>(
          rng.uniform_int(0, params.host_count - 1));
      do {
        spec.dst = static_cast<net::NodeId>(
            rng.uniform_int(0, params.host_count - 1));
      } while (spec.dst == spec.src);
      spec.size_bytes = comp.cdf->sample(rng);
      spec.start_time = static_cast<sim::Time>(t);
      flows.push_back(spec);
      t += rng.exponential(mean_gap_ns);
    }
    // Arrival times rise and ids ascend, so this component's run is sorted
    // and a merge with the runs before it keeps the whole vector sorted.
    assert(std::is_sorted(flows.begin() + run_start, flows.end(),
                          by_start_then_id));
    std::inplace_merge(flows.begin(), flows.begin() + run_start, flows.end(),
                       by_start_then_id);
  }
  return flows;
}

}  // namespace fastcc::workload
