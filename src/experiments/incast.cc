#include "experiments/incast.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/percentile.h"

#include "core/fairness.h"
#include "experiments/datacenter_setup.h"
#include "net/monitor.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace fastcc::exp {

sim::Time IncastResult::median_probe_fct() const {
  if (probes.empty()) return -1;
  stats::PercentileEstimator est;
  for (const FlowTiming& p : probes) {
    est.add(static_cast<double>(p.fct()));
  }
  return static_cast<sim::Time>(est.median());
}

double IncastResult::mean_utilization() const {
  if (utilization.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : utilization.points()) sum += p.value;
  return sum / static_cast<double>(utilization.size());
}

sim::Time IncastResult::finish_spread() const {
  assert(!flows.empty());
  auto [min_it, max_it] = std::minmax_element(
      flows.begin(), flows.end(),
      [](const FlowTiming& a, const FlowTiming& b) { return a.finish < b.finish; });
  return max_it->finish - min_it->finish;
}

IncastResult run_incast(const IncastConfig& config) {
  check_incast_config(config);  // before the star is built from it
  sim::Simulator simulator;
  net::Network network(simulator, config.seed);
  topo::StarParams star_params = config.star;
  if (config.probe_count > 0) ++star_params.host_count;  // the prober
  topo::Star star = build_star(network, star_params);

  configure_switches(network, config.variant);
  if (config.buffer_limit_bytes > 0) {
    network.set_buffer_limit_all(config.buffer_limit_bytes);
  }
  if (config.pfc.enabled()) network.set_pfc_all(config.pfc);

  CcFactory factory(network, config.variant, /*small_topology=*/true);

  // With probing enabled the extra (last) host probes; the receiver is the
  // host the incast pattern expects at index senders.
  net::Host* receiver = star.hosts[config.pattern.senders];
  net::Host* prober =
      config.probe_count > 0 ? star.hosts.back() : nullptr;
  std::vector<net::NodeId> sender_ids;
  for (int i = 0; i < config.pattern.senders; ++i) {
    sender_ids.push_back(star.hosts[i]->id());
  }
  const std::vector<net::FlowSpec> specs =
      workload::make_incast(config.pattern, sender_ids, receiver->id());

  IncastResult result;
  int completed = 0;
  const int total = static_cast<int>(specs.size());
  const net::FlowId first_probe_id = 1'000'000;

  // Completion: record timings; all senders share the callback.  Probe
  // flows are kept separate and do not gate the run's samplers.
  for (net::Host* h : star.hosts) {
    h->set_completion_callback([&](const net::FlowTx& f) {
      FlowTiming t;
      t.id = f.spec.id;
      t.start = f.spec.start_time;
      t.finish = f.finish_time;
      if (f.spec.id >= first_probe_id) {
        result.probes.push_back(t);
        return;
      }
      result.flows.push_back(t);
      ++completed;
    });
  }

  // One cursor starts every flow: the probes from the dedicated prober
  // host, then the senders, ranked in that order (see FlowStartCursor).
  std::vector<net::FlowSpec> starts;
  starts.reserve(static_cast<std::size_t>(config.probe_count) + specs.size());
  for (int i = 0; i < config.probe_count; ++i) {
    net::FlowSpec spec;
    spec.id = first_probe_id + static_cast<net::FlowId>(i);
    spec.src = prober->id();
    spec.dst = receiver->id();
    spec.size_bytes = config.probe_bytes;
    spec.start_time = (i + 1) * config.probe_interval;
    starts.push_back(spec);
  }
  starts.insert(starts.end(), specs.begin(), specs.end());
  std::vector<net::PathInfo> paths;
  paths.reserve(starts.size());
  for (const net::FlowSpec& spec : starts) {
    paths.push_back(network.path(spec.src, spec.dst));
  }
  FlowStartCursor cursor(simulator, [&](std::size_t i) {
    const net::FlowSpec& spec = starts[i];
    const net::PathInfo& path = paths[i];
    auto* src = static_cast<net::Host*>(network.node(spec.src));
    net::FlowTx flow;
    flow.spec = spec;
    flow.line_rate = src->port(0).bandwidth();
    flow.base_rtt = path.base_rtt;
    flow.path_hops = path.hops;
    flow.cc = config.custom_cc ? config.custom_cc(path) : factory.make(path);
    src->start_flow(std::move(flow));
  });
  for (std::size_t i = 0; i < starts.size(); ++i) {
    cursor.add(starts[i].start_time, i);
  }
  cursor.arm();

  // Bottleneck queue: the hub's egress port toward the receiver.
  net::Port* bottleneck = nullptr;
  for (int i = 0; i < star.hub->port_count(); ++i) {
    if (star.hub->port(i).peer() == receiver) {
      bottleneck = &star.hub->port(i);
      break;
    }
  }
  assert(bottleneck != nullptr);

  // Periodic samplers; they re-arm until every flow completes.
  result.jain = stats::TimeSeries(std::string(variant_name(config.variant)));
  result.queue_bytes =
      stats::TimeSeries(std::string(variant_name(config.variant)));

  // A sampler re-arms through a pointer to itself, an 8-byte closure that
  // stays inline.  Copying the std::function would allocate once per
  // sample: its [&] captures overflow std::function's local buffer.
  const auto rearm = [&simulator](sim::Time delay,
                                  const std::function<void()>* sampler) {
    simulator.after(delay, [sampler] { (*sampler)(); });
  };

  std::vector<std::uint64_t> last_acked(specs.size(), 0);
  std::vector<double> throughput;
  std::function<void()> sample_jain = [&] {
    const sim::Time now = simulator.now();
    const sim::Time window_start = now - config.jain_sample_interval;
    throughput.clear();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const net::Host* src =
          star.hosts[specs[i].src - star.hosts.front()->id()];
      const net::FlowTx* f = src->flow(specs[i].id);
      if (f == nullptr) continue;  // not started yet
      const std::uint64_t delta = f->cum_acked - last_acked[i];
      last_acked[i] = f->cum_acked;
      // Only flows active for the whole window participate; flows that start
      // or finish mid-window would otherwise be misread as slow.
      const bool full_window = f->spec.start_time <= window_start &&
                               (!f->finished() || f->finish_time >= now);
      if (!full_window) continue;
      throughput.push_back(static_cast<double>(delta));
    }
    if (!throughput.empty()) {
      result.jain.add(now, core::jain_index(throughput));
    }
    if (completed < total) rearm(config.jain_sample_interval, &sample_jain);
  };
  rearm(config.jain_sample_interval, &sample_jain);

  std::function<void()> sample_queue = [&] {
    result.queue_bytes.add(simulator.now(),
                           static_cast<double>(bottleneck->data_queue_bytes()));
    if (completed < total) rearm(config.queue_sample_interval, &sample_queue);
  };
  rearm(config.queue_sample_interval, &sample_queue);

  net::UtilizationMonitor util(simulator, *bottleneck,
                               config.jain_sample_interval,
                               variant_name(config.variant),
                               [&] { return completed < total; });
  // Sampling rides the hub's timing wheel: one global event per expiry
  // instead of a standing entry in the calendar queue.
  util.ride_wheel(&star.hub->wheel());
  util.start();

  simulator.run(config.max_sim_time);
  if (completed < total) {
    throw std::runtime_error(
        "incast: " + std::to_string(total - completed) + " of " +
        std::to_string(total) + " flows unfinished at max_sim_time (" +
        std::to_string(config.max_sim_time) + " ns)");
  }
  result.utilization = util.series();

  std::sort(result.flows.begin(), result.flows.end(),
            [](const FlowTiming& a, const FlowTiming& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.id < b.id;
            });
  result.drops = network.total_drops();
  result.completion_time =
      std::max_element(result.flows.begin(), result.flows.end(),
                       [](const FlowTiming& a, const FlowTiming& b) {
                         return a.finish < b.finish;
                       })
          ->finish;
  result.events_executed = simulator.events_executed();
  return result;
}

}  // namespace fastcc::exp
