// Incast experiment driver (Figures 1-3, 5, 6, 8, 9).
//
// Runs a staggered N-to-1 incast on the single-switch star and records the
// three quantities the paper plots: the Jain fairness index over time, the
// bottleneck egress queue depth over time, and each flow's start/finish
// times.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/convergence.h"
#include "experiments/protocols.h"
#include "stats/timeseries.h"
#include "topo/star.h"
#include "workload/incast.h"

namespace fastcc::exp {

/// run_incast throws std::invalid_argument, naming the field, for a config
/// it cannot run (the cases are listed on check_incast_config), and
/// std::runtime_error, naming the count, when flows are still unfinished at
/// max_sim_time.
struct IncastConfig {
  Variant variant = Variant::kHpcc;
  workload::IncastPattern pattern;        ///< Defaults: 16-1, 1 MB, 2/20 us.
  topo::StarParams star;                  ///< Defaults: 17 hosts @ 100 Gbps.
  /// Delivered-throughput window for the Jain index.  Ack-clocked protocols
  /// (Swift) emit at RTT-scale bursts, so windows must cover several RTTs or
  /// quantization noise swamps the signal.
  sim::Time jain_sample_interval = 20 * sim::kMicrosecond;
  sim::Time queue_sample_interval = 1 * sim::kMicrosecond;
  sim::Time max_sim_time = 100 * sim::kMillisecond;  ///< Safety cap.
  std::uint64_t seed = 1;

  /// Small-flow probes (the abstract's "without compromising small flow
  /// performance" check): an extra host sends `probe_count` short flows of
  /// `probe_bytes` to the incast receiver, one every `probe_interval`,
  /// while the long flows contend.  0 disables probing.
  int probe_count = 0;
  std::uint64_t probe_bytes = 2'000;
  sim::Time probe_interval = 50 * sim::kMicrosecond;

  /// Failure injection: cap every switch egress buffer (0 = unlimited, the
  /// paper's lossless setting).  With a cap and no PFC, bursts drop and the
  /// hosts' go-back-N recovery is exercised.
  std::uint64_t buffer_limit_bytes = 0;
  /// Optional PFC on the switch (pause/resume thresholds); enabling it with
  /// a buffer cap keeps the run lossless despite tiny buffers.
  net::PfcParams pfc;

  /// Optional override: build controllers directly instead of via the
  /// variant catalogue (parameter-sweep ablations).  `variant` is still used
  /// for labelling and RED/PFC setup.  Return a value engine
  /// (`cc::Hpcc(...)`) or, for out-of-tree controllers, wrap a
  /// `std::unique_ptr<cc::CongestionControl>` in the engine.
  std::function<cc::CcEngine(const net::PathInfo&)> custom_cc;
};

struct FlowTiming {
  net::FlowId id = 0;
  sim::Time start = 0;
  sim::Time finish = 0;
  sim::Time fct() const { return finish - start; }
};

struct IncastResult {
  std::vector<FlowTiming> flows;     ///< In start order.
  std::vector<FlowTiming> probes;    ///< Small-flow probes (if configured).
  stats::TimeSeries jain;            ///< Jain index, one point per interval.
  stats::TimeSeries queue_bytes;     ///< Bottleneck egress queue depth.
  stats::TimeSeries utilization;     ///< Bottleneck link utilization [0,1].
  std::uint64_t drops = 0;
  sim::Time completion_time = 0;     ///< Last flow finish.
  std::uint64_t events_executed = 0;

  /// Mean bottleneck utilization while any flow was active — the paper's
  /// "maintain high throughput" check.
  double mean_utilization() const;

  /// Condensed convergence metrics for the Jain series.
  core::ConvergenceSummary convergence(double threshold = 0.9) const {
    return core::summarize_convergence(jain, threshold);
  }

  /// Median probe FCT in ns (-1 when no probes ran).
  sim::Time median_probe_fct() const;

  /// Spread between first and last finisher — the paper's Figures 2/3/8/9
  /// takeaway metric (small spread = flows finish together).
  sim::Time finish_spread() const;
  /// First time the Jain index reaches `threshold` for good.
  sim::Time jain_settle_time(double threshold = 0.95) const {
    return jain.settle_time(threshold);
  }
};

IncastResult run_incast(const IncastConfig& config);

}  // namespace fastcc::exp
