// Periodic link-utilization sampling.
//
// Experiments attach a monitor to a port of interest; it re-arms itself on
// the simulator until stopped (or until its stop predicate fires),
// accumulating a TimeSeries that the stats/bench layers consume.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/port.h"
#include "sim/simulator.h"
#include "sim/timing_wheel.h"
#include "stats/timeseries.h"

namespace fastcc::net {

/// Samples the delivered throughput (bytes/ns) of one egress port per
/// interval, from the port's cumulative tx counter.
class UtilizationMonitor {
 public:
  /// `keep_running` is consulted each sample; returning false stops the
  /// monitor (and no further events are scheduled).
  UtilizationMonitor(sim::Simulator& simulator, const Port& port,
                     sim::Time interval, std::string label,
                     std::function<bool()> keep_running = nullptr);

  void start();
  /// Fraction of link capacity used per interval, in [0, ~1].
  const stats::TimeSeries& series() const { return series_; }
  /// Mean utilization across all samples so far.
  double mean_utilization() const;

  /// Routes the periodic re-arm through a node's timing wheel (usually the
  /// monitored port's owner), keeping the sampler off the global event
  /// queue.  Call before start().
  void ride_wheel(sim::WheelScheduler* wheel) { wheel_ = wheel; }

 private:
  void sample();
  void arm_next();

  sim::Simulator& sim_;
  const Port& port_;
  sim::Time interval_;
  stats::TimeSeries series_;
  std::function<bool()> keep_running_;
  sim::WheelScheduler* wheel_ = nullptr;
  /// Serialized-by-last-sample bytes (tx counter minus the in-flight burst
  /// remainder) — fractional because the remainder is analytic.
  double last_tx_bytes_ = 0.0;
};

}  // namespace fastcc::net
