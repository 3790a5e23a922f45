// Flow-completion-time records and the paper's slowdown tables.
//
// FCT slowdown divides the achieved FCT by the theoretical minimum for the
// flow's path (propagation + serialization, Section VI-B).  The paper's
// Figures 10-13 sort flows by size, chunk them into equal-population groups
// (1% each in the paper), and report a percentile of slowdown per group.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow.h"
#include "net/network.h"
#include "sim/time.h"

namespace fastcc::stats {

struct FlowRecord {
  net::FlowId id = 0;
  std::uint64_t size_bytes = 0;
  sim::Time start_time = 0;
  sim::Time fct = 0;        ///< start -> final cumulative ACK at the sender.
  sim::Time ideal_fct = 0;  ///< Unloaded completion time for this path.
  double slowdown() const {
    return static_cast<double>(fct) / static_cast<double>(ideal_fct);
  }
};

/// Unloaded completion time: one base RTT (first packet out + last ACK back,
/// store-and-forward included) plus the remaining bytes serialized at the
/// path bottleneck.  This matches the "propagation delay + serialization
/// delay" minimum the paper divides by.
sim::Time ideal_fct(const net::PathInfo& path, std::uint64_t size_bytes,
                    std::uint32_t mtu);

/// Collects completion records during a run.
class FctRecorder {
 public:
  void record(const net::FlowTx& flow, const net::PathInfo& path);
  const std::vector<FlowRecord>& records() const { return records_; }
  std::size_t count() const { return records_.size(); }

 private:
  std::vector<FlowRecord> records_;
};

/// One row of a Figure 10-13 style table: a flow-size group and the
/// percentile slowdown within it.
struct SlowdownRow {
  std::uint64_t max_size_bytes = 0;  ///< Largest flow in the group.
  double mean_size_bytes = 0.0;
  std::size_t flow_count = 0;
  double slowdown = 0.0;
};

/// Sorts records by (flow size, flow id), splits them into `groups`
/// equal-population chunks, and reports the p-th percentile slowdown per
/// chunk.  The result does not depend on the order of `records`.
std::vector<SlowdownRow> slowdown_by_size(std::vector<FlowRecord> records,
                                          int groups, double p);

}  // namespace fastcc::stats
