// Congestion-control interface.
//
// fastcc models sender-side reaction protocols (the class the paper targets):
// the sender observes per-ACK feedback — RTT, ECN-echo, and the echoed INT
// record stack — and adjusts the flow's window and/or pacing rate.  Concrete
// algorithms (HPCC, Swift, DCQCN) implement this interface; the paper's
// Variable AI and Sampling Frequency mechanisms plug into HPCC and Swift via
// the reusable helpers in src/core.
#pragma once

#include <cstdint>
#include <span>

#include "net/flow_view.h"
#include "net/packet.h"
#include "sim/time.h"

namespace fastcc::cc {

/// Everything a sender learns from one ACK.
struct AckContext {
  sim::Time now = 0;
  sim::Time rtt = 0;             ///< now - echoed send timestamp.
  std::uint64_t ack_seq = 0;     ///< Cumulative acked byte offset.
  std::uint32_t bytes_acked = 0; ///< Newly acknowledged bytes.
  bool ecn = false;              ///< ECN-echo (congestion experienced).
  bool cnp = false;              ///< DCQCN congestion-notification flag.
  std::span<const net::IntRecord> ints;  ///< Echoed per-hop telemetry.
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Initializes per-flow state (e.g. line-rate start window).  The view
  /// exposes only the flow's hot fields and path constants.
  virtual void on_flow_start(net::FlowView flow) = 0;

  /// Reacts to one acknowledgement, mutating the flow's window/rate.
  virtual void on_ack(const AckContext& ack, net::FlowView flow) = 0;

  virtual const char* name() const = 0;
};

}  // namespace fastcc::cc
