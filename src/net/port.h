// Port: one egress direction of a (bidirectional) link.
//
// A port owns a two-level strict-priority egress queue (control/ACK above
// data), a transmitter that serializes one packet at a time at the link rate,
// RED/ECN marking, INT stamping, and a PFC pause flag that freezes the
// transmitter.  Ports always come in pairs: `peer_port` on the peer node is
// the reverse direction of the same cable, which is what PFC pause frames
// address.
//
// Zero-copy pipeline: queues hold 4-byte PacketRef handles into the shared
// PacketPool, and each transmitted packet costs a single scheduled event —
// the peer's delivery at tx_time + prop_delay — with the next dequeue driven
// by a self-scheduled kick at tx_time only when a backlog exists.
//
// Bulk drain (DESIGN.md §11): while a backlog exists, one transmitter event
// commits up to kMaxBurstPackets back-to-back serializations, control and
// data alike and toward any peer.  Each packet keeps its own serialization
// start and arrival instant; strict priority is re-resolved at every burst
// boundary, so a control packet queued mid-burst waits for the burst to end.
// What depends on the peer is only how arrivals are delivered: packets
// toward a peer that coalesces deliveries (hosts) are chained into one
// deliver_batch event at the last arrival instant, while a switch peer gets
// one delivery event per packet, so forwarding sees each arrival.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fastcc::net {

class Node;
class ShardRouter;

/// Upper bound on back-to-back transmissions committed per bulk-drain event
/// (and thus on the length of a deliver_batch chain).  Small enough that a
/// committed burst delays a preempting control packet — or a PFC pause — by
/// well under a microsecond at datacenter link rates.
inline constexpr int kMaxBurstPackets = 8;

/// Random Early Detection marking parameters (DCQCN's congestion signal).
struct RedParams {
  bool enabled = false;
  std::uint32_t kmin_bytes = 0;   ///< Below: never mark.
  std::uint32_t kmax_bytes = 0;   ///< Above: always mark.
  double pmax = 0.01;             ///< Mark probability at kmax.
};

class Port {
 public:
  Port(sim::Simulator& simulator, Node* owner, int index);

  /// Wires this port to its destination. `peer_port` is the index of the
  /// reverse-direction port on `peer`.
  void connect(Node* peer, int peer_port, sim::Rate bandwidth,
               sim::Time propagation_delay);

  /// Accepts a pool packet from the owning node for transmission.  Applies
  /// RED marking and buffer accounting, then kicks the transmitter.  On a
  /// tail drop the packet's PFC ingress accounting is released and the
  /// handle returned to the pool.
  void enqueue(PacketRef ref);

  /// Convenience overload (tests, standalone tools): copies the packet into
  /// a fresh pool slot, then enqueues the handle.
  void enqueue(Packet&& p);

  /// PFC: freezes/unfreezes the transmitter.  An in-flight serialization
  /// always completes (PFC pauses at packet boundaries).
  void set_paused(bool paused);
  bool paused() const { return paused_; }

  void set_red(const RedParams& red) { red_ = red; }
  void set_rng(sim::Rng* rng) { rng_ = rng; }
  void set_packet_pool(PacketPool* pool) { pool_ = pool; }

  /// Marks this port as a shard-boundary egress: instead of scheduling the
  /// peer's delivery on the local event queue, transmitted packets are
  /// copied out of this shard's pool into `router`'s mailbox cells and
  /// their handles released.  Null (the default) restores direct delivery.
  void set_shard_router(ShardRouter* router) { router_ = router; }
  ShardRouter* shard_router() const { return router_; }

  /// Re-homes the transmitter onto a shard's simulator (see
  /// Node::rebind_shard).  Legal only before the first run.
  void rebind_simulator(sim::Simulator& simulator) {
    assert(!kick_armed_ && "rebind with a dequeue kick outstanding");
    sim_ = &simulator;
  }

  /// Total buffered bytes (both priorities).
  std::uint64_t queue_bytes() const { return queued_bytes_; }
  /// Buffered bytes of data packets only — the quantity INT reports.
  std::uint64_t data_queue_bytes() const { return data_queued_bytes_; }
  std::uint64_t max_queue_bytes() const { return max_queued_bytes_; }
  std::uint64_t tx_bytes_total() const { return tx_bytes_; }
  /// Bytes of committed transmissions not yet on the wire at `now`.  The
  /// bulk drain books a whole burst's tx_bytes at its commit event, but the
  /// wire stays continuously busy from that instant to wire_free_time_, so
  /// the unserialized remainder is exactly the residual busy time at line
  /// rate.  Samplers (UtilizationMonitor) subtract this so a window never
  /// reads above link capacity.
  double unserialized_tx_bytes(sim::Time now) const {
    return now >= wire_free_time_
               ? 0.0
               : static_cast<double>(wire_free_time_ - now) * bandwidth_;
  }
  std::uint64_t drops() const { return drops_; }

  /// Hard buffer cap; packets beyond it are dropped (experiments run with
  /// PFC or generous buffers so this should stay untouched — drops() lets
  /// tests assert that).
  void set_buffer_limit(std::uint64_t bytes) { buffer_limit_ = bytes; }

  sim::Rate bandwidth() const { return bandwidth_; }
  sim::Time propagation_delay() const { return prop_delay_; }
  Node* peer() const { return peer_; }
  int peer_port() const { return peer_port_; }
  int index() const { return index_; }
  bool connected() const { return peer_ != nullptr; }

 private:
  void maybe_start_tx();
  void start_tx();
  void arm_kick();

  sim::Simulator* sim_;  ///< Never null; a pointer only for shard rebinding.
  Node* owner_;
  int index_;

  Node* peer_ = nullptr;
  int peer_port_ = -1;
  /// Cached peer->coalesces_deliveries(): the peer's type is fixed at
  /// connect(), so the transmitter never pays the virtual call per burst.
  bool peer_coalesces_ = false;
  sim::Rate bandwidth_ = 0.0;
  sim::Time prop_delay_ = 0;

  PacketPool* pool_ = nullptr;
  PacketRing high_q_;  // control / ACK
  PacketRing low_q_;   // data
  std::uint64_t queued_bytes_ = 0;
  std::uint64_t data_queued_bytes_ = 0;
  std::uint64_t max_queued_bytes_ = 0;
  std::uint64_t buffer_limit_ = UINT64_MAX;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t drops_ = 0;

  /// The wire is serializing until this instant; a new transmission may
  /// start at any now >= wire_free_time_.
  sim::Time wire_free_time_ = 0;
  // Memo for start_tx's serialization-time lookup (size -> time at the
  // port's fixed bandwidth); wire sizes repeat heavily per port.
  std::uint32_t last_ser_bytes_ = 0;
  sim::Time last_ser_time_ = 0;
  /// A dequeue kick is already scheduled (at most one outstanding).
  bool kick_armed_ = false;
  bool paused_ = false;

  RedParams red_;
  sim::Rng* rng_ = nullptr;
  ShardRouter* router_ = nullptr;
};

}  // namespace fastcc::net
