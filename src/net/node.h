// Node: common base for switches and hosts.
//
// A node owns its egress ports and the PFC ingress accounting shared by all
// node types.  Packet arrival flows through deliver(), which updates PFC
// state and hands the packet to the subclass via receive().  Packets live in
// a shared PacketPool (owned by the Network, or bound explicitly in tests)
// and travel as 4-byte PacketRef handles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "sim/simulator.h"
#include "sim/timing_wheel.h"

namespace fastcc::net {

/// Priority Flow Control thresholds, in bytes of per-ingress-port backlog.
/// Pause fires when backlog exceeds `pause_bytes`; resume when it drops back
/// below `resume_bytes`.  Disabled when pause_bytes == 0.
struct PfcParams {
  std::uint64_t pause_bytes = 0;
  std::uint64_t resume_bytes = 0;
  bool enabled() const { return pause_bytes > 0; }
};

class Node {
 public:
  Node(sim::Simulator& simulator, NodeId id, std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  /// True for a SwitchNode.
  bool is_switch() const { return is_switch_; }

  /// Creates a new (unconnected) egress port and returns its index.
  int add_port();
  Port& port(int i) { return *ports_[i]; }
  const Port& port(int i) const { return *ports_[i]; }
  int port_count() const { return static_cast<int>(ports_.size()); }

  void set_pfc(const PfcParams& pfc) { pfc_ = pfc; }

  /// Binds the shared packet arena.  Every node wired into the same fabric
  /// must share one pool — handles cross node boundaries.  Network does this
  /// automatically; standalone test harnesses bind explicitly.
  void set_packet_pool(PacketPool* pool);
  PacketPool* packet_pool() { return pool_; }

  /// Re-homes this node (and its ports and timing wheel) onto a shard's
  /// private simulator and packet pool.  Space-parallel execution builds the
  /// topology against one simulator, then rebinds each node to the event
  /// queue of the shard that owns it.  Legal only before the first run:
  /// no event, timer, or live packet may be outstanding.
  void rebind_shard(sim::Simulator& simulator, PacketPool* pool);

  /// Entry point for packets arriving off the wire.  `in_port` is the index
  /// of this node's reverse-direction port for the arrival link.  Worker
  /// phase: runs only on the thread currently advancing this node's shard.
  void deliver(PacketRef ref, int in_port);

  /// Batched arrival: `first` heads an intra-burst chain linked through
  /// Packet::batch_next, all transmitted back-to-back on the same link and
  /// delivered in one event at the *last* packet's arrival instant (NIC
  /// interrupt coalescing: causal, never early).  The base implementation
  /// simply walks the chain through deliver(); Host overrides it to
  /// coalesce the chain's ACKs into a single per-flow CC / arbiter pass.
  virtual void deliver_batch(PacketRef first, int in_port);

  /// True when this node wants chained deliver_batch() arrivals.  Ports
  /// consult the *peer* node: switches keep exact per-packet arrival events
  /// (store-and-forward timing must stay per-packet so forwarding decisions
  /// see each arrival; egress priority is still re-evaluated at every burst
  /// boundary — see Port's bulk drain), hosts opt in — they terminate
  /// flows, so quantizing intra-burst arrival times to the burst end only
  /// perturbs RTT samples by sub-burst noise.
  virtual bool coalesces_deliveries() const { return false; }

  /// True while any ingress port of this node has a PFC pause outstanding
  /// upstream.  The bulk drain stops burst formation after one packet in
  /// that state so resume timing (driven by departure accounting) stays
  /// exactly per-packet while PFC is actively throttling an upstream.
  bool any_ingress_paused() const { return paused_ingress_count_ > 0; }

  /// Called when a packet leaves the node's buffer — a Port starting its
  /// serialization or tail-dropping it, a host sinking it — and releases
  /// its PFC ingress accounting.
  void on_packet_departed(const Packet& p);

  /// Bytes still charged to this node's PFC ingress counters, summed over
  /// ingress ports.  A drained run must end at zero: every charged byte is
  /// discharged by on_packet_departed() exactly once.
  std::uint64_t pfc_ingress_bytes() const;

  sim::Simulator& simulator() { return *sim_; }

  /// This node's timing wheel: however many local timers (pacing, RTO,
  /// CC recovery, monitor sampling) are pending, the global event queue
  /// carries at most one entry for this node.
  sim::WheelScheduler& wheel() { return wheel_; }

 protected:
  /// Subclass packet handling (forwarding for switches, host protocol).
  /// The callee owns the handle: forward it or release it.  Worker phase.
  virtual void receive(PacketRef ref, int in_port) = 0;

  /// Set once by SwitchNode's constructor: deliver() dispatches forwarding
  /// statically (a predictable branch) instead of through the vtable — the
  /// majority of deliveries in a multi-hop fabric land on switches, and the
  /// indirect call's target otherwise alternates per event.
  void mark_as_switch() { is_switch_ = true; }

  /// Ingress PFC accounting (exposed to Host's deliver_batch override,
  /// which replays deliver()'s accounting per chained packet).
  void pfc_account(int in_port, std::int64_t delta_bytes);

  sim::Simulator* sim_;  ///< Never null; a pointer only so rebind_shard works.

 private:
  sim::WheelScheduler wheel_{*sim_};

  void send_pfc(int in_port, bool pause);

  NodeId id_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  PacketPool* pool_ = nullptr;

  bool is_switch_ = false;
  PfcParams pfc_;
  std::vector<std::uint64_t> ingress_bytes_;
  std::vector<bool> ingress_paused_;  // pause sent upstream
  int paused_ingress_count_ = 0;      // popcount of above
};

}  // namespace fastcc::net
