// SwitchNode: an output-queued switch with ECMP forwarding.
//
// Routing tables are populated by Network::build_routes() with every
// equal-cost next-hop port per destination; a deterministic per-flow hash
// picks among them, so a flow's path is stable (no packet reordering) while
// distinct flows spread across the fabric.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/node.h"

namespace fastcc::net {

class SwitchNode : public Node {
 public:
  SwitchNode(sim::Simulator& simulator, NodeId id, std::string name)
      : Node(simulator, id, std::move(name)) {
    mark_as_switch();
  }

  /// Replaces the candidate egress ports toward `dst`.
  void set_routes(NodeId dst, const std::vector<int>& ports);

  /// ECMP choice this switch would make for the given flow (exposed for
  /// path-tracing and tests).
  int select_port(NodeId dst, FlowId flow, NodeId src) const;

  /// Candidate egress ports toward `dst`, in set_routes() order; empty for
  /// a destination this switch has no route to.  A view into the route
  /// table, valid until the next set_routes().
  std::span<const std::int16_t> routes(NodeId dst) const;

  /// Forwarding body, reachable without a vtable hop (see Node::deliver).
  void forward(PacketRef ref, int in_port);

 protected:
  void receive(PacketRef ref, int in_port) override;

 private:
  /// The route table, built by Network::build_routes() before the run and
  /// read-only afterwards (ECMP lookups happen concurrently from every
  /// shard's worker).  One dense word per destination (candidate count in
  /// the top byte, offset into flat_ports_ below), so the per-packet lookup
  /// is two dependent loads into arrays a few hundred bytes long —
  /// L1-resident — instead of chasing a vector-of-vectors through two cold
  /// lines.  set_routes() appends the new candidate list and repoints the
  /// word; a re-set destination strands its old range (routes are built
  /// once per topology, so the waste is bytes, not growth).
  std::vector<std::uint32_t> route_ref_;
  std::vector<std::int16_t> flat_ports_;
};

}  // namespace fastcc::net
