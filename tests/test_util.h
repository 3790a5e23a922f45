// Shared helpers for fastcc tests.
#pragma once

#include <initializer_list>
#include <utility>
#include <vector>

#include "cc/cc.h"
#include "net/flow.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulator.h"

namespace fastcc::test {

/// A node that records everything delivered to it (timestamps included) and
/// never forwards — a measurement endpoint for port/link tests.  Arrivals
/// keep a by-value copy of the packet for inspection; the pool handle is
/// released immediately, as a real endpoint would.
class SinkNode : public net::Node {
 public:
  struct Arrival {
    net::Packet packet;
    sim::Time at;
    int in_port;
  };

  SinkNode(sim::Simulator& simulator, net::NodeId id, std::string name)
      : Node(simulator, id, std::move(name)) {}

  const std::vector<Arrival>& arrivals() const { return arrivals_; }
  std::size_t count() const { return arrivals_.size(); }

 protected:
  void receive(net::PacketRef ref, int in_port) override {
    const net::Packet& p = packet_pool()->get(ref);
    on_packet_departed(p);
    arrivals_.push_back(Arrival{p, sim_->now(), in_port});
    packet_pool()->release(ref);
  }

 private:
  std::vector<Arrival> arrivals_;
};

/// Binds one shared PacketPool to a set of directly-wired nodes (handles
/// cross node boundaries, so everything in a fabric must share a pool).
/// Network-based tests don't need this — Network binds its own pool.
inline void bind_pool(net::PacketPool& pool,
                      std::initializer_list<net::Node*> nodes) {
  for (net::Node* n : nodes) n->set_packet_pool(&pool);
}

/// Congestion control stub: applies a fixed window and rate at flow start
/// and never reacts to feedback.  Lets host/NIC tests isolate the datapath.
class FixedCc final : public cc::CongestionControl {
 public:
  FixedCc(double window_bytes, sim::Rate rate)
      : window_bytes_(window_bytes), rate_(rate) {}

  void on_flow_start(net::FlowView flow) override {
    flow.window_bytes = window_bytes_;
    flow.rate = rate_;
  }
  void on_ack(const cc::AckContext&, net::FlowView) override {}
  const char* name() const override { return "fixed"; }

 private:
  double window_bytes_;
  sim::Rate rate_;
};

/// Builds a data packet wired for direct Port::enqueue in unit tests.
inline net::Packet test_packet(std::uint32_t payload, net::FlowId flow = 1,
                               net::NodeId src = 0, net::NodeId dst = 1) {
  return net::make_data(flow, src, dst, /*seq=*/0, payload, /*now=*/0);
}

}  // namespace fastcc::test
