// Network: owns nodes and wiring, builds ECMP routing tables, and answers
// path queries (base RTT, bottleneck bandwidth, hop count) that congestion
// control and the FCT-slowdown metric need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/host.h"
#include "net/packet_pool.h"
#include "net/switch_node.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace fastcc::net {

/// Unloaded path properties between two hosts along a shortest path.
struct PathInfo {
  sim::Time base_rtt = 0;      ///< MTU data out + ACK back, no queueing.
  sim::Rate bottleneck = 0.0;  ///< Minimum link bandwidth on the path.
  int hops = 0;                ///< Forward-direction link count.
  sim::Time one_way_delay = 0; ///< Propagation + per-hop MTU serialization.
  /// Per-link bandwidths in path order (exact ideal-FCT computation).
  std::vector<sim::Rate> link_bandwidths;
};

class Network {
 public:
  explicit Network(sim::Simulator& simulator, std::uint64_t seed = 1);

  Host* add_host(const std::string& name);
  SwitchNode* add_switch(const std::string& name);

  /// Creates a full-duplex link: one egress port on each side, symmetric
  /// bandwidth and propagation delay.
  void connect(Node& a, Node& b, sim::Rate bandwidth, sim::Time prop_delay);

  /// Populates every switch's ECMP tables with all equal-cost shortest-path
  /// next hops toward every host.  Call once after wiring the topology.
  void build_routes();

  /// Computes unloaded path properties (shortest path, ECMP-independent for
  /// the symmetric topologies used here) by walking the route tables, in
  /// O(hops).  Needs build_routes() to have run and `dst` to be a host.
  PathInfo path(NodeId src, NodeId dst, std::uint32_t mtu = kDefaultMtu) const;

  Node* node(NodeId id) { return nodes_[id].get(); }
  const Node* node(NodeId id) const { return nodes_[id].get(); }
  std::size_t node_count() const { return nodes_.size(); }

  const std::vector<Host*>& hosts() const { return hosts_; }
  const std::vector<SwitchNode*>& switches() const { return switches_; }

  /// Applies RED marking parameters to every switch egress port (DCQCN).
  void set_red_all(const RedParams& red);
  /// Applies PFC thresholds to every switch.
  void set_pfc_all(const PfcParams& pfc);
  /// Applies a hard buffer cap to every switch egress port.
  void set_buffer_limit_all(std::uint64_t bytes);

  /// Total packets dropped across all ports (should be zero in the paper's
  /// lossless setting; experiments assert on it).
  std::uint64_t total_drops() const;

  sim::Rng& rng() { return rng_; }
  sim::Simulator& simulator() { return sim_; }

  /// The shared packet arena every node in this network allocates from.
  /// Exposed for leak checks (a drained simulation must have live() == 0).
  PacketPool& packet_pool() { return pool_; }
  const PacketPool& packet_pool() const { return pool_; }

 private:
  /// BFS distances (in hops) from `dst` over the undirected link graph.
  std::vector<int> hop_distances(NodeId dst) const;

  sim::Simulator& sim_;
  sim::Rng rng_;
  PacketPool pool_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Host*> hosts_;
  std::vector<SwitchNode*> switches_;
  bool routes_built_ = false;
};

}  // namespace fastcc::net
