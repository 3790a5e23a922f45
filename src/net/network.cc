#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>

namespace fastcc::net {

Network::Network(sim::Simulator& simulator, std::uint64_t seed)
    : sim_(simulator), rng_(seed) {}

Host* Network::add_host(const std::string& name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto host = std::make_unique<Host>(sim_, id, name);
  host->set_packet_pool(&pool_);
  Host* raw = host.get();
  nodes_.push_back(std::move(host));
  hosts_.push_back(raw);
  return raw;
}

SwitchNode* Network::add_switch(const std::string& name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto sw = std::make_unique<SwitchNode>(sim_, id, name);
  sw->set_packet_pool(&pool_);
  SwitchNode* raw = sw.get();
  nodes_.push_back(std::move(sw));
  switches_.push_back(raw);
  return raw;
}

void Network::connect(Node& a, Node& b, sim::Rate bandwidth,
                      sim::Time prop_delay) {
  assert(!routes_built_ && "topology is frozen after build_routes()");
  const int pa = a.add_port();
  const int pb = b.add_port();
  a.port(pa).connect(&b, pb, bandwidth, prop_delay);
  b.port(pb).connect(&a, pa, bandwidth, prop_delay);
  a.port(pa).set_rng(&rng_);
  b.port(pb).set_rng(&rng_);
}

std::vector<int> Network::hop_distances(NodeId dst) const {
  std::vector<int> dist(nodes_.size(), std::numeric_limits<int>::max());
  std::deque<NodeId> frontier{dst};
  dist[dst] = 0;
  while (!frontier.empty()) {
    const NodeId cur = frontier.front();
    frontier.pop_front();
    const Node& n = *nodes_[cur];
    for (int i = 0; i < n.port_count(); ++i) {
      if (!n.port(i).connected()) continue;
      const NodeId nb = n.port(i).peer()->id();
      if (dist[nb] > dist[cur] + 1) {
        dist[nb] = dist[cur] + 1;
        frontier.push_back(nb);
      }
    }
  }
  return dist;
}

void Network::build_routes() {
  std::vector<int> candidates;
  for (Host* dst : hosts_) {
    const std::vector<int> dist = hop_distances(dst->id());
    for (SwitchNode* sw : switches_) {
      if (dist[sw->id()] == std::numeric_limits<int>::max()) continue;
      candidates.clear();
      for (int i = 0; i < sw->port_count(); ++i) {
        if (!sw->port(i).connected()) continue;
        const NodeId nb = sw->port(i).peer()->id();
        if (dist[nb] == dist[sw->id()] - 1) candidates.push_back(i);
      }
      if (!candidates.empty()) sw->set_routes(dst->id(), candidates);
    }
  }
  routes_built_ = true;
}

PathInfo Network::path(NodeId src, NodeId dst, std::uint32_t mtu) const {
  assert(src < nodes_.size() && dst < nodes_.size());
  PathInfo info;
  if (src == dst) return info;
  assert(routes_built_ && "path() reads the route tables");
  info.bottleneck = std::numeric_limits<sim::Rate>::max();

  // Walk one shortest path: a host leaves by its one port, a switch by its
  // first ECMP candidate toward `dst`.  The topologies here are
  // bandwidth-symmetric across equal-cost paths, so any shortest path yields
  // the same metrics.
  for (NodeId cur = src; cur != dst;) {
    const Node& n = *nodes_[cur];
    int out = 0;
    if (n.is_switch()) {
      const auto ports = static_cast<const SwitchNode&>(n).routes(dst);
      assert(!ports.empty() && "no route: path() needs a host destination");
      out = ports[0];
    } else {
      assert(n.port_count() == 1 && "a host has one port");
    }
    const Port& next = n.port(out);
    const sim::Rate bw = next.bandwidth();
    const sim::Time data = sim::serialization_time(mtu + kHeaderBytes, bw);
    info.one_way_delay += next.propagation_delay() + data;
    info.base_rtt += 2 * next.propagation_delay() + data +
                     sim::serialization_time(kAckBytes, bw);
    info.bottleneck = std::min(info.bottleneck, bw);
    info.link_bandwidths.push_back(bw);
    ++info.hops;
    cur = next.peer()->id();
  }
  return info;
}

void Network::set_red_all(const RedParams& red) {
  for (SwitchNode* sw : switches_) {
    for (int i = 0; i < sw->port_count(); ++i) sw->port(i).set_red(red);
  }
}

void Network::set_pfc_all(const PfcParams& pfc) {
  for (SwitchNode* sw : switches_) sw->set_pfc(pfc);
}

void Network::set_buffer_limit_all(std::uint64_t bytes) {
  for (SwitchNode* sw : switches_) {
    for (int i = 0; i < sw->port_count(); ++i)
      sw->port(i).set_buffer_limit(bytes);
  }
}

std::uint64_t Network::total_drops() const {
  std::uint64_t drops = 0;
  for (const auto& n : nodes_) {
    for (int i = 0; i < n->port_count(); ++i) drops += n->port(i).drops();
  }
  return drops;
}

}  // namespace fastcc::net
