#include "net/network.h"

#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <vector>

#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/star.h"

namespace fastcc::net {
namespace {

TEST(Network, StarConstruction) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::StarParams params;
  params.host_count = 5;
  topo::Star star = build_star(network, params);
  EXPECT_EQ(star.hosts.size(), 5u);
  EXPECT_EQ(network.hosts().size(), 5u);
  EXPECT_EQ(network.switches().size(), 1u);
  EXPECT_EQ(star.hub->port_count(), 5);
}

TEST(Network, StarPathMetricsAreExact) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::StarParams params;  // 17 hosts, 100 Gbps, 1 us links
  topo::Star star = build_star(network, params);
  const PathInfo p =
      network.path(star.hosts[0]->id(), star.hosts[16]->id(), 1000);
  EXPECT_EQ(p.hops, 2);
  EXPECT_DOUBLE_EQ(p.bottleneck, sim::gbps(100));
  // Per link: 2 us RTT propagation + 84 ns data + 6 ns ACK serialization.
  const sim::Time per_link = 2000 + sim::serialization_time(1048, sim::gbps(100)) +
                             sim::serialization_time(kAckBytes, sim::gbps(100));
  EXPECT_EQ(p.base_rtt, 2 * per_link);
  EXPECT_EQ(p.one_way_delay, 2 * (1000 + 84));
}

TEST(Network, PathToSelfIsEmpty) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::Star star = build_star(network, topo::StarParams{});
  const PathInfo p = network.path(star.hosts[0]->id(), star.hosts[0]->id());
  EXPECT_EQ(p.hops, 0);
  EXPECT_EQ(p.base_rtt, 0);
}

TEST(Network, HubRoutesDirectlyToEveryHost) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::StarParams params;
  params.host_count = 4;
  topo::Star star = build_star(network, params);
  for (Host* h : star.hosts) {
    const auto& routes = star.hub->routes(h->id());
    ASSERT_EQ(routes.size(), 1u);
    EXPECT_EQ(star.hub->port(routes[0]).peer(), h);
  }
}

TEST(Network, DropCounterAggregatesAllPorts) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::Star star = build_star(network, topo::StarParams{});
  EXPECT_EQ(network.total_drops(), 0u);
}

TEST(Network, BufferLimitAppliesToSwitchPorts) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::Star star = build_star(network, topo::StarParams{});
  network.set_buffer_limit_all(12345);
  // No direct getter; rely on behaviour: enqueue more than the limit through
  // the datapath is covered by pfc_test.  Here just confirm the call is safe
  // on a built topology.
  SUCCEED();
}

TEST(Network, RedAppliesToSwitchPorts) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::Star star = build_star(network, topo::StarParams{});
  RedParams red;
  red.enabled = true;
  red.kmin_bytes = 0;
  red.kmax_bytes = 1;
  red.pmax = 1.0;
  network.set_red_all(red);
  SUCCEED();
}

/// The reference path(): BFS hop distances to `dst`, then a walk that
/// leaves each node by its lowest-index connected port one hop closer.
class BfsReference {
 public:
  BfsReference(const Network& network, NodeId dst)
      : network_(network), dst_(dst),
        dist_(network.node_count(), std::numeric_limits<int>::max()) {
    std::deque<NodeId> frontier{dst};
    dist_[dst] = 0;
    while (!frontier.empty()) {
      const Node& n = *network.node(frontier.front());
      frontier.pop_front();
      for (int i = 0; i < n.port_count(); ++i) {
        if (!n.port(i).connected()) continue;
        const NodeId peer = n.port(i).peer()->id();
        if (dist_[peer] > dist_[n.id()] + 1) {
          dist_[peer] = dist_[n.id()] + 1;
          frontier.push_back(peer);
        }
      }
    }
  }

  PathInfo path(NodeId src, std::uint32_t mtu = kDefaultMtu) const {
    PathInfo info;
    if (src == dst_) return info;
    info.bottleneck = std::numeric_limits<sim::Rate>::max();
    for (NodeId cur = src; cur != dst_;) {
      const Node& n = *network_.node(cur);
      int out = 0;
      while (!n.port(out).connected() ||
             dist_[n.port(out).peer()->id()] != dist_[cur] - 1) {
        ++out;
      }
      const Port& p = n.port(out);
      const sim::Time data = sim::serialization_time(mtu + kHeaderBytes,
                                                     p.bandwidth());
      info.one_way_delay += p.propagation_delay() + data;
      info.base_rtt += 2 * p.propagation_delay() + data +
                       sim::serialization_time(kAckBytes, p.bandwidth());
      info.bottleneck = std::min(info.bottleneck, p.bandwidth());
      info.link_bandwidths.push_back(p.bandwidth());
      ++info.hops;
      cur = p.peer()->id();
    }
    return info;
  }

 private:
  const Network& network_;
  NodeId dst_;
  std::vector<int> dist_;
};

/// Checks path() against BfsReference for every ordered pair of `hosts`.
void expect_paths_match_bfs(const Network& network,
                            const std::vector<NodeId>& hosts) {
  int mismatches = 0;
  for (const NodeId dst : hosts) {
    const BfsReference ref(network, dst);
    for (const NodeId src : hosts) {
      const PathInfo want = ref.path(src);
      const PathInfo got = network.path(src, dst);
      const bool same = got.hops == want.hops &&
                        got.base_rtt == want.base_rtt &&
                        got.bottleneck == want.bottleneck &&
                        got.one_way_delay == want.one_way_delay &&
                        got.link_bandwidths == want.link_bandwidths;
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << "path " << src << " -> " << dst << ": hops "
                      << got.hops << " vs " << want.hops << ", base_rtt "
                      << got.base_rtt << " vs " << want.base_rtt;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

std::vector<NodeId> ids_of(const std::vector<Host*>& hosts) {
  std::vector<NodeId> ids;
  for (const Host* h : hosts) ids.push_back(h->id());
  return ids;
}

TEST(Network, RouteWalkMatchesBfsOnEveryFatTreeHostPair) {
  for (const topo::FatTreeParams& params :
       {topo::scaled_fat_tree(), topo::sharded_scaled_fat_tree(),
        topo::full_scale_fat_tree(),
        topo::with_oversubscription(topo::scaled_fat_tree(), 4)}) {
    sim::Simulator simulator;
    Network network(simulator);
    const topo::FatTree tree = build_fat_tree(network, params);
    const std::vector<NodeId> hosts = ids_of(tree.hosts);
    expect_paths_match_bfs(network, hosts);
  }
}

TEST(Network, RouteWalkMatchesBfsOnEveryStarHostPair) {
  sim::Simulator simulator;
  Network network(simulator);
  topo::StarParams params;
  params.host_count = 9;
  const topo::Star star = build_star(network, params);
  const std::vector<NodeId> hosts = ids_of(star.hosts);
  expect_paths_match_bfs(network, hosts);
}

}  // namespace
}  // namespace fastcc::net
