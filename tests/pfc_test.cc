// Priority Flow Control: a downstream node whose egress drains slower than
// its ingress fills must pause the upstream transmitter before its buffer
// overflows, preserving losslessness end to end.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/switch_node.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace fastcc::net {
namespace {

using test::SinkNode;
using test::test_packet;

// Chain: source node -> switch -> sink, where the switch's egress link is 10x
// slower than its ingress link, forcing a backlog inside the switch.
struct PfcChain {
  sim::Simulator simulator;
  PacketPool pool;
  SinkNode source{simulator, 0, "src"};
  SwitchNode sw{simulator, 1, "sw"};
  SinkNode sink{simulator, 2, "dst"};

  PfcChain() {
    test::bind_pool(pool, {&source, &sw, &sink});
    source.add_port();
    const int sw_in = sw.add_port();
    const int sw_out = sw.add_port();
    sink.add_port();
    source.port(0).connect(&sw, sw_in, sim::gbps(100), 100);
    sw.port(sw_in).connect(&source, 0, sim::gbps(100), 100);
    sw.port(sw_out).connect(&sink, 0, sim::gbps(10), 100);
    sink.port(0).connect(&sw, sw_out, sim::gbps(10), 100);
    sw.set_routes(2, {sw_out});
    sw.set_routes(0, {sw_in});
  }
};

TEST(Pfc, PausesUpstreamBeforeBufferOverflow) {
  PfcChain c;
  PfcParams pfc;
  pfc.pause_bytes = 10'000;
  pfc.resume_bytes = 5'000;
  c.sw.set_pfc(pfc);
  // Buffer big enough for the PFC headroom (pause threshold + one BDP of
  // in-flight) but far smaller than the burst.
  c.sw.port(1).set_buffer_limit(40'000);

  const int burst = 200;  // 200 KB burst into a 40 KB buffer
  for (int i = 0; i < burst; ++i) {
    c.source.port(0).enqueue(test_packet(1000, 1, 0, 2));
  }
  c.simulator.run();
  EXPECT_EQ(c.sink.count(), static_cast<std::size_t>(burst));
  EXPECT_EQ(c.sw.port(1).drops(), 0u);
}

TEST(Pfc, WithoutPfcTheSameBurstDrops) {
  PfcChain c;
  c.sw.port(1).set_buffer_limit(40'000);
  for (int i = 0; i < 200; ++i) {
    c.source.port(0).enqueue(test_packet(1000, 1, 0, 2));
  }
  c.simulator.run();
  EXPECT_GT(c.sw.port(1).drops(), 0u);
  EXPECT_LT(c.sink.count(), 200u);
}

// Regression (tail-drop PFC leak): when a packet is tail-dropped at the
// switch's egress queue, its ingress-port byte accounting must be released
// with it.  Before the fix, dropped bytes stayed on the ingress count
// forever, so once the count was pinned above the resume threshold the
// upstream port never received RESUME and the rest of the burst was never
// delivered.
TEST(Pfc, TailDropReleasesIngressAccountingSoResumeIsSent) {
  PfcChain c;
  PfcParams pfc;
  pfc.pause_bytes = 10'000;
  pfc.resume_bytes = 5'000;
  c.sw.set_pfc(pfc);
  // Deliberately *insufficient* headroom: the buffer cap sits barely above
  // the pause threshold, so in-flight packets that arrive between the pause
  // threshold being crossed and the PFC frame taking effect overflow the
  // buffer and are dropped.
  c.sw.port(1).set_buffer_limit(12'000);

  const int burst = 200;
  for (int i = 0; i < burst; ++i) {
    c.source.port(0).enqueue(test_packet(1000, 1, 0, 2));
  }
  c.simulator.run();
  EXPECT_GT(c.sw.port(1).drops(), 0u) << "test needs drops to exercise leak";
  // RESUME must eventually reach the source: every non-dropped packet is
  // delivered and nothing stays wedged behind a permanently paused port.
  EXPECT_EQ(c.sink.count() + c.sw.port(1).drops(),
            static_cast<std::size_t>(burst));
  EXPECT_FALSE(c.source.port(0).paused());
  // Dropped packets were returned to the pool, not leaked.
  EXPECT_EQ(c.pool.live_count(), 0u);
}

TEST(Pfc, ThroughputUnaffectedWhenUncongested) {
  PfcChain c;
  PfcParams pfc;
  pfc.pause_bytes = 10'000;
  pfc.resume_bytes = 5'000;
  c.sw.set_pfc(pfc);
  // Three packets never trip the 10 KB pause threshold.
  for (int i = 0; i < 3; ++i) {
    c.source.port(0).enqueue(test_packet(1000, 1, 0, 2));
  }
  c.simulator.run();
  EXPECT_EQ(c.sink.count(), 3u);
  const sim::Time no_pfc_finish = c.simulator.now();
  // The slow egress (10 Gbps) dominates: 3 * 1048 B * 0.8 ns/B ~ 2.5 us.
  EXPECT_LT(no_pfc_finish, 4000);
}

TEST(Pfc, DisabledByDefault) {
  PfcParams pfc;
  EXPECT_FALSE(pfc.enabled());
  pfc.pause_bytes = 1;
  EXPECT_TRUE(pfc.enabled());
}

}  // namespace
}  // namespace fastcc::net
