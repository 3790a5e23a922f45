#include "net/monitor.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "test_util.h"

namespace fastcc::net {
namespace {

using test::SinkNode;
using test::test_packet;

struct MonitorHarness {
  sim::Simulator simulator;
  PacketPool pool;
  SinkNode a{simulator, 0, "a"};
  SinkNode b{simulator, 1, "b"};

  MonitorHarness() {
    test::bind_pool(pool, {&a, &b});
    a.add_port();
    b.add_port();
    a.port(0).connect(&b, 0, sim::gbps(100), 1000);
    b.port(0).connect(&a, 0, sim::gbps(100), 1000);
  }
};

TEST(UtilizationMonitor, FullySaturatedLinkReadsOne) {
  MonitorHarness h;
  bool running = true;
  UtilizationMonitor mon(h.simulator, h.a.port(0), 840, "u",
                         [&running] { return running; });
  mon.start();
  // 20 back-to-back packets: 84 ns each = 10 per 840 ns window.
  for (int i = 0; i < 20; ++i) h.a.port(0).enqueue(test_packet(1000));
  h.simulator.at(1680, [&running] { running = false; });
  h.simulator.run(4000);
  ASSERT_GE(mon.series().size(), 2u);
  EXPECT_NEAR(mon.series().points()[0].value, 1.0, 0.01);
  EXPECT_NEAR(mon.series().points()[1].value, 1.0, 0.01);
}

TEST(UtilizationMonitor, IdleLinkReadsZeroAndMeanBlends) {
  MonitorHarness h;
  int budget = 4;
  UtilizationMonitor mon(h.simulator, h.a.port(0), 840, "u",
                         [&budget] { return --budget > 0; });
  mon.start();
  // One window of traffic (10 packets) followed by idle windows.
  for (int i = 0; i < 10; ++i) h.a.port(0).enqueue(test_packet(1000));
  h.simulator.run(10'000);
  ASSERT_EQ(mon.series().size(), 4u);
  EXPECT_NEAR(mon.series().points()[0].value, 1.0, 0.01);
  EXPECT_NEAR(mon.series().points()[3].value, 0.0, 0.01);
  EXPECT_NEAR(mon.mean_utilization(), 0.25, 0.02);
}

}  // namespace
}  // namespace fastcc::net
