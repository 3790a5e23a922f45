// Randomized robustness properties for every congestion controller: under
// arbitrary (but well-formed) feedback streams, windows and rates must stay
// finite, positive, and within [floor, line-rate] bounds — no NaNs, no
// runaway state, regardless of feedback ordering.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "cc/engine.h"
#include "net/flow.h"
#include "sim/random.h"

namespace fastcc::cc {
namespace {

constexpr sim::Time kBaseRtt = 5000;
constexpr sim::Rate kLine = sim::gbps(100);

struct FuzzCase {
  const char* protocol;
  std::uint64_t seed;
};

// Without this gtest prints the raw bytes, protocol pointer included, and
// the listed test names would change whenever the binary's layout does.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << c.protocol << '/' << c.seed;
}

class CcFuzz : public ::testing::TestWithParam<FuzzCase> {
 protected:
  sim::Rng cc_rng_{99};

  CcEngine make(const std::string& name) {
    if (name == "hpcc") return Hpcc(HpccParams{}, &cc_rng_);
    if (name == "hpcc-vai-sf") {
      HpccParams p;
      p.sampling_freq = 30;
      p.vai = hpcc_paper_vai(50'000);
      return Hpcc(p, &cc_rng_);
    }
    if (name == "swift") return Swift(SwiftParams{}, &cc_rng_);
    if (name == "swift-vai-sf") {
      SwiftParams p;
      p.sampling_freq = 30;
      p.always_ai = true;
      p.use_fbs = false;
      p.vai = swift_paper_vai(7000, kBaseRtt, 4000);
      return Swift(p, &cc_rng_);
    }
    if (name == "timely") return Timely(TimelyParams{});
    if (name == "dcqcn") return Dcqcn(DcqcnParams{});
    ADD_FAILURE() << "unknown protocol " << name;
    return {};
  }
};

TEST_P(CcFuzz, StateStaysBoundedUnderRandomFeedback) {
  const FuzzCase param = GetParam();
  sim::Rng rng(param.seed);
  CcEngine cc = make(param.protocol);
  ASSERT_TRUE(static_cast<bool>(cc));

  net::FlowTx flow;
  flow.spec.size_bytes = 1'000'000'000;
  flow.line_rate = kLine;
  flow.base_rtt = kBaseRtt;
  flow.mtu = 1000;
  flow.path_hops = 2;
  cc.on_flow_start(flow);

  sim::Time now = 0;
  std::uint64_t acked = 0;
  std::uint64_t tx_bytes = 0;
  net::IntRecord ints[1];

  for (int i = 0; i < 5000; ++i) {
    now += rng.uniform_int(1, 5000);
    // Fire any controller deadlines that fell due, as the host wheel would.
    for (sim::Time t; (t = cc.next_timer()) >= 0 && t <= now;) {
      cc.on_timer(now, flow);
    }
    const sim::Time rtt = kBaseRtt + rng.uniform_int(0, 100'000);
    acked += 1000;
    tx_bytes += static_cast<std::uint64_t>(rng.uniform(0.0, 1.0) * 12'500);

    AckContext ctx;
    ctx.now = now;
    ctx.rtt = rtt;
    ctx.ack_seq = acked;
    ctx.bytes_acked = 1000;
    ctx.ecn = rng.chance(0.1);
    ctx.cnp = rng.chance(0.02);
    ints[0].timestamp = now - rng.uniform_int(0, 1000);
    ints[0].tx_bytes = tx_bytes;
    ints[0].qlen_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 500'000));
    ints[0].bandwidth = kLine;
    ctx.ints = std::span<const net::IntRecord>(ints, 1);
    flow.snd_nxt = acked + static_cast<std::uint64_t>(rng.uniform_int(0, 60)) * 1000;

    cc.on_ack(ctx, flow);

    ASSERT_TRUE(std::isfinite(flow.window_bytes)) << "ack " << i;
    ASSERT_TRUE(std::isfinite(flow.rate)) << "ack " << i;
    ASSERT_GT(flow.window_bytes, 0.0) << "ack " << i;
    ASSERT_GT(flow.rate, 0.0) << "ack " << i;
    // Rate never exceeds line rate... except window-protocols may ask for
    // more; the NIC clamps.  Enforce a sane ceiling anyway.
    ASSERT_LE(flow.rate, kLine * 1.0001) << "ack " << i;
  }
  // Drain remaining controller deadlines: they must quiesce, not re-arm
  // forever (the bounded guard below would otherwise trip).
  int guard = 0;
  for (sim::Time t; (t = cc.next_timer()) >= 0;) {
    now = t > now ? t : now;
    cc.on_timer(now, flow);
    ASSERT_LT(++guard, 100'000) << "controller timers never quiesce";
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, CcFuzz,
    ::testing::Values(FuzzCase{"hpcc", 1}, FuzzCase{"hpcc", 2},
                      FuzzCase{"hpcc-vai-sf", 3}, FuzzCase{"hpcc-vai-sf", 4},
                      FuzzCase{"swift", 5}, FuzzCase{"swift", 6},
                      FuzzCase{"swift-vai-sf", 7}, FuzzCase{"swift-vai-sf", 8},
                      FuzzCase{"timely", 9}, FuzzCase{"timely", 10},
                      FuzzCase{"dcqcn", 11}, FuzzCase{"dcqcn", 12}),
    [](const auto& param_info) {
      std::string name = param_info.param.protocol;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace fastcc::cc
