// Percentiles, FCT records / slowdown tables, and time series.
#include <gtest/gtest.h>

#include "stats/fct.h"
#include "stats/percentile.h"
#include "stats/timeseries.h"

namespace fastcc::stats {
namespace {

TEST(Percentile, NearestRankBasics) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10);
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> v{9, 1, 5, 3, 7};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 9);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.1), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.9), 42.0);
}

TEST(Percentile, P999PicksTheTail) {
  std::vector<double> v(1000, 1.0);
  v[999] = 100.0;
  EXPECT_DOUBLE_EQ(percentile(v, 99.9), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.8), 1.0);
}

TEST(PercentileEstimator, AccumulatesAndSummarizes) {
  PercentileEstimator est;
  for (int i = 1; i <= 100; ++i) est.add(i);
  EXPECT_DOUBLE_EQ(est.median(), 50);
  EXPECT_DOUBLE_EQ(est.max(), 100);
  EXPECT_DOUBLE_EQ(est.mean(), 50.5);
  EXPECT_EQ(est.count(), 100u);
}

TEST(IdealFct, MatchesHandComputation) {
  net::PathInfo path;
  path.base_rtt = 5000;
  path.bottleneck = sim::gbps(100);
  path.hops = 2;
  path.link_bandwidths = {sim::gbps(100), sim::gbps(100)};
  // 10 KB flow of MTU-sized packets: the last packet is a full MTU, so the
  // per-link correction cancels and the ideal is base RTT plus 9 packets
  // streamed at the bottleneck.
  const sim::Time t = ideal_fct(path, 10'000, 1000);
  EXPECT_EQ(t, 5000 + sim::serialization_time(9 * 1048, sim::gbps(100)));
}

TEST(IdealFct, SinglePacketFlowIsOneRttWithTailCorrection) {
  net::PathInfo path;
  path.base_rtt = 7000;
  path.bottleneck = sim::gbps(100);
  path.link_bandwidths = {sim::gbps(100), sim::gbps(100)};
  // A 500 B flow's only packet is smaller than the MTU base_rtt assumed:
  // each hop saves ser(1048) - ser(548).
  const sim::Time saving_per_hop =
      sim::serialization_time(1048, sim::gbps(100)) -
      sim::serialization_time(548, sim::gbps(100));
  EXPECT_EQ(ideal_fct(path, 500, 1000), 7000 - 2 * saving_per_hop);
}

TEST(IdealFct, SubMtuTailShortensTheIdeal) {
  net::PathInfo path;
  path.base_rtt = 5000;
  path.bottleneck = sim::gbps(100);
  path.link_bandwidths = {sim::gbps(100), sim::gbps(100)};
  EXPECT_LT(ideal_fct(path, 10'001, 1000), ideal_fct(path, 11'000, 1000));
  EXPECT_GT(ideal_fct(path, 10'001, 1000), ideal_fct(path, 10'000, 1000) - 200);
}

std::vector<FlowRecord> synthetic_records(int n) {
  std::vector<FlowRecord> recs;
  for (int i = 0; i < n; ++i) {
    FlowRecord r;
    r.id = i;
    r.size_bytes = (i + 1) * 1000;
    r.ideal_fct = 1000;
    r.fct = 1000 * (i % 10 + 1);  // slowdowns 1..10 cycling
    recs.push_back(r);
  }
  return recs;
}

TEST(SlowdownBySize, GroupsHaveEqualPopulation) {
  const auto rows = slowdown_by_size(synthetic_records(100), 10, 50.0);
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& row : rows) EXPECT_EQ(row.flow_count, 10u);
}

TEST(SlowdownBySize, GroupsSortedBySize) {
  const auto rows = slowdown_by_size(synthetic_records(100), 10, 50.0);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].max_size_bytes, rows[i - 1].max_size_bytes);
  }
}

TEST(SlowdownBySize, PercentilePerGroup) {
  // All records share slowdown values 1..10 per group of 10 -> p100 = 10.
  const auto rows = slowdown_by_size(synthetic_records(100), 10, 100.0);
  for (const auto& row : rows) EXPECT_DOUBLE_EQ(row.slowdown, 10.0);
}

TEST(SlowdownBySize, RemainderFoldsIntoLastGroup) {
  const auto rows = slowdown_by_size(synthetic_records(105), 10, 50.0);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows.back().flow_count, 15u);
}

TEST(SlowdownBySize, EmptyInputYieldsNoRows) {
  EXPECT_TRUE(slowdown_by_size({}, 10, 50.0).empty());
}

TEST(SlowdownBySize, IndependentOfInputOrder) {
  // The serial runner returns records in completion order and the sharded
  // one in flow-id order.  With 10 sizes in groups of 33, 33 and 34, each
  // group boundary splits a size class whose flows differ in slowdown, so
  // the tables match only if ties in size break the same way in both orders.
  std::vector<FlowRecord> recs;
  for (int i = 0; i < 100; ++i) {
    FlowRecord r;
    r.id = static_cast<net::FlowId>(i);
    r.size_bytes = static_cast<std::uint64_t>(i % 10 + 1) * 1000;
    r.ideal_fct = 1000;
    r.fct = 1000 * (i + 1);
    recs.push_back(r);
  }
  std::vector<FlowRecord> reversed(recs.rbegin(), recs.rend());
  const auto rows = slowdown_by_size(recs, 3, 50.0);
  const auto reversed_rows = slowdown_by_size(reversed, 3, 50.0);
  ASSERT_EQ(rows.size(), 3u);
  ASSERT_EQ(reversed_rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(reversed_rows[i].flow_count, rows[i].flow_count);
    EXPECT_EQ(reversed_rows[i].max_size_bytes, rows[i].max_size_bytes);
    EXPECT_DOUBLE_EQ(reversed_rows[i].slowdown, rows[i].slowdown);
  }
}

TEST(SlowdownBySize, MoreGroupsThanRecordsDegradesGracefully) {
  const auto rows = slowdown_by_size(synthetic_records(3), 10, 50.0);
  EXPECT_EQ(rows.size(), 3u);
  for (const auto& row : rows) EXPECT_EQ(row.flow_count, 1u);
}

TEST(TimeSeries, SummariesAndSettle) {
  TimeSeries ts("x");
  ts.add(0, 0.2);
  ts.add(10, 0.5);
  ts.add(20, 0.96);
  ts.add(30, 0.97);
  ts.add(40, 0.99);
  EXPECT_DOUBLE_EQ(ts.max_value(), 0.99);
  EXPECT_DOUBLE_EQ(ts.min_value(), 0.2);
  EXPECT_EQ(ts.settle_time(0.95), 20);
  EXPECT_NEAR(ts.mean_after(20), (0.96 + 0.97 + 0.99) / 3, 1e-12);
}

TEST(TimeSeries, SettleResetsOnDip) {
  TimeSeries ts("x");
  ts.add(0, 0.96);
  ts.add(10, 0.5);  // dip: earlier settle invalidated
  ts.add(20, 0.97);
  EXPECT_EQ(ts.settle_time(0.95), 20);
}

TEST(TimeSeries, NeverSettlesReturnsMinusOne) {
  TimeSeries ts("x");
  ts.add(0, 0.5);
  ts.add(10, 0.94);
  EXPECT_EQ(ts.settle_time(0.95), -1);
}

}  // namespace
}  // namespace fastcc::stats
