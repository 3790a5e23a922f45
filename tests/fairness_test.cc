#include "core/fairness.h"

#include <gtest/gtest.h>

#include <array>

namespace fastcc::core {
namespace {

TEST(JainIndex, EqualAllocationIsPerfectlyFair) {
  const std::array<double, 4> x{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::array<double, 3> a{1.0, 2.0, 3.0};
  const std::array<double, 3> b{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(jain_index(a), jain_index(b));
}

TEST(JainIndex, OneHotAllocationScoresOneOverN) {
  const std::array<double, 8> x{1.0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0 / 8.0);
}

TEST(JainIndex, KnownTwoFlowValue) {
  // Rates 2:1 -> (3)^2 / (2 * 5) = 0.9.
  const std::array<double, 2> x{2.0, 1.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 0.9);
}

TEST(JainIndex, EdgeCasesAreVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::array<double, 3> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

TEST(JainIndex, BoundedByOneOverNAndOne) {
  const std::array<double, 5> x{0.1, 7.3, 2.2, 9.9, 0.4};
  const double j = jain_index(x);
  EXPECT_GE(j, 1.0 / 5.0);
  EXPECT_LE(j, 1.0);
}

}  // namespace
}  // namespace fastcc::core
