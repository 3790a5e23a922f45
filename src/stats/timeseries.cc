#include "stats/timeseries.h"

#include <algorithm>
#include <cassert>

namespace fastcc::stats {

double TimeSeries::max_value() const {
  assert(!points_.empty());
  return std::max_element(points_.begin(), points_.end(),
                          [](const TimePoint& a, const TimePoint& b) {
                            return a.value < b.value;
                          })
      ->value;
}

double TimeSeries::min_value() const {
  assert(!points_.empty());
  return std::min_element(points_.begin(), points_.end(),
                          [](const TimePoint& a, const TimePoint& b) {
                            return a.value < b.value;
                          })
      ->value;
}

double TimeSeries::mean_after(sim::Time from) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const TimePoint& p : points_) {
    if (p.t >= from) {
      sum += p.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

sim::Time TimeSeries::settle_time(double threshold) const {
  sim::Time settled = -1;
  for (const TimePoint& p : points_) {
    if (p.value >= threshold) {
      if (settled < 0) settled = p.t;
    } else {
      settled = -1;
    }
  }
  return settled;
}

}  // namespace fastcc::stats
