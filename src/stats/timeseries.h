// Lightweight (time, value) series, used for the paper's Jain-index-over-time
// and queue-depth-over-time figures.
#pragma once

#include <string>
#include <vector>

#include "sim/time.h"

namespace fastcc::stats {

struct TimePoint {
  sim::Time t = 0;
  double value = 0.0;
};

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string label) : label_(std::move(label)) {}

  void add(sim::Time t, double value) { points_.push_back({t, value}); }
  const std::vector<TimePoint>& points() const { return points_; }
  const std::string& label() const { return label_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  double max_value() const;
  double min_value() const;
  /// Mean of values with t >= from (steady-state summaries).
  double mean_after(sim::Time from) const;
  /// First time the series reaches `threshold` and never drops below it
  /// again (convergence detection); returns -1 if it never settles.
  sim::Time settle_time(double threshold) const;

 private:
  std::string label_;
  std::vector<TimePoint> points_;
};

}  // namespace fastcc::stats
