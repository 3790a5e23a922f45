#include "core/fairness.h"

namespace fastcc::core {

double jain_index(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  const double n = static_cast<double>(allocations.size());
  return (sum * sum) / (n * sum_sq);
}

}  // namespace fastcc::core
