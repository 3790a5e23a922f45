#include "net/monitor.h"

#include <utility>

namespace fastcc::net {

UtilizationMonitor::UtilizationMonitor(sim::Simulator& simulator,
                                       const Port& port, sim::Time interval,
                                       std::string label,
                                       std::function<bool()> keep_running)
    : sim_(simulator),
      port_(port),
      interval_(interval),
      series_(std::move(label)),
      keep_running_(std::move(keep_running)) {}

void UtilizationMonitor::arm_next() {
  if (wheel_ != nullptr) {
    wheel_->arm(sim_.now() + interval_, [this] { sample(); });
  } else {
    sim_.after(interval_, [this] { sample(); });
  }
}

void UtilizationMonitor::start() {
  last_tx_bytes_ = static_cast<double>(port_.tx_bytes_total()) -
                   port_.unserialized_tx_bytes(sim_.now());
  arm_next();
}

void UtilizationMonitor::sample() {
  // The bulk drain books a burst's tx counter at its commit event; subtract
  // the still-serializing remainder so per-window readings stay <= capacity.
  const double tx = static_cast<double>(port_.tx_bytes_total()) -
                    port_.unserialized_tx_bytes(sim_.now());
  const double sent = tx - last_tx_bytes_;
  last_tx_bytes_ = tx;
  const double capacity =
      port_.bandwidth() * static_cast<double>(interval_);
  series_.add(sim_.now(), capacity > 0.0 ? sent / capacity : 0.0);
  if (keep_running_ == nullptr || keep_running_()) arm_next();
}

double UtilizationMonitor::mean_utilization() const {
  if (series_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : series_.points()) sum += p.value;
  return sum / static_cast<double>(series_.size());
}

}  // namespace fastcc::net
