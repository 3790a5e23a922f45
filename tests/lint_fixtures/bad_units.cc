// fastcc-lint fixture: unit-safety checks (time-literal, rate-literal,
// time-narrowing).  Never compiled — consumed by
// `tools/fastcc-lint --self-test`.

namespace fastcc::bad {

void schedule_timeouts(sim::Simulator& sim) {
  sim::Time retransmit_deadline = 50000;                  // expect-lint: time-literal
  sim::Time poll_interval = 10 * sim::kMicrosecond;       // ok: unit-expressed
  (void)retransmit_deadline;
  (void)poll_interval;

  sim.at(250000, [] { /* timeout */ });                   // expect-lint: time-literal
  sim.at(3 * sim::kMillisecond, [] { /* ok: units */ });
}

void configure_rates() {
  sim::Rate link_rate = 400.0;                            // expect-lint: rate-literal
  sim::Rate good_rate = sim::gbps(400.0);                 // ok: converter used
  (void)link_rate;
  (void)good_rate;
}

void narrow_timestamps(sim::Simulator& sim) {
  const sim::Time start_time = 3 * sim::kMillisecond;
  int truncated = static_cast<int>(start_time);           // expect-lint: time-narrowing
  unsigned lag = static_cast<std::uint32_t>(sim.now());   // expect-lint: time-narrowing
  double widened = static_cast<double>(start_time);       // ok: widening for stats
  (void)truncated;
  (void)lag;
  (void)widened;
}

}  // namespace fastcc::bad
