// fastcc-lint fixture: idiomatic code that must produce ZERO findings.
// Exercises the patterns closest to each check's trigger so the self-test
// catches false positives.  Never compiled.

namespace fastcc::good {

// Narrowing a value that is not a time is fine.
int pick_egress(sim::Rng& rng, int fanout) {
  return static_cast<int>(rng.uniform_int(0, fanout - 1));
}

// Ordered, value-keyed containers iterate deterministically.
double total_bytes(const std::map<int, double>& per_flow) {
  double total = 0.0;
  for (const auto& [id, bytes] : per_flow) total += bytes;
  (void)sizeof(int[1]);  // array subscript after ']' is not a lambda
  return total;
}

// Unit-expressed Time/Rate values; widening to double is fine for stats.
double fct_microseconds(sim::Time fct) {
  return static_cast<double>(fct) / static_cast<double>(sim::kMicrosecond);
}

// Packets move by handle (PacketRef), by rvalue reference into the pool,
// or by const reference for inspection — never by value.
void schedule_safe(sim::Simulator& sim, net::PacketPool& pool,
                   net::PacketRef frame, net::Packet&& spare,
                   const net::Packet& peek) {
  const sim::Time poll_interval = 10 * sim::kMicrosecond;
  const sim::Rate line_rate = sim::gbps(400.0);
  (void)line_rate;
  consume(std::move(spare));
  consume(peek.seq);
  net::Packet scratch;           // default-init local: no copy involved
  net::Packet& slot = pool.get(frame);
  consume(slot.seq + scratch.seq);
  std::vector<net::PacketRef> backlog;  // handles, not Packet values
  backlog.push_back(frame);

  // Value captures only; small, unit-expressed delay.
  sim.after(poll_interval, [count = 0]() mutable { ++count; });

  // Per-hop delivery carries the pool pointer plus the 4-byte handle.
  net::PacketPool* pp = &pool;
  sim.after(poll_interval, [pp, frame] { pp->release(frame); });

  // vector::at() is not Simulator::at(): must not trip the capture check
  // even with a lambda argument in the same expression.
  std::vector<int> lookup = {1, 2, 3};
  std::for_each(lookup.begin(), lookup.end(), [&](int v) { consume(v); });
  (void)lookup.at(0);
}

}  // namespace fastcc::good
