// fastcc-lint fixture: event-callback hygiene (ref-capture-callback) and
// shared-state isolation (mutable-global).  Never compiled — consumed by
// `tools/fastcc-lint --self-test`.

namespace fastcc::bad {

static int g_total_drops = 0;                             // expect-lint: mutable-global
static const int kMaxRetries = 5;                         // ok: immutable
static double g_last_sample;                              // expect-lint: mutable-global

void schedule_unsafe(sim::Simulator& sim) {
  int completed = 0;
  sim.after(10 * sim::kMicrosecond, [&] {                 // expect-lint: ref-capture-callback
    ++completed;
  });
  sim.after(20 * sim::kMicrosecond, [&completed] {        // expect-lint: ref-capture-callback
    ++completed;
  });
}

}  // namespace fastcc::bad
