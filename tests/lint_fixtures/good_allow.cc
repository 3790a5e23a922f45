// fastcc-lint fixture: deliberate violations suppressed with lint:allow.
// The self-test treats any surviving finding here as a failure, so this
// file proves the suppression mechanism works.  Never compiled.

namespace fastcc::good {

// lint:allow(mutable-global -- test-only counter, reset between fixtures)
static int g_debug_counter = 0;

void drain_before_exit(sim::Simulator& sim) {
  int completed = 0;
  // lint:allow(ref-capture-callback -- run() drains this event before scope exit)
  sim.at(2 * sim::kMicrosecond, [&completed] { ++completed; });
  sim.run();
}

}  // namespace fastcc::good
