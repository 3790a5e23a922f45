// Simulation time and rate units for fastcc.
//
// Time is a signed 64-bit nanosecond count from simulation start.  Rates are
// carried as double bytes-per-nanosecond so that common datacenter speeds are
// exact: 100 Gbps == 12.5 B/ns, 400 Gbps == 50 B/ns.
#pragma once

#include <cstdint>
#include <limits>

namespace fastcc::sim {

/// Simulation timestamp / duration in nanoseconds.
using Time = std::int64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1000 * kNanosecond;
inline constexpr Time kMillisecond = 1000 * kMicrosecond;
inline constexpr Time kSecond = 1000 * kMillisecond;

/// Sentinel returned by the event queues' take_next() when no event at or
/// before the bound exists.  Simulations run on non-negative timestamps.
inline constexpr Time kNoEventTime = -1;

/// "Never": the latest representable instant.  Returned by
/// serialization_time() for degenerate (non-positive) rates so that a
/// misconfigured link stalls visibly instead of invoking the undefined
/// behaviour of casting an infinite double to an integer.
inline constexpr Time kMaxTime = std::numeric_limits<Time>::max();

/// Link / injection rate in bytes per nanosecond (== GB/s).
using Rate = double;

/// Converts a rate expressed in gigabits per second to bytes per nanosecond.
constexpr Rate gbps(double gigabits_per_second) {
  return gigabits_per_second / 8.0;
}

/// Converts a rate in bytes-per-nanosecond back to gigabits per second.
constexpr double to_gbps(Rate bytes_per_ns) { return bytes_per_ns * 8.0; }

/// Time to serialize `bytes` at `rate`.
///
/// Rounding contract: the result is ceil(bytes / rate) in whole nanoseconds
/// — a transmitter never finishes early, and exact divisions (the common
/// datacenter speeds, e.g. 1000 B at 12.5 B/ns) stay exact.  The quotient is
/// computed in double, which is exact for any byte count below 2^53 (~9 PB
/// per packet/burst, far beyond any simulated transfer unit).
///
/// Degenerate inputs are guarded rather than undefined: a non-positive rate
/// yields kMaxTime ("this link never finishes"), and a non-positive byte
/// count costs zero time.  Division by a zero/negative rate would otherwise
/// produce an infinity whose integer cast is UB.
constexpr Time serialization_time(std::int64_t bytes, Rate rate) {
  if (bytes <= 0) return 0;
  if (rate <= 0.0) return kMaxTime;
  const double ns = static_cast<double>(bytes) / rate;
  if (ns >= static_cast<double>(kMaxTime)) return kMaxTime;
  const Time whole = static_cast<Time>(ns);
  return (static_cast<double>(whole) < ns) ? whole + 1 : whole;
}

}  // namespace fastcc::sim
