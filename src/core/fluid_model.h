// Fluid model of multiplicative decrease cadence (Section IV-B, Figure 4).
//
// The paper compares two MD schedules for flows sharing a congested link:
//   per s ACKs:  S_i'(t) = -beta * S_i(t)^2 / (s * MTU)
//   per RTT:     R_i'(t) = -beta * R_i(t) / r
// Both admit closed forms; a generic RK4 integrator is provided as well so
// tests can cross-validate the two.  Fairness of a two-flow system is the
// rate gap (fast minus slow); Figure 4 plots the *difference* of the two
// schedules' gaps, (R1-R0) - (S1-S0), which is positive whenever Sampling
// Frequency has converged further.
#pragma once

#include <vector>

#include "sim/time.h"

namespace fastcc::core {

struct FluidModelParams {
  double beta = 0.5;        ///< MD strength per decrease interval.
  /// r: observed RTT driving the per-RTT schedule.
  double rtt_ns = 30000.0;
  double mtu_bytes = 1000.0;
  double s_acks = 30.0;     ///< Sampling Frequency (ACKs per decrease).
};

/// Closed-form per-s-ACK rate: 1/S(t) = 1/S0 + beta t / (s MTU).
double sampling_frequency_rate(double s0_bytes_per_ns, double t_ns,
                               const FluidModelParams& p);

/// Closed-form per-RTT rate: R(t) = R0 exp(-beta t / r).
double per_rtt_rate(double r0_bytes_per_ns, double t_ns,
                    const FluidModelParams& p);

/// Numerically integrates both ODEs with classic RK4 from the same initial
/// rate; returned pair is (sampling-frequency rate, per-RTT rate) at t_ns.
struct FluidRates {
  double sf_rate;
  double rtt_rate;
};
FluidRates integrate_rk4(double initial_rate, double t_ns, double dt_ns,
                         const FluidModelParams& p);

/// One point of the Figure 4 series.
struct FairnessPoint {
  double t_ns;
  double sf_gap;      ///< S1(t) - S0(t), bytes/ns.
  double rtt_gap;     ///< R1(t) - R0(t), bytes/ns.
  double difference;  ///< rtt_gap - sf_gap (positive: SF is fairer).
};

/// Generates the Figure 4 series for two flows with the given initial rates
/// (the paper uses 100 Gbps and 50 Gbps), sampled every `step_ns` until
/// `horizon_ns`.
std::vector<FairnessPoint> fairness_difference_series(
    double fast_rate, double slow_rate, double horizon_ns, double step_ns,
    const FluidModelParams& p);

/// The paper's analytic convergence condition: the SF schedule closes the
/// gap faster at t=0 iff 1/r < (C1 + C0) / (s * MTU).
bool sf_converges_faster(double fast_rate, double slow_rate,
                         const FluidModelParams& p);

}  // namespace fastcc::core
