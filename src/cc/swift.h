// Swift (Kumar et al., SIGCOMM 2020) with the paper's extensions.
//
// Swift is a delay-based AIMD protocol: each ACK's RTT is compared against a
// target delay; below target the congestion window grows additively, above
// target it shrinks by a multiplicative factor scaled with how far delay
// overshoots (Equation 1 of the paper), at most once per RTT.  The target
// itself moves: Topology-based Scaling adds a per-hop term, and Flow-based
// Scaling (FBS) raises the target for flows with small windows to improve
// fairness.
//
// Extensions implemented for the paper's evaluation:
//  * line-rate flow start (the paper's choice to match RDMA protocols),
//  * configurable AI and probabilistic feedback baselines,
//  * Sampling Frequency with an HPCC-style reference window: per-ACK window
//    adjustments are recomputed from a reference that commits every s ACKs
//    on decreases and once per RTT on increases (Section V-B),
//  * "always additive increase" (HPCC-style ever-present AI term) so VAI
//    tokens are always spent (Section V-B),
//  * Variable AI driven by per-RTT max queueing delay.
#pragma once

#include <algorithm>
#include <cstdint>

#include "cc/cc.h"
#include "core/sampling_frequency.h"
#include "core/variable_ai.h"
#include "sim/random.h"

namespace fastcc::cc {

struct SwiftParams {
  sim::Rate ai_rate = sim::gbps(0.05);  ///< Additive increase (50 Mbps).
  double beta = 0.8;            ///< MD aggressiveness (Equation 1).
  double max_mdf = 0.5;         ///< Floor of the multiplicative factor in
                                ///< Equation 1 (0.5 = at most halving).
  sim::Time base_target = 5 * sim::kMicrosecond;
  sim::Time per_hop_scaling = 2 * sim::kMicrosecond;  ///< Topology scaling.

  // Flow-based scaling (FBS).
  bool use_fbs = true;
  double fs_min_cwnd = 0.1;     ///< Packets.
  double fs_max_cwnd = 100.0;   ///< Packets (paper lowers to 50 on the star).
  sim::Time fs_range = 4 * sim::kMicrosecond;  ///< Max extra target delay.

  double min_cwnd = 0.01;       ///< Packets.

  bool probabilistic_feedback = false;
  int sampling_freq = 0;        ///< ACKs per committed decrease; 0 = per RTT.
  bool always_ai = false;       ///< HPCC-style AI term on every update.

  // Hyper additive increase (the paper's Section VI-B future-work idea,
  // borrowed from TIMELY): after `hai_threshold` consecutive congestion-free
  // RTTs the AI step is multiplied, letting flows grab freed bandwidth
  // quickly — the fix for Swift's slow median-FCT recovery in Figure 12.
  bool use_hyper_ai = false;
  int hai_threshold = 5;        ///< Quiet RTTs before hyper mode.
  double hai_multiplier = 4.0;  ///< AI scale while in hyper mode.
  core::VariableAiParams vai;   ///< token_thresh / ai_div in *ns* of
                                ///< queueing delay (rtt - base_rtt).
};

/// The paper's VAI parameterization for Swift: one token per 30 ns of
/// queueing delay; threshold = (target - base_rtt) + the delay of one
/// minimum-BDP queue (4 us at 100 Gbps for 50 KB), bank 1000 / cap 100 /
/// dampener 8.
core::VariableAiParams swift_paper_vai(sim::Time target_delay,
                                       sim::Time base_rtt,
                                       sim::Time min_bdp_delay);

class Swift {
 public:
  Swift(const SwiftParams& params, sim::Rng* rng = nullptr)
      : p_(params), vai_(params.vai), sf_(params.sampling_freq), rng_(rng) {}

  void on_flow_start(net::FlowView flow);
  void on_ack(const AckContext& ack, net::FlowView flow);
  const char* name() const { return "swift"; }

  /// Target delay for a given congestion window and number of *switch* hops
  /// (the paper's topology-based scaling unit; a star path has 1, the
  /// fat-tree worst case 5).  Exposed for tests.
  sim::Time target_delay(double cwnd_packets, int switch_hops) const;

  /// Switch hops on a path with `link_hops` links (hosts at both ends).
  static int scaling_hops(int link_hops) { return std::max(link_hops - 1, 0); }

  double cwnd() const { return cwnd_; }
  double reference_cwnd() const { return ref_cwnd_; }
  const core::VariableAi& vai() const { return vai_; }
  bool in_hyper_ai() const {
    return p_.use_hyper_ai && quiet_rtt_streak_ >= p_.hai_threshold;
  }

 private:
  double mdf_factor(sim::Time delay, sim::Time target) const;
  double hyper_ai_factor() const;
  void apply(net::FlowView flow);
  void maybe_rtt_boundary(const AckContext& ack, const net::FlowView& flow,
                          sim::Time target);

  SwiftParams p_;
  core::VariableAi vai_;
  core::SamplingFrequency sf_;
  sim::Rng* rng_;

  double cwnd_ = 0.0;      ///< Packets.
  double ref_cwnd_ = 0.0;  ///< Reference window (SF), packets.
  double max_cwnd_ = 0.0;  ///< Line-rate BDP, packets.
  double ai_pkts_per_rtt_ = 0.0;

  sim::Time last_decrease_time_ = -1;     ///< Per-RTT MD gate (default mode).
  std::uint64_t ref_boundary_seq_ = 0;    ///< Per-RTT reference gate (SF).
  std::uint64_t vai_boundary_seq_ = 0;
  bool congestion_seen_in_rtt_ = false;
  int quiet_rtt_streak_ = 0;
  sim::Time rtt_ewma_ = 0;
};

}  // namespace fastcc::cc
