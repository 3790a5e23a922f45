// HPCC (Li et al., SIGCOMM 2019) with the paper's extensions.
//
// HPCC is a window-based MIMD protocol driven by per-hop INT telemetry.  Each
// ACK yields a normalized inflight estimate U (queue component + rate
// component per link, maximum over hops, EWMA-smoothed); the window is set to
// Wc / (U/eta) + W_AI relative to a reference window Wc that is updated at
// most once per RTT, plus an additive term for fairness.
//
// Extensions implemented for the paper's evaluation:
//  * configurable AI (the "HPCC 1Gbps" baseline),
//  * probabilistic feedback (reference-updating decreases ignored with
//    probability proportional to how far the window is below max),
//  * Sampling Frequency (reference-window decreases every `s` ACKs),
//  * Variable AI (token bank driven by per-RTT max queue depth).
#pragma once

#include <array>
#include <cstdint>

#include "cc/cc.h"
#include "core/sampling_frequency.h"
#include "core/variable_ai.h"
#include "sim/random.h"

namespace fastcc::cc {

struct HpccParams {
  double eta = 0.95;            ///< Target utilization.
  int max_stage = 5;            ///< AI stages before an MIMD recalibration.
  sim::Rate ai_rate = sim::gbps(0.05);  ///< Additive increase (50 Mbps).
  double ewma_weight_cap = 1.0; ///< Cap for tau/T in the U EWMA.

  bool probabilistic_feedback = false;
  int sampling_freq = 0;        ///< ACKs per reference decrease; 0 = per RTT.
  core::VariableAiParams vai;   ///< token_thresh / ai_div in *bytes* of queue.

  double min_window_mtus = 0.1; ///< Floor on W, in MTUs.
};

/// Convenience: the paper's VAI parameterization for HPCC — one token per
/// KByte of queue above `min_bdp_bytes`, bank 1000, cap 100, dampener 8.
core::VariableAiParams hpcc_paper_vai(double min_bdp_bytes);

// Concrete protocols are plain (non-virtual) classes dispatched statically
// through cc::CcEngine (engine.h); deriving from CongestionControl is
// reserved for out-of-tree extensions that accept the indirect-call cost.
class Hpcc {
 public:
  Hpcc(const HpccParams& params, sim::Rng* rng = nullptr)
      : p_(params), vai_(params.vai), sf_(params.sampling_freq), rng_(rng) {}

  void on_flow_start(net::FlowView flow);
  void on_ack(const AckContext& ack, net::FlowView flow);
  const char* name() const { return "hpcc"; }

  // Introspection for tests.
  double reference_window() const { return wc_; }
  double utilization_estimate() const { return u_; }
  int inc_stage() const { return inc_stage_; }
  const core::VariableAi& vai() const { return vai_; }

 private:
  /// HPCC's MeasureInflight: returns the EWMA-updated U, or a negative value
  /// until a previous INT snapshot exists to difference against.
  double measure_inflight(const AckContext& ack, const net::FlowView& flow);

  /// HPCC's ComputeWind.
  double compute_window(double u, bool update_reference, net::FlowView flow);

  void maybe_rtt_boundary(const AckContext& ack, const net::FlowView& flow);

  HpccParams p_;
  core::VariableAi vai_;
  core::SamplingFrequency sf_;
  sim::Rng* rng_;

  double wc_ = 0.0;  ///< Reference window (bytes).
  double u_ = 0.0;   ///< Smoothed normalized inflight.
  int inc_stage_ = 0;
  std::uint64_t last_update_seq_ = 0;  ///< Per-RTT reference gate.

  // Per-RTT trackers for VAI.
  std::uint64_t vai_boundary_seq_ = 0;
  double rtt_max_u_ = 0.0;

  std::array<net::IntRecord, net::kMaxHops> prev_ints_{};
  int prev_hop_count_ = -1;

  /// line_rate * base_rtt, bytes (probabilistic law).
  double max_window_ = 0.0;
  /// ai_rate * base_rtt, bytes.
  double w_ai_base_ = 0.0;
};

}  // namespace fastcc::cc
