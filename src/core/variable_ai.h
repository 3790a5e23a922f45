// Variable Additive Increase (the paper's Algorithm 1 + Algorithm 2).
//
// VAI turns observed congestion into "AI tokens": when the per-RTT measured
// congestion exceeds Token_Thresh (evidence that a new flow joined), tokens
// accumulate in a bank; each rate update may spend up to AI_Cap tokens, each
// multiplying the protocol's base additive-increase step.  A dampener divides
// the effective tokens when congestion persists, breaking the
// AI->congestion->AI feedback loop; it only resets once the bank is empty
// *and* a full RTT passes with no congestion.
//
// Units of "measured congestion" are protocol-specific: bytes of switch queue
// for HPCC, nanoseconds of queueing delay for Swift.  The class is agnostic —
// Token_Thresh and AI_DIV are expressed in the caller's units.
#pragma once

#include <algorithm>

namespace fastcc::core {

struct VariableAiParams {
  bool enabled = false;
  double token_thresh = 0.0;      ///< Congestion level that mints tokens.
  double ai_div = 1.0;            ///< Congestion units per minted token.
  double bank_cap = 1000.0;       ///< Max banked tokens (Bank_Cap).
  double ai_cap = 100.0;          ///< Max tokens spent per update (AI_Cap).
  double dampener_constant = 8.0; ///< Dampener divisor scale.
};

class VariableAi {
 public:
  explicit VariableAi(const VariableAiParams& params) : p_(params) {}

  bool enabled() const { return p_.enabled; }

  /// Records one congestion sample (per ACK); the per-RTT "Measured
  /// Congestion" of Algorithm 1 is the maximum sample in the RTT.
  void observe(double measured_congestion) {
    rtt_max_congestion_ = std::max(rtt_max_congestion_, measured_congestion);
  }

  /// Algorithm 1, run once per RTT.  `no_congestion_entire_rtt` is the
  /// protocol's judgement (HPCC: max U < eta all RTT; Swift: no RTT sample
  /// above target) and gates the dampener reset.
  void on_rtt_boundary(bool no_congestion_entire_rtt);

  /// Algorithm 2: multiplier to apply to the base AI step.  Returns >= 1.
  /// `spend` must be true on reference-rate updates (which consume banked
  /// tokens) and false for intermediate per-ACK computations.
  double ai_multiplier(bool spend);

  double bank() const { return bank_; }
  double dampener() const { return dampener_; }
  const VariableAiParams& params() const { return p_; }

 private:
  VariableAiParams p_;
  double bank_ = 0.0;
  double dampener_ = 0.0;
  double rtt_max_congestion_ = 0.0;
};

}  // namespace fastcc::core
