// Protocol-variant catalogue and factory.
//
// Every curve in the paper's figures corresponds to one Variant here.  The
// factory owns the translation from paper parameter prose to concrete
// protocol configs (AI values, VAI token thresholds derived from the
// network's minimum BDP, Swift target-delay scaling) so experiments, tests,
// benches, and examples all construct identical protocols.
#pragma once

#include <string>

#include "cc/engine.h"
#include "net/network.h"

namespace fastcc::exp {

enum class Variant {
  // HPCC family (Figure 1a/b, 2, 5, 8, 10-13).
  kHpcc,          ///< Default: AI 50 Mbps, eta 0.95, maxStage 5.
  kHpcc1G,        ///< "HPCC 1Gbps": AI raised to 1 Gbps.
  kHpccProb,      ///< "HPCC Probabilistic": window-linear feedback ignoring.
  kHpccVai,       ///< Ablation: Variable AI only.
  kHpccSf,        ///< Ablation: Sampling Frequency only.
  kHpccVaiSf,     ///< The paper's mechanism set.
  // Swift family (Figure 1c/d, 3, 6, 9, 10-13).
  kSwift,
  kSwift1G,
  kSwiftProb,
  kSwiftVai,
  kSwiftSf,
  kSwiftVaiSf,    ///< VAI + SF, FBS disabled (Section VI-B).
  kSwiftHai,      ///< Future-work: TIMELY-style hyper AI (Section VI-B).
  // Background baselines (Section II).
  kDcqcn,
  kTimely,
  kDctcp,
};

const char* variant_name(Variant v);
bool variant_is_hpcc(Variant v);
bool variant_is_swift(Variant v);
/// DCQCN and DCTCP need RED/ECN marking enabled at switches.
bool variant_needs_red(Variant v);
/// Marking parameters appropriate for the variant: probabilistic RED for
/// DCQCN, a step function at K for DCTCP.
net::RedParams red_params_for(Variant v);
/// Applies the variant's switch settings to every switch of `network`: for
/// the variants that need RED, red_params_for(v) plus PFC (200 KB pause,
/// 100 KB resume); nothing for the others.
void configure_switches(net::Network& network, Variant v);

/// Builds congestion controllers for a given network + variant.
class CcFactory {
 public:
  /// `small_topology` applies the paper's single-switch adjustments (Swift
  /// fs_max_cwnd 100 -> 50).  The minimum BDP (VAI Token_Thresh) is derived
  /// from the first adjacent host pair, matching the paper's ~50 KB.
  CcFactory(net::Network& network, Variant variant, bool small_topology,
            std::uint32_t mtu = net::kDefaultMtu);

  /// Creates a configured controller for a flow over `path`.  The engine is
  /// a value: assigning it into FlowTx.cc allocates nothing.
  cc::CcEngine make(const net::PathInfo& path) const;

  /// Same, but drawing randomness (HPCC/Swift probabilistic feedback) from
  /// `rng` instead of the network's shared stream.  The space-parallel
  /// runner uses this: each shard owns a private Rng, so flows started on
  /// different worker threads never race on — or perturb — one generator.
  cc::CcEngine make(const net::PathInfo& path, sim::Rng* rng) const;

  Variant variant() const { return variant_; }
  double min_bdp_bytes() const { return min_bdp_bytes_; }
  sim::Time min_bdp_delay() const { return min_bdp_delay_; }
  int sampling_freq() const;

  /// Paper constants, exposed for tests and ablations.
  static constexpr int kPaperSamplingFreq = 30;

 private:
  cc::HpccParams hpcc_params(const net::PathInfo& path) const;
  cc::SwiftParams swift_params(const net::PathInfo& path) const;

  net::Network& network_;
  Variant variant_;
  bool small_topology_;
  std::uint32_t mtu_;
  double min_bdp_bytes_ = 0.0;
  sim::Time min_bdp_delay_ = 0;
};

}  // namespace fastcc::exp
