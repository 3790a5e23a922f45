#include "experiments/protocols.h"

#include <cassert>

namespace fastcc::exp {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kHpcc: return "HPCC";
    case Variant::kHpcc1G: return "HPCC 1Gbps";
    case Variant::kHpccProb: return "HPCC Probabilistic";
    case Variant::kHpccVai: return "HPCC VAI";
    case Variant::kHpccSf: return "HPCC SF";
    case Variant::kHpccVaiSf: return "HPCC VAI SF";
    case Variant::kSwift: return "Swift";
    case Variant::kSwift1G: return "Swift 1Gbps";
    case Variant::kSwiftProb: return "Swift Probabilistic";
    case Variant::kSwiftVai: return "Swift VAI";
    case Variant::kSwiftSf: return "Swift SF";
    case Variant::kSwiftVaiSf: return "Swift VAI SF";
    case Variant::kSwiftHai: return "Swift HyperAI";
    case Variant::kDcqcn: return "DCQCN";
    case Variant::kTimely: return "TIMELY";
    case Variant::kDctcp: return "DCTCP";
  }
  return "unknown";
}

bool variant_is_hpcc(Variant v) {
  switch (v) {
    case Variant::kHpcc:
    case Variant::kHpcc1G:
    case Variant::kHpccProb:
    case Variant::kHpccVai:
    case Variant::kHpccSf:
    case Variant::kHpccVaiSf:
      return true;
    default:
      return false;
  }
}

bool variant_is_swift(Variant v) {
  switch (v) {
    case Variant::kSwift:
    case Variant::kSwift1G:
    case Variant::kSwiftProb:
    case Variant::kSwiftVai:
    case Variant::kSwiftSf:
    case Variant::kSwiftVaiSf:
    case Variant::kSwiftHai:
      return true;
    default:
      return false;
  }
}

bool variant_needs_red(Variant v) {
  return v == Variant::kDcqcn || v == Variant::kDctcp;
}

net::RedParams red_params_for(Variant v) {
  net::RedParams red;
  if (v == Variant::kDcqcn) {
    red.enabled = true;
    red.kmin_bytes = 5'000;
    red.kmax_bytes = 200'000;
    red.pmax = 0.01;
  } else if (v == Variant::kDctcp) {
    // DCTCP marks deterministically past threshold K (step function).
    const cc::DctcpParams defaults;
    red.enabled = true;
    red.kmin_bytes = defaults.mark_threshold_bytes;
    red.kmax_bytes = defaults.mark_threshold_bytes;
    red.pmax = 1.0;
  }
  return red;
}

void configure_switches(net::Network& network, Variant v) {
  if (!variant_needs_red(v)) return;
  network.set_red_all(red_params_for(v));
  // ECN-driven deployments rely on PFC for losslessness while the
  // protocol converges (RDMA practice for DCQCN; harmless for DCTCP).
  net::PfcParams pfc;
  pfc.pause_bytes = 200'000;
  pfc.resume_bytes = 100'000;
  network.set_pfc_all(pfc);
}

CcFactory::CcFactory(net::Network& network, Variant variant,
                     bool small_topology, std::uint32_t mtu)
    : network_(network),
      variant_(variant),
      small_topology_(small_topology),
      mtu_(mtu) {
  assert(network_.hosts().size() >= 2);
  // Minimum BDP of the network: the closest host pair bounds it from below.
  // In both paper topologies host 0 and host 1 share the first switch, which
  // realizes the minimum (~50 KB at 100 Gbps with 1 us links).
  const net::PathInfo p = network_.path(network_.hosts()[0]->id(),
                                        network_.hosts()[1]->id(), mtu_);
  min_bdp_bytes_ = p.bottleneck * static_cast<double>(p.base_rtt);
  min_bdp_delay_ = static_cast<sim::Time>(min_bdp_bytes_ / p.bottleneck);
}

int CcFactory::sampling_freq() const {
  switch (variant_) {
    case Variant::kHpccSf:
    case Variant::kHpccVaiSf:
    case Variant::kSwiftSf:
    case Variant::kSwiftVaiSf:
      return kPaperSamplingFreq;
    default:
      return 0;
  }
}

cc::HpccParams CcFactory::hpcc_params(const net::PathInfo& /*path*/) const {
  cc::HpccParams p;
  p.ai_rate = sim::gbps(0.05);  // 50 Mbps (Section III-D)
  p.eta = 0.95;
  p.max_stage = 5;
  switch (variant_) {
    case Variant::kHpcc1G:
      p.ai_rate = sim::gbps(1.0);
      break;
    case Variant::kHpccProb:
      p.probabilistic_feedback = true;
      break;
    case Variant::kHpccVai:
      p.vai = cc::hpcc_paper_vai(min_bdp_bytes_);
      break;
    case Variant::kHpccSf:
      p.sampling_freq = kPaperSamplingFreq;
      break;
    case Variant::kHpccVaiSf:
      p.vai = cc::hpcc_paper_vai(min_bdp_bytes_);
      p.sampling_freq = kPaperSamplingFreq;
      break;
    default:
      break;
  }
  return p;
}

cc::SwiftParams CcFactory::swift_params(const net::PathInfo& path) const {
  cc::SwiftParams p;
  p.ai_rate = sim::gbps(0.05);
  p.beta = 0.8;
  p.max_mdf = 0.5;
  p.base_target = 5 * sim::kMicrosecond;
  p.per_hop_scaling = 2 * sim::kMicrosecond;
  p.fs_max_cwnd = small_topology_ ? 50.0 : 100.0;
  const sim::Time target =
      p.base_target + cc::Swift::scaling_hops(path.hops) * p.per_hop_scaling;
  switch (variant_) {
    case Variant::kSwift1G:
      p.ai_rate = sim::gbps(1.0);
      break;
    case Variant::kSwiftProb:
      p.probabilistic_feedback = true;
      break;
    case Variant::kSwiftVai:
      p.vai = cc::swift_paper_vai(target, path.base_rtt, min_bdp_delay_);
      p.always_ai = true;  // tokens must always be spendable (Section V-B)
      break;
    case Variant::kSwiftSf:
      p.sampling_freq = kPaperSamplingFreq;
      p.always_ai = true;
      p.use_fbs = false;
      break;
    case Variant::kSwiftVaiSf:
      p.vai = cc::swift_paper_vai(target, path.base_rtt, min_bdp_delay_);
      p.sampling_freq = kPaperSamplingFreq;
      p.always_ai = true;
      p.use_fbs = false;  // the paper's VAI SF Swift does not use FBS
      break;
    case Variant::kSwiftHai:
      p.use_hyper_ai = true;
      break;
    default:
      break;
  }
  return p;
}

cc::CcEngine CcFactory::make(const net::PathInfo& path) const {
  return make(path, &network_.rng());
}

cc::CcEngine CcFactory::make(const net::PathInfo& path, sim::Rng* rng) const {
  if (variant_is_hpcc(variant_)) {
    return cc::Hpcc(hpcc_params(path), rng);
  }
  if (variant_is_swift(variant_)) {
    return cc::Swift(swift_params(path), rng);
  }
  if (variant_ == Variant::kDctcp) {
    return cc::Dctcp(cc::DctcpParams{});
  }
  if (variant_ == Variant::kTimely) {
    cc::TimelyParams p;
    p.t_low = path.base_rtt + 2 * sim::kMicrosecond;
    p.t_high = path.base_rtt + 20 * sim::kMicrosecond;
    return cc::Timely(p);
  }
  assert(variant_ == Variant::kDcqcn);
  return cc::Dcqcn(cc::DcqcnParams{});
}

}  // namespace fastcc::exp
