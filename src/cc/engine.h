// CcEngine: sealed, statically-dispatched congestion-control holder.
//
// FlowTx used to own its controller as std::unique_ptr<CongestionControl>,
// which cost every flow a heap allocation and every ACK a virtual call into
// a cache-cold object.  CcEngine stores the concrete protocol state inline
// in a variant over the five in-tree algorithms, so per-ACK dispatch is a
// switch on the variant index with direct (inlinable) calls, and flow state
// — transmission bookkeeping and controller — is one contiguous block.
//
// The last alternative keeps the open CongestionControl interface alive as
// an escape hatch: tests and out-of-tree extensions can still install a
// heap-allocated virtual controller (FixedCc, instrumentation probes), and
// conversion from unique_ptr is implicit so existing call sites assign as
// before.  In-tree protocols must use the sealed alternatives, and the
// static_assert at the end of this file keeps them non-virtual.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

#include "cc/cc.h"
#include "cc/dcqcn.h"
#include "cc/dctcp.h"
#include "cc/hpcc.h"
#include "cc/swift.h"
#include "cc/timely.h"

namespace fastcc::cc {

class CcEngine {
 public:
  CcEngine() = default;

  // Implicit by design: `flow.cc = Hpcc(params)` and
  // `flow.cc = factory.make(path)` should both read as plain assignment.
  CcEngine(Hpcc cc) : impl_(std::move(cc)) {}                   // NOLINT
  CcEngine(Swift cc) : impl_(std::move(cc)) {}                  // NOLINT
  CcEngine(Dcqcn cc) : impl_(std::move(cc)) {}                  // NOLINT
  CcEngine(Dctcp cc) : impl_(std::move(cc)) {}                  // NOLINT
  CcEngine(Timely cc) : impl_(std::move(cc)) {}                 // NOLINT
  CcEngine(std::unique_ptr<CongestionControl> cc)               // NOLINT
      : impl_(std::move(cc)) {}
  // Accept derived-class pointers directly (`flow.cc =
  // std::make_unique<FixedCc>(...)`); without this, the two user-defined
  // conversions (unique_ptr upcast, then engine wrap) could not chain.
  template <typename T,
            typename = std::enable_if_t<std::is_base_of_v<CongestionControl, T>>>
  CcEngine(std::unique_ptr<T> cc)                               // NOLINT
      : impl_(std::unique_ptr<CongestionControl>(std::move(cc))) {}

  CcEngine(CcEngine&&) = default;
  CcEngine& operator=(CcEngine&&) = default;

  /// True when a controller is installed (unset flows fail start_flow's
  /// assertion, as a null unique_ptr used to).
  explicit operator bool() const {
    if (std::holds_alternative<std::monostate>(impl_)) return false;
    if (const auto* p = std::get_if<std::unique_ptr<CongestionControl>>(
            &impl_)) {
      return *p != nullptr;
    }
    return true;
  }

  void on_flow_start(net::FlowView flow) {
    switch (impl_.index()) {
      case kHpcc: std::get_if<Hpcc>(&impl_)->on_flow_start(flow); break;
      case kSwift: std::get_if<Swift>(&impl_)->on_flow_start(flow); break;
      case kDcqcn: std::get_if<Dcqcn>(&impl_)->on_flow_start(flow); break;
      case kDctcp: std::get_if<Dctcp>(&impl_)->on_flow_start(flow); break;
      case kTimely: std::get_if<Timely>(&impl_)->on_flow_start(flow); break;
      case kVirtual: virtual_cc()->on_flow_start(flow); break;
      default: break;
    }
  }

  /// The per-ACK hot path: direct dispatch, no indirect call for the sealed
  /// protocols.
  void on_ack(const AckContext& ack, net::FlowView flow) {
    switch (impl_.index()) {
      case kHpcc: std::get_if<Hpcc>(&impl_)->on_ack(ack, flow); break;
      case kSwift: std::get_if<Swift>(&impl_)->on_ack(ack, flow); break;
      case kDcqcn: std::get_if<Dcqcn>(&impl_)->on_ack(ack, flow); break;
      case kDctcp: std::get_if<Dctcp>(&impl_)->on_ack(ack, flow); break;
      case kTimely: std::get_if<Timely>(&impl_)->on_ack(ack, flow); break;
      case kVirtual: virtual_cc()->on_ack(ack, flow); break;
      default: break;
    }
  }

  const char* name() const {
    switch (impl_.index()) {
      case kHpcc: return std::get_if<Hpcc>(&impl_)->name();
      case kSwift: return std::get_if<Swift>(&impl_)->name();
      case kDcqcn: return std::get_if<Dcqcn>(&impl_)->name();
      case kDctcp: return std::get_if<Dctcp>(&impl_)->name();
      case kTimely: return std::get_if<Timely>(&impl_)->name();
      case kVirtual: return virtual_cc()->name();
      default: return "none";
    }
  }

  /// Earliest controller-internal deadline, or kNoTimer (-1).  Only DCQCN's
  /// recovery machinery is timer-driven; the Host routes the deadline onto
  /// its timing wheel and calls on_timer() when it elapses.
  sim::Time next_timer() const {
    if (const auto* d = std::get_if<Dcqcn>(&impl_)) return d->next_timer();
    return -1;
  }

  void on_timer(sim::Time now, net::FlowView flow) {
    if (auto* d = std::get_if<Dcqcn>(&impl_)) d->on_timer(now, flow);
  }

  /// Typed access for tests and introspection (nullptr on mismatch).
  template <typename T>
  T* get_if() {
    return std::get_if<T>(&impl_);
  }
  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&impl_);
  }

  /// The escape-hatch controller, if that alternative is active.
  CongestionControl* virtual_cc() {
    auto* p = std::get_if<std::unique_ptr<CongestionControl>>(&impl_);
    return p ? p->get() : nullptr;
  }
  const CongestionControl* virtual_cc() const {
    const auto* p = std::get_if<std::unique_ptr<CongestionControl>>(&impl_);
    return p ? p->get() : nullptr;
  }

 private:
  // Indices into the variant below; keep in sync.
  static constexpr std::size_t kHpcc = 1;
  static constexpr std::size_t kSwift = 2;
  static constexpr std::size_t kDcqcn = 3;
  static constexpr std::size_t kDctcp = 4;
  static constexpr std::size_t kTimely = 5;
  static constexpr std::size_t kVirtual = 6;

  std::variant<std::monostate, Hpcc, Swift, Dcqcn, Dctcp, Timely,
               std::unique_ptr<CongestionControl>>
      impl_;
};

static_assert(std::is_move_constructible_v<CcEngine> &&
                  std::is_move_assignable_v<CcEngine>,
              "flow tables move FlowTx (and its engine) on growth");

// A virtual member in an in-tree engine would put a vtable load back on the
// per-ACK path that the variant's direct calls exist to avoid.
static_assert(!std::is_polymorphic_v<Hpcc> && !std::is_polymorphic_v<Swift> &&
                  !std::is_polymorphic_v<Dcqcn> &&
                  !std::is_polymorphic_v<Dctcp> &&
                  !std::is_polymorphic_v<Timely>,
              "in-tree engines are dispatched statically: no virtual members");

}  // namespace fastcc::cc
