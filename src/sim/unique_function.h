// UniqueFunction: a move-only void() callable with small-buffer optimization.
//
// Scheduled events frequently capture move-only state (flow state with
// owning pointers, std::function samplers); std::function requires
// copyability, and std::move_only_function is C++23, so this small
// type-erased wrapper fills the gap.  Callables up to kInlineSize bytes are
// stored inline, so scheduling an event performs zero heap allocations in
// the steady state.  Oversized (or over-aligned, or throwing-move) callables
// transparently fall back to a single heap allocation.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace fastcc::sim {

class UniqueFunction {
 public:
  /// Inline capacity.  With the zero-copy packet pipeline the hottest
  /// closures are handle-sized (node pointer + 4-byte PacketRef + port,
  /// <= 24 bytes); 32 bytes also covers host timers and the 8-byte
  /// flow-start and sampler re-arm closures, and keeps the whole wrapper at
  /// 48 bytes — every schedule and pop physically moves this buffer, so the
  /// hot-path cost scales with it (the old 384-byte buffer sized for a
  /// by-value Packet spanned seven cache lines; 64 spanned two).  No
  /// closure src/ schedules takes the heap fallback; it remains for
  /// oversized callables from other callers.
  static constexpr std::size_t kInlineSize = 32;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when callables of type F are stored inline (no heap allocation).
  /// Inline storage additionally requires a nothrow move so relocation
  /// during queue maintenance cannot throw mid-heap-sift.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      alignof(std::decay_t<F>) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (storage()) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (storage()) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { destroy(); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invokes the callable.  Invoking an empty (default-constructed or
  /// moved-from) UniqueFunction asserts in Debug and is a no-op in Release.
  void operator()() {
    assert(ops_ != nullptr && "invoking an empty UniqueFunction");
    if (ops_ != nullptr) ops_->invoke(storage());
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src and destroys src.  nullptr marks the
    /// stored representation trivially relocatable: memcpy `size` bytes.
    void (*relocate)(void* dst, void* src);
    /// Destroys the stored object.  nullptr when trivially destructible.
    void (*destroy)(void*);
    std::size_t size;
  };

  template <typename D>
  static void invoke_inline(void* s) {
    (*static_cast<D*>(s))();
  }
  template <typename D>
  static void relocate_inline(void* dst, void* src) {
    D* from = static_cast<D*>(src);
    ::new (dst) D(std::move(*from));
    from->~D();
  }
  template <typename D>
  static void destroy_inline(void* s) {
    static_cast<D*>(s)->~D();
  }

  template <typename D>
  static void invoke_heap(void* s) {
    (**static_cast<D**>(s))();
  }
  template <typename D>
  static void destroy_heap(void* s) {
    delete *static_cast<D**>(s);
  }

  // Packet-capturing lambdas are trivially copyable, so the common case
  // relocates by memcpy with no indirect call and destroys for free.  An
  // empty callable (a capture-less lambda) has no bytes to copy: its one
  // byte of storage is never written.
  template <typename D>
  static constexpr Ops kInlineOps{
      &invoke_inline<D>,
      std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>
          ? nullptr
          : &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
      std::is_empty_v<D> ? 0 : sizeof(D)};

  /// Heap-stored callables keep only the owning D* inline; relocation copies
  /// the pointer, destruction deletes through it.
  template <typename D>
  static constexpr Ops kHeapOps{&invoke_heap<D>, nullptr, &destroy_heap<D>,
                                sizeof(D*)};

  void* storage() { return static_cast<void*>(buf_); }

  void move_from(UniqueFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage(), other.storage());
    } else {
      std::memcpy(buf_, other.buf_, ops_->size);
    }
    other.ops_ = nullptr;
  }

  void destroy() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage());
    ops_ = nullptr;
  }

  // ops_ precedes the buffer so that for small callables the dispatch
  // pointer and the captured state share the first cache line.
  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

}  // namespace fastcc::sim
