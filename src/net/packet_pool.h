// PacketPool: a per-simulation arena for in-flight packets.
//
// The zero-copy packet pipeline allocates a Packet exactly once, at the
// sending host, and then passes a 4-byte PacketRef handle through port
// queues, scheduler closures, and switch forwarding; the ~300-byte Packet
// itself never moves again.  Ownership rules:
//
//   * Hosts alloc() data packets in try_send and ACKs in handle_data.
//   * Node::send_pfc alloc()s PFC pause/resume frames.
//   * Whoever removes a packet from the pipeline release()s it: the
//     receiving host after processing (Host::receive), Node::deliver for
//     PFC frames, Port::enqueue on a tail drop, and a shard-boundary
//     sender once ShardRouter::deposit has copied the bytes out (the
//     destination shard import_packet()s them into its own pool).
//
// Handles are generation-checked: release() bumps the slot's generation, so
// a stale PacketRef held past release (a use-after-free in disguise) fails
// the get() assert instead of silently reading a recycled packet.
//
// Aliasing window: the generation counter is 12 bits, so it wraps after
// exactly 4096 release/alloc cycles of one slot.  A stale handle hoarded
// across a full wrap becomes indistinguishable from the slot's current
// incarnation and the generation check silently passes (see
// PacketPool.GenerationWrapsAfter4096Cycles).  Nothing covers that window:
// catching it would need a wider generation or a per-handle shadow.  It is
// harmless in practice because no code stores a handle across events except
// inside the pipeline itself (port rings, burst chains, delivery closures),
// where a handle lives for one traversal — a few simulated microseconds —
// while a wrap needs 4096 reuses of the same slot.  A handle leaked out of
// the pipeline instead shows up as a nonzero live_count() at the end of a
// drained run.  Storage is chunked (fixed-size arrays, never reallocated),
// so Packet& references obtained from get() stay valid across alloc()
// growth — e.g. a host may hold the received data packet while allocating
// its ACK.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace fastcc::net {

/// 4-byte generation-checked handle into a PacketPool.  Layout: low 20 bits
/// slot index (1M concurrent packets, far above any buffer-bounded
/// simulation), high 12 bits generation.
struct PacketRef {
  static constexpr std::uint32_t kSlotBits = 20;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kGenMask = 0xfffu;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;

  std::uint32_t bits = kInvalid;

  static PacketRef make(std::uint32_t slot, std::uint32_t gen) {
    return PacketRef{(gen << kSlotBits) | slot};
  }
  std::uint32_t slot() const { return bits & kSlotMask; }
  std::uint32_t gen() const { return bits >> kSlotBits; }
  bool valid() const { return bits != kInvalid; }
  bool operator==(const PacketRef&) const = default;
};

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Debug-build teardown leak audit (opt-in): a pool destructed with live
  /// packets then fails an assert instead of silently dropping the leak.
  /// Off by default — drivers that stop() mid-flight legitimately destruct
  /// pools with packets still live; the space-parallel runner, which drains
  /// every shard before teardown, turns it on per shard.
  ~PacketPool() {
    assert((!audit_teardown_ || live_ == 0) &&
           "PacketPool destroyed with live packets (cross-shard leak?)");
  }
  void enable_teardown_leak_audit() { audit_teardown_ = true; }

  /// Takes a free slot (growing by one chunk when exhausted) and resets the
  /// packet's header fields.  The INT array is deliberately *not* cleared:
  /// records at index >= int_count are never read, so recycling skips the
  /// 256-byte wipe that dominated the old by-value packet path.
  PacketRef alloc() {
    if (free_.empty()) add_chunk();
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    Slot& s = slot_at(slot);
    s.pkt.reset_header();
    ++live_;
    if (live_ > peak_) peak_ = live_;
    return PacketRef::make(slot, s.gen);
  }

  /// Resolves a handle.  The reference stays valid until release(): chunked
  /// storage never moves slots, so nested alloc() calls cannot dangle it.
  Packet& get(PacketRef ref) {
    Slot& s = slot_at(ref.slot());
    assert(ref.valid() && s.gen == ref.gen() &&
           "stale PacketRef: packet was already released");
    return s.pkt;
  }
  const Packet& get(PacketRef ref) const {
    const Slot& s = slot_at(ref.slot());
    assert(ref.valid() && s.gen == ref.gen() &&
           "stale PacketRef: packet was already released");
    return s.pkt;
  }

  /// Returns the slot to the freelist and invalidates every outstanding
  /// handle to it by bumping the generation.
  void release(PacketRef ref) {
    Slot& s = slot_at(ref.slot());
    assert(ref.valid() && s.gen == ref.gen() &&
           "double release of a PacketRef");
    s.gen = (s.gen + 1) & PacketRef::kGenMask;
    free_.push_back(ref.slot());
    assert(live_ > 0);
    --live_;
  }

  /// Non-asserting staleness probe: true iff the handle names its slot's
  /// current incarnation.  Unlike get(), safe to call on a stale handle —
  /// used by tests and diagnostics.  Subject to the 12-bit generation
  /// aliasing window documented at the top of this file: a handle held
  /// across exactly 4096 release/alloc cycles of its slot reads as current
  /// again.
  bool is_current(PacketRef ref) const {
    if (!ref.valid() || ref.slot() >= capacity_) return false;
    return slot_at(ref.slot()).gen == ref.gen();
  }

  /// Re-materializes a packet that arrived from another shard's pool:
  /// allocates a fresh slot here and copies the header line and populated
  /// INT records in (copy_packet).  The new handle is this pool's own —
  /// generation checking starts over.
  PacketRef import_packet(const Packet& p) {
    const PacketRef ref = alloc();
    copy_packet(get(ref), p);
    return ref;
  }

  /// Hints a handle's packet header line into cache without resolving it —
  /// no generation check, no field access, safe on any handle.  The transmit
  /// and delivery loops issue it one packet ahead so the ~320-byte Packet is
  /// in flight while the current one is processed.
  void prefetch(PacketRef ref) const {
    const std::uint32_t slot = ref.slot();
    if (!ref.valid() || slot >= capacity_) return;
    __builtin_prefetch(&chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)]);
  }

  /// Packets currently allocated (leak check: a drained simulation must end
  /// at zero).
  std::uint32_t live_count() const { return live_; }
  /// High-water mark of concurrently live packets over the pool's lifetime
  /// (exact, unlike capacity() which rounds up to the chunk size) — the
  /// per-shard memory figure the space-parallel leak audit reports.
  std::uint32_t peak_count() const { return peak_; }
  /// Total slots ever created (high-water mark of concurrent packets,
  /// rounded up to the chunk size).
  std::uint32_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kChunkShift = 9;  // 512 packets per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  struct Slot {
    Packet pkt;
    std::uint32_t gen = 0;
  };

  Slot& slot_at(std::uint32_t slot) {
    assert(slot < capacity_ && "PacketRef slot out of range");
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t slot) const {
    assert(slot < capacity_ && "PacketRef slot out of range");
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  void add_chunk() {
    assert(capacity_ + kChunkSize <= (1u << PacketRef::kSlotBits) &&
           "PacketPool exhausted its 20-bit slot space");
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    // Push in reverse so allocation proceeds in ascending slot order.
    for (std::uint32_t i = kChunkSize; i-- > 0;) {
      free_.push_back(capacity_ + i);
    }
    capacity_ += kChunkSize;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t capacity_ = 0;
  std::uint32_t live_ = 0;
  std::uint32_t peak_ = 0;
  bool audit_teardown_ = false;
};

/// Index ring buffer of PacketRef handles — the Port egress queue.  Replaces
/// std::deque<Packet>: 4 bytes per queued packet instead of ~300, contiguous,
/// and allocation-free once grown to the high-water capacity.
class PacketRing {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(PacketRef ref) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = ref;
    ++size_;
  }

  /// Peeks the head handle.  The idiomatic use is `ref = front();
  /// pop_front();` — the caller assumes ownership of the returned handle and
  /// the ring forgets it.  A front() not paired with pop_front() duplicates
  /// ownership; the pool's generation asserts catch the second get() or
  /// release() of that handle.
  PacketRef front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<PacketRef> bigger(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<PacketRef> buf_;  // power-of-two capacity
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fastcc::net
