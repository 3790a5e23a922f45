// PacketPool: handle lifecycle, generation checking, chunked address
// stability, and the ring buffer that replaced std::deque<Packet> in Port.
#include "net/packet_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/packet.h"

namespace fastcc::net {
namespace {

TEST(PacketPool, AllocResetsHeaderAndTracksLiveCount) {
  PacketPool pool;
  EXPECT_EQ(pool.live_count(), 0u);
  const PacketRef ref = pool.alloc();
  EXPECT_EQ(pool.live_count(), 1u);
  Packet& p = pool.get(ref);
  EXPECT_EQ(p.type, PacketType::kData);
  EXPECT_EQ(p.int_count, 0);
  EXPECT_EQ(p.ingress_port, -1);
  EXPECT_EQ(p.wire_bytes, 0u);
  pool.release(ref);
  EXPECT_EQ(pool.live_count(), 0u);
}

// The run-time check that holds packet ownership: a handle used after
// release() or released twice dies on the pool's generation asserts (the
// Debug and sanitizer legs), instead of silently reading or recycling a
// slot that now belongs to another packet.  The threadsafe style re-executes
// the binary for each death, so the check also runs under TSan.
TEST(PacketPool, StaleHandleAndDoubleReleaseAssert) {
#ifdef NDEBUG
  GTEST_SKIP() << "the generation checks are asserts, compiled out by NDEBUG";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  PacketPool pool;
  const PacketRef ref = pool.alloc();
  pool.release(ref);
  EXPECT_DEATH(pool.get(ref), "stale PacketRef");
  EXPECT_DEATH(pool.release(ref), "double release");
#endif
}

TEST(PacketPool, RecycledSlotComesBackWithCleanHeader) {
  PacketPool pool;
  const PacketRef first = pool.alloc();
  Packet& p = pool.get(first);
  init_data(p, /*flow=*/7, /*src=*/1, /*dst=*/2, /*seq=*/5000, 1000, 42);
  p.ecn = true;
  p.int_count = 3;
  p.ingress_port = 5;
  pool.release(first);

  const PacketRef second = pool.alloc();
  // Freelist is LIFO: the same slot comes straight back...
  EXPECT_EQ(second.slot(), first.slot());
  // ...with a fresh generation and a reset header.
  EXPECT_NE(second.gen(), first.gen());
  const Packet& q = pool.get(second);
  EXPECT_FALSE(q.ecn);
  EXPECT_EQ(q.int_count, 0);
  EXPECT_EQ(q.ingress_port, -1);
  EXPECT_EQ(q.seq, 0u);
  pool.release(second);
}

TEST(PacketPool, GenerationDistinguishesStaleHandles) {
  PacketPool pool;
  const PacketRef ref = pool.alloc();
  pool.release(ref);
  const PacketRef fresh = pool.alloc();
  ASSERT_EQ(fresh.slot(), ref.slot());
  EXPECT_NE(fresh, ref);  // stale handle no longer names the slot
  pool.release(fresh);
}

TEST(PacketPool, ReferencesStayValidAcrossGrowth) {
  // Chunked storage: a Packet& must survive alloc() adding chunks — the
  // host holds the received data packet while allocating its ACK.
  PacketPool pool;
  const PacketRef anchor = pool.alloc();
  Packet& p = pool.get(anchor);
  p.seq = 0xdeadbeef;
  Packet* addr = &p;
  std::vector<PacketRef> refs;
  for (int i = 0; i < 5000; ++i) refs.push_back(pool.alloc());  // many chunks
  EXPECT_EQ(&pool.get(anchor), addr);
  EXPECT_EQ(pool.get(anchor).seq, 0xdeadbeefu);
  for (const PacketRef r : refs) pool.release(r);
  pool.release(anchor);
  EXPECT_EQ(pool.live_count(), 0u);
  EXPECT_GE(pool.capacity(), 5001u);
}

TEST(PacketPool, GenerationWrapsAfter4096Cycles) {
  // The generation field is 12 bits, so one slot's counter wraps after
  // exactly 2^12 = 4096 release/alloc cycles.  This test pins down both
  // sides of that boundary: a stale handle is caught for 4095 cycles, and
  // on the 4096th the wrap silently revalidates it — the aliasing window
  // documented in packet_pool.h.  If kGenMask ever changes, the constants
  // here fail loudly instead of the window shifting unnoticed.
  constexpr std::uint32_t kCycles = PacketRef::kGenMask + 1;
  static_assert(kCycles == 4096u, "12-bit generation field");

  PacketPool pool;
  const PacketRef hoarded = pool.alloc();  // slot S, generation 0
  const std::uint32_t slot = hoarded.slot();
  EXPECT_TRUE(pool.is_current(hoarded));
  pool.release(hoarded);  // cycle 1: generation 0 -> 1

  // The freelist is LIFO, so every cycle below reuses the same slot.
  EXPECT_FALSE(pool.is_current(hoarded));
  for (std::uint32_t cycle = 1; cycle < kCycles; ++cycle) {
    const PacketRef fresh = pool.alloc();
    ASSERT_EQ(fresh.slot(), slot);
    ASSERT_EQ(fresh.gen(), cycle & PacketRef::kGenMask);
    // Throughout the pre-wrap window the hoarded handle reads as stale:
    // get() on it would trip the generation assert.
    ASSERT_FALSE(pool.is_current(hoarded));
    ASSERT_NE(fresh, hoarded);
    pool.release(fresh);
  }

  // Cycle 4096: the counter wraps to 0 and the slot's current incarnation
  // once again matches the hoarded handle bit-for-bit.  This is the
  // aliasing window — the runtime check cannot distinguish the two.
  const PacketRef reincarnated = pool.alloc();
  ASSERT_EQ(reincarnated.slot(), slot);
  EXPECT_EQ(reincarnated.gen(), 0u);
  EXPECT_EQ(reincarnated, hoarded);
  EXPECT_TRUE(pool.is_current(hoarded));
  pool.release(reincarnated);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(PacketPool, IsCurrentRejectsInvalidAndOutOfRangeHandles) {
  PacketPool pool;
  EXPECT_FALSE(pool.is_current(PacketRef{}));  // kInvalid sentinel
  const PacketRef ref = pool.alloc();
  EXPECT_FALSE(pool.is_current(PacketRef::make(ref.slot() + 1000, 0)));
  pool.release(ref);
}

TEST(PacketPool, HandleIsFourBytes) {
  static_assert(sizeof(PacketRef) == 4,
                "PacketRef must stay a 4-byte handle; per-hop closures are "
                "sized around it");
}

TEST(PacketRing, FifoAcrossGrowthAndWraparound) {
  PacketRing ring;
  EXPECT_TRUE(ring.empty());
  PacketPool pool;
  // Interleave pushes and pops so head_ wraps while the ring grows.
  std::vector<PacketRef> expect;
  std::size_t next_pop = 0;
  for (int i = 0; i < 100; ++i) {
    const PacketRef r = pool.alloc();
    expect.push_back(r);
    ring.push_back(r);
    if (i % 3 == 2) {
      EXPECT_EQ(ring.front(), expect[next_pop]);
      ring.pop_front();
      ++next_pop;
    }
  }
  while (!ring.empty()) {
    EXPECT_EQ(ring.front(), expect[next_pop]);
    ring.pop_front();
    ++next_pop;
  }
  EXPECT_EQ(next_pop, expect.size());
}

TEST(PacketPool, LiveAndPeakCountsTrackAllocReleaseExactly) {
  PacketPool pool;
  EXPECT_EQ(pool.live_count(), 0u);
  EXPECT_EQ(pool.peak_count(), 0u);

  std::vector<PacketRef> refs;
  for (int i = 0; i < 5; ++i) refs.push_back(pool.alloc());
  EXPECT_EQ(pool.live_count(), 5u);
  EXPECT_EQ(pool.peak_count(), 5u);

  pool.release(refs.back());
  refs.pop_back();
  pool.release(refs.back());
  refs.pop_back();
  EXPECT_EQ(pool.live_count(), 3u);
  // Peak is a high-water mark: releases never lower it.
  EXPECT_EQ(pool.peak_count(), 5u);

  // Climbing back to 4 live stays under the old peak...
  refs.push_back(pool.alloc());
  EXPECT_EQ(pool.live_count(), 4u);
  EXPECT_EQ(pool.peak_count(), 5u);
  // ...and only exceeding it moves the mark.
  refs.push_back(pool.alloc());
  refs.push_back(pool.alloc());
  EXPECT_EQ(pool.live_count(), 6u);
  EXPECT_EQ(pool.peak_count(), 6u);

  for (const PacketRef r : refs) pool.release(r);
  EXPECT_EQ(pool.live_count(), 0u);
  EXPECT_EQ(pool.peak_count(), 6u);
}

/// Every field a reader of a packet can see: the header and the populated
/// INT prefix.
void expect_same_visible(const Packet& got, const Packet& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.int_count, want.int_count);
  EXPECT_EQ(got.ecn, want.ecn);
  EXPECT_EQ(got.cnp, want.cnp);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
  EXPECT_EQ(got.pfc_port, want.pfc_port);
  EXPECT_EQ(got.ingress_port, want.ingress_port);
  EXPECT_EQ(got.batch_next, want.batch_next);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.host_ts, want.host_ts);
  EXPECT_EQ(got.ack_ts, want.ack_ts);
  for (int i = 0; i < want.int_count; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.ints[i].timestamp, want.ints[i].timestamp);
    EXPECT_EQ(got.ints[i].tx_bytes, want.ints[i].tx_bytes);
    EXPECT_EQ(got.ints[i].qlen_bytes, want.ints[i].qlen_bytes);
    EXPECT_EQ(got.ints[i].bandwidth, want.ints[i].bandwidth);
  }
}

TEST(PacketPool, ImportPacketCarriesHeaderAndIntRecords) {
  PacketPool src_pool;
  PacketPool dst_pool;
  // The teardown audit is the sharded runner's leak tripwire; arming it
  // here asserts (in debug builds) that this test's bookkeeping is exact.
  src_pool.enable_teardown_leak_audit();
  dst_pool.enable_teardown_leak_audit();

  // A data packet three hops into its path, then its ACK echoing the stack.
  const PacketRef data = src_pool.alloc();
  Packet& d = src_pool.get(data);
  init_data(d, /*flow=*/7, /*src=*/3, /*dst=*/12, /*seq=*/4000,
            /*payload=*/1000, /*now=*/1500);
  d.ecn = true;
  d.ingress_port = 2;
  for (std::uint32_t hop = 0; hop < 3; ++hop) {
    IntRecord rec;
    rec.timestamp = 2000 + 100 * hop;
    rec.tx_bytes = 50000 + hop;
    rec.qlen_bytes = 3000 * hop;
    rec.bandwidth = 12.5 + hop;
    d.push_int(rec);
  }
  const PacketRef ack = src_pool.alloc();
  Packet& a = src_pool.get(ack);
  init_ack(a, d, /*now=*/2600);
  a.cnp = true;
  a.pfc_port = 1;

  // Leave a stale 8-hop packet in the destination's next free slot: an
  // import that dropped a populated INT record would read a stale one.
  const PacketRef stale = dst_pool.alloc();
  for (int hop = 0; hop < kMaxHops; ++hop) {
    dst_pool.get(stale).push_int(IntRecord{9, 9, 9, 9.0});
  }
  dst_pool.release(stale);

  // Cross both, releasing each source handle once its bytes are copied, as
  // a shard-boundary port does.
  for (const PacketRef ref : {data, ack}) {
    const Packet& crossing = src_pool.get(ref);
    const PacketRef imported = dst_pool.import_packet(crossing);
    expect_same_visible(dst_pool.get(imported), crossing);
    EXPECT_EQ(dst_pool.get(imported).int_count, 3);
    src_pool.release(ref);
    EXPECT_FALSE(src_pool.is_current(ref));
    dst_pool.release(imported);
  }
  EXPECT_EQ(src_pool.live_count(), 0u);
  EXPECT_EQ(dst_pool.live_count(), 0u);
}

}  // namespace
}  // namespace fastcc::net
