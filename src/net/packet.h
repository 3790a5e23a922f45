// Packet model for the fastcc network substrate.
//
// Data packets accumulate one In-band Network Telemetry (INT) record per
// traversed link; receivers echo the full record stack back on per-packet
// ACKs, which is exactly the information HPCC consumes.  RTT-based protocols
// (Swift) use the echoed host timestamp; ECN-based protocols (DCQCN) use the
// echoed congestion-experienced bit.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sim/time.h"

namespace fastcc::net {

using NodeId = std::uint32_t;
using FlowId = std::uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Maximum number of links a packet can traverse (fat-tree worst case is 6:
/// host->ToR->Agg->Spine->Agg->ToR->host).
inline constexpr int kMaxHops = 8;

/// Wire overhead added to every data payload (Ethernet + IP + transport).
inline constexpr std::uint32_t kHeaderBytes = 48;
/// On-wire size of an ACK / control packet.
inline constexpr std::uint32_t kAckBytes = 64;
/// Default maximum payload per packet (the paper's MTU).
inline constexpr std::uint32_t kDefaultMtu = 1000;

enum class PacketType : std::uint8_t {
  kData,
  kAck,
  kPfcPause,
  kPfcResume,
};

/// One INT record, stamped by the egress port of each traversed link.
struct IntRecord {
  sim::Time timestamp = 0;      ///< Time the packet began transmission.
  /// Cumulative bytes sent on the link.
  std::uint64_t tx_bytes = 0;
  /// Egress queue backlog left behind.
  std::uint32_t qlen_bytes = 0;
  sim::Rate bandwidth = 0.0;    ///< Link capacity, bytes/ns.
};

struct Packet {
  // Field order is a deliberate data layout (DESIGN.md §11): every field a
  // switch hop touches — type, addressing, sizes, PFC/ingress bookkeeping,
  // the batch chain link, and the INT cursor — packs into the first 64 bytes,
  // ahead of the 256-byte INT stack.  With per-hop fields trailing the array
  // instead, each hop of each packet dragged a second cache line through the
  // core for a one-byte cursor bump and a 4-byte ingress-port store.
  PacketType type = PacketType::kData;
  std::uint8_t int_count = 0;  ///< Populated prefix of `ints`.
  bool ecn = false;       ///< Congestion-experienced mark (set by RED).
  bool cnp = false;       ///< DCQCN congestion-notification flag on ACKs.
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t payload_bytes = 0;
  std::uint32_t wire_bytes = 0;

  /// PFC pause/resume: the port on the *receiving* node whose transmitter
  /// must pause (single priority class).
  std::int32_t pfc_port = -1;

  /// Ingress port at the node currently holding the packet (PFC accounting).
  std::int32_t ingress_port = -1;

  /// Intra-burst delivery chain: the PacketRef bits of the next packet in
  /// the same bulk-drain burst (Port chains back-to-back transmissions to a
  /// coalescing peer into one deliver_batch event).  0xffffffff (an invalid
  /// PacketRef) terminates the chain; the field lives here rather than in a
  /// side vector so batching allocates nothing in steady state.
  std::uint32_t batch_next = 0xffffffffu;

  /// First payload byte offset for data; cumulative-ack offset for ACKs.
  std::uint64_t seq = 0;

  sim::Time host_ts = 0;  ///< Sender timestamp; echoed on the ACK.
  sim::Time ack_ts = 0;   ///< Receiver timestamp when the ACK was generated
                          ///< (0 on data packets); enables one-way/remote
                          ///< delay decomposition at the sender.

  /// INT stack (data: accumulated per hop; ACK: echoed copy).
  std::array<IntRecord, kMaxHops> ints{};

  static_assert(sizeof(IntRecord) == 32, "IntRecord layout drifted");

  void push_int(const IntRecord& rec) {
    if (int_count < kMaxHops) ints[int_count++] = rec;
  }

  bool is_control() const { return type != PacketType::kData; }

  /// Resets every header field to its default without touching the INT
  /// array: records at index >= int_count are never read, so a recycled
  /// pool slot skips the 256-byte wipe.  PacketPool::alloc calls this.
  void reset_header() {
    type = PacketType::kData;
    flow = 0;
    src = kInvalidNode;
    dst = kInvalidNode;
    seq = 0;
    payload_bytes = 0;
    wire_bytes = 0;
    ecn = false;
    cnp = false;
    host_ts = 0;
    ack_ts = 0;
    int_count = 0;
    pfc_port = -1;
    ingress_port = -1;
    batch_next = 0xffffffffu;
  }
};

static_assert(offsetof(Packet, ints) == 64,
              "per-hop header must fill exactly one cache line ahead of the "
              "INT stack (see the field-order comment)");
// copy_packet below moves packets as raw bytes, and so does the cross-shard
// handoff (net/shard.h): a PacketRef names a slot in one shard's pool and
// means nothing in another's, so what crosses a boundary is the bytes.
static_assert(std::is_trivially_copyable_v<Packet>,
              "cross-shard packets travel as bytes, never as handles");

/// Copies everything a reader of `from` can see into `to`: the 64-byte
/// header line and the populated INT prefix.  Records at index >= int_count
/// are never read, so the rest of the 256-byte stack stays behind — a
/// boundary packet crossing shards moves one line plus its hops, not ~320
/// bytes.
inline void copy_packet(Packet& to, const Packet& from) {
  // Every field ahead of `ints` is the header line, so one prefix memcpy
  // picks up a field added there later.  The void* cast tells GCC's
  // class-memaccess check that leaving the stack's tail is intended.
  std::memcpy(static_cast<void*>(&to), &from, offsetof(Packet, ints));
  std::copy_n(from.ints.begin(), from.int_count, to.ints.begin());
}

/// Fills a freshly reset pool packet in place as a data packet for `flow`
/// covering [seq, seq+payload).  Zero-copy counterpart of make_data.
inline void init_data(Packet& p, FlowId flow, NodeId src, NodeId dst,
                      std::uint64_t seq, std::uint32_t payload, sim::Time now) {
  p.type = PacketType::kData;
  p.flow = flow;
  p.src = src;
  p.dst = dst;
  p.seq = seq;
  p.payload_bytes = payload;
  p.wire_bytes = payload + kHeaderBytes;
  p.host_ts = now;
}

/// Fills a freshly reset pool packet in place as the ACK for a received data
/// packet (reverse direction), stamped with the receiver's generation time
/// `now`.  Echoes only the populated INT records — the rest of the stack is
/// never read.  Zero-copy counterpart of make_ack.
inline void init_ack(Packet& a, const Packet& data, sim::Time now) {
  a.type = PacketType::kAck;
  a.flow = data.flow;
  a.src = data.dst;
  a.dst = data.src;
  a.seq = data.seq + data.payload_bytes;  // cumulative ack
  a.payload_bytes = 0;
  a.wire_bytes = kAckBytes;
  a.ecn = data.ecn;
  a.host_ts = data.host_ts;  // echo for RTT measurement
  a.ack_ts = now;
  for (std::uint8_t i = 0; i < data.int_count; ++i) a.ints[i] = data.ints[i];
  a.int_count = data.int_count;
}

/// Builds a data packet for `flow` covering [seq, seq+payload).  Convenience
/// for tests and standalone tools; the hot path uses init_data on a pool
/// slot instead.
inline Packet make_data(FlowId flow, NodeId src, NodeId dst, std::uint64_t seq,
                        std::uint32_t payload, sim::Time now) {
  Packet p;
  init_data(p, flow, src, dst, seq, payload, now);
  return p;
}

/// Builds the ACK for a received data packet (reverse direction), stamped
/// with the receiver's generation time `now`.  Convenience for tests; the
/// hot path uses init_ack on a pool slot instead.
inline Packet make_ack(const Packet& data, sim::Time now) {
  Packet a;
  init_ack(a, data, now);
  return a;
}

}  // namespace fastcc::net
