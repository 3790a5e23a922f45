#include "net/node.h"

#include <cassert>
#include <utility>

#include "net/shard.h"
#include "net/switch_node.h"

namespace fastcc::net {

Node::Node(sim::Simulator& simulator, NodeId id, std::string name)
    : sim_(&simulator), id_(id), name_(std::move(name)) {}

int Node::add_port() {
  const int idx = static_cast<int>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*sim_, this, idx));
  ports_.back()->set_packet_pool(pool_);
  ingress_bytes_.push_back(0);
  ingress_paused_.push_back(false);
  return idx;
}

void Node::set_packet_pool(PacketPool* pool) {
  pool_ = pool;
  for (auto& p : ports_) p->set_packet_pool(pool);
}

void Node::rebind_shard(sim::Simulator& simulator, PacketPool* pool) {
  sim_ = &simulator;
  wheel_.rebind(simulator);
  set_packet_pool(pool);
  for (auto& p : ports_) p->rebind_simulator(simulator);
}

void Node::deliver(PacketRef ref, int in_port) {
  assert(in_port >= 0 && in_port < port_count());
  assert(pool_ != nullptr && "node has no packet pool bound");
  Packet& p = pool_->get(ref);
  // PFC control frames act directly on the reverse-direction transmitter and
  // never enter queues; their pool slot is recycled on the spot.
  if (p.type == PacketType::kPfcPause || p.type == PacketType::kPfcResume) {
    assert(p.pfc_port >= 0 && p.pfc_port < port_count());
    ports_[p.pfc_port]->set_paused(p.type == PacketType::kPfcPause);
    // PFC control frames bypass queues and are never ingress-accounted —
    // pfc_account() runs only on the data/ACK path below this branch — so
    // there is no accounting to discharge before recycling the slot.
    pool_->release(ref);
    return;
  }
  p.ingress_port = in_port;
  pfc_account(in_port, static_cast<std::int64_t>(p.wire_bytes));
  if (is_switch_) {
    static_cast<SwitchNode*>(this)->forward(ref, in_port);
  } else {
    receive(ref, in_port);
  }
}

void Node::deliver_batch(PacketRef first, int in_port) {
  while (first.valid()) {
    // Read the link *before* deliver(): the callee may forward or release
    // the packet, recycling the slot (and with it batch_next).
    Packet& p = pool_->get(first);
    const PacketRef next{p.batch_next};
    p.batch_next = PacketRef::kInvalid;
    // The chain's next packet is known now; fetch it under this delivery.
    if (next.valid()) pool_->prefetch(next);
    deliver(first, in_port);
    first = next;
  }
}

void Node::on_packet_departed(const Packet& p) {
  if (p.ingress_port >= 0) {
    pfc_account(p.ingress_port, -static_cast<std::int64_t>(p.wire_bytes));
  }
}

std::uint64_t Node::pfc_ingress_bytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t b : ingress_bytes_) total += b;
  return total;
}

void Node::pfc_account(int in_port, std::int64_t delta_bytes) {
  if (!pfc_.enabled()) return;
  auto& bytes = ingress_bytes_[in_port];
  assert(delta_bytes >= 0 ||
         bytes >= static_cast<std::uint64_t>(-delta_bytes));
  bytes = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(bytes) + delta_bytes);
  if (!ingress_paused_[in_port] && bytes > pfc_.pause_bytes) {
    ingress_paused_[in_port] = true;
    ++paused_ingress_count_;
    send_pfc(in_port, /*pause=*/true);
  } else if (ingress_paused_[in_port] && bytes <= pfc_.resume_bytes) {
    ingress_paused_[in_port] = false;
    --paused_ingress_count_;
    send_pfc(in_port, /*pause=*/false);
  }
}

void Node::send_pfc(int in_port, bool pause) {
  Port& reverse = *ports_[in_port];
  if (!reverse.connected()) return;
  // PFC frames are tiny and sent at highest priority; model them as arriving
  // after one propagation delay without consuming queue space.  The frame is
  // pool-allocated (chunked storage: any Packet& the caller holds across
  // this alloc stays valid) and released by the peer's deliver().
  const PacketRef ref = pool_->alloc();
  Packet& frame = pool_->get(ref);
  frame.type = pause ? PacketType::kPfcPause : PacketType::kPfcResume;
  frame.wire_bytes = 64;
  frame.pfc_port = reverse.peer_port();
  Node* peer = reverse.peer();
  const int arrival_port = reverse.peer_port();  // valid index on peer
  if (ShardRouter* router = reverse.shard_router()) {
    // The pause/resume frame crosses a shard boundary: like data in
    // Port::start_tx, its bytes are copied into the mailbox, the handle is
    // released, and the owner of the peer node re-materializes it.
    router->deposit(frame, sim_->now() + reverse.propagation_delay(),
                    peer->id(), arrival_port);
    pool_->release(ref);
    return;
  }
  auto arrive = [peer, ref, arrival_port] { peer->deliver(ref, arrival_port); };
  static_assert(
      sizeof(arrive) <= 24 && sim::UniqueFunction::fits_inline<decltype(arrive)>,
      "PFC delivery must stay a handle-sized inline closure");
  sim_->after(reverse.propagation_delay(), std::move(arrive));
}

}  // namespace fastcc::net
