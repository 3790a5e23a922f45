#include "net/switch_node.h"

#include <cassert>

namespace fastcc::net {

namespace {
// splitmix64: cheap, well-mixed 64-bit hash for ECMP selection.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

void SwitchNode::set_routes(NodeId dst, const std::vector<int>& ports) {
  if (route_ref_.size() <= dst) route_ref_.resize(dst + 1, 0);
  assert(ports.size() < 256 && "ECMP fan-out exceeds the flat table's count byte");
  assert(flat_ports_.size() + ports.size() < (1u << 24) &&
         "flat route storage exceeds the 24-bit offset");
  route_ref_[dst] = (static_cast<std::uint32_t>(ports.size()) << 24) |
                    static_cast<std::uint32_t>(flat_ports_.size());
  for (const int p : ports) flat_ports_.push_back(static_cast<std::int16_t>(p));
}

std::span<const std::int16_t> SwitchNode::routes(NodeId dst) const {
  if (dst >= route_ref_.size()) return {};
  const std::uint32_t ref = route_ref_[dst];
  return {flat_ports_.data() + (ref & 0xffffffu), ref >> 24};
}

int SwitchNode::select_port(NodeId dst, FlowId flow, NodeId src) const {
  assert(dst < route_ref_.size() && (route_ref_[dst] >> 24) != 0 &&
         "no route to destination");
  const std::uint32_t ref = route_ref_[dst];
  const std::uint32_t n = ref >> 24;
  const std::int16_t* candidates = flat_ports_.data() + (ref & 0xffffffu);
  if (n == 1) return candidates[0];
  const std::uint64_t key = (static_cast<std::uint64_t>(flow) << 32) ^
                            (static_cast<std::uint64_t>(src) << 16) ^ dst;
  // Salt with the switch id so consecutive tiers don't make correlated picks.
  const std::uint64_t h = mix64(key ^ (static_cast<std::uint64_t>(id()) << 48));
  // Lemire range reduction: (h * n) >> 64 maps the well-mixed hash onto
  // [0, n) without the per-packet 64-bit modulo.
  const auto pick =
      static_cast<std::size_t>((static_cast<unsigned __int128>(h) * n) >> 64);
  return candidates[pick];
}

void SwitchNode::forward(PacketRef ref, int in_port) {
  (void)in_port;
  const Packet& p = packet_pool()->get(ref);
  const int out = select_port(p.dst, p.flow, p.src);
  port(out).enqueue(ref);
}

void SwitchNode::receive(PacketRef ref, int in_port) {
  forward(ref, in_port);
}

}  // namespace fastcc::net
