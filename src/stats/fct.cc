#include "stats/fct.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "stats/percentile.h"

namespace fastcc::stats {

sim::Time ideal_fct(const net::PathInfo& path, std::uint64_t size_bytes,
                    std::uint32_t mtu) {
  assert(path.bottleneck > 0.0 && size_bytes > 0);
  // Unloaded pipeline: all packets but the last stream through the
  // bottleneck while the *last* packet's store-and-forward traversal (plus
  // the final ACK's return) sets the tail.  base_rtt was computed with a
  // full-MTU packet at every hop, so swap in the true last-packet size —
  // a 1-byte tail serializes far faster than an MTU.
  const std::uint64_t full_packets = size_bytes / mtu;
  const std::uint64_t tail = size_bytes - full_packets * mtu;
  const std::uint64_t last_payload = tail > 0 ? tail : mtu;
  const std::uint64_t last_wire = last_payload + net::kHeaderBytes;
  const std::uint64_t packet_count = full_packets + (tail > 0 ? 1 : 0);
  const std::uint64_t total_wire =
      size_bytes + packet_count * net::kHeaderBytes;

  sim::Time t = path.base_rtt +
                sim::serialization_time(
                    static_cast<std::int64_t>(total_wire - last_wire),
                    path.bottleneck);
  const std::int64_t mtu_wire = mtu + net::kHeaderBytes;
  for (const sim::Rate bw : path.link_bandwidths) {
    t -= sim::serialization_time(mtu_wire, bw);
    t += sim::serialization_time(static_cast<std::int64_t>(last_wire), bw);
  }
  return t;
}

void FctRecorder::record(const net::FlowTx& flow, const net::PathInfo& path) {
  assert(flow.finished());
  FlowRecord r;
  r.id = flow.spec.id;
  r.size_bytes = flow.spec.size_bytes;
  r.start_time = flow.spec.start_time;
  r.fct = flow.finish_time - flow.spec.start_time;
  r.ideal_fct = ideal_fct(path, flow.spec.size_bytes, flow.mtu);
  records_.push_back(r);
}

std::vector<SlowdownRow> slowdown_by_size(std::vector<FlowRecord> records,
                                          int groups, double p) {
  assert(groups > 0);
  std::vector<SlowdownRow> rows;
  if (records.empty()) return rows;
  // Ties in size break by flow id, so the groups do not depend on the
  // order the runner returned the records in.
  std::sort(records.begin(), records.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return std::tie(a.size_bytes, a.id) <
                     std::tie(b.size_bytes, b.id);
            });
  const std::size_t n = records.size();
  const std::size_t per_group = std::max<std::size_t>(1, n / groups);
  for (std::size_t begin = 0; begin < n; begin += per_group) {
    const std::size_t end = std::min(begin + per_group, n);
    // Fold a tiny trailing remainder into the last full group.
    const bool last = end + per_group > n;
    const std::size_t actual_end = last ? n : end;
    PercentileEstimator est;
    SlowdownRow row;
    double size_sum = 0.0;
    for (std::size_t i = begin; i < actual_end; ++i) {
      est.add(records[i].slowdown());
      row.max_size_bytes = std::max(row.max_size_bytes, records[i].size_bytes);
      size_sum += static_cast<double>(records[i].size_bytes);
    }
    row.flow_count = actual_end - begin;
    row.mean_size_bytes = size_sum / static_cast<double>(row.flow_count);
    row.slowdown = est.percentile(p);
    rows.push_back(row);
    if (last) break;
  }
  return rows;
}

}  // namespace fastcc::stats
