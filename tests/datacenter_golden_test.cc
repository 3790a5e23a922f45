// Runner goldens: pin the exact output of both datacenter runners on a
// small preset-flow fat-tree run, and of the incast runner on a star.  Each
// result is folded into one FNV-1a digest over every flow record field plus
// events_executed, end_time and drops (and, for incast, every point of the
// Jain, queue and utilization series); the expected digests are frozen
// constants, so any change to the set-up path, the epoch executor, the
// mailboxes or the incast samplers that moves a single event or sample
// shows up here.  A sharded digest must also be the same for 1 and 4
// workers (the worker count never changes a result).
//
// These tests run in the optimized tier-1 build and in the Debug/ASan
// build, so they also hold the run-level determinism rules: a wall-clock
// read, libc or ad-hoc randomness, or an assert whose argument changes
// state would move a digest in one build or the other.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "experiments/sharded.h"

namespace fastcc::exp {
namespace {

class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const DatacenterResult& r) {
  Fnv1a h;
  h.add(r.flows.size());
  for (const stats::FlowRecord& f : r.flows) {
    h.add(f.id);
    h.add(f.size_bytes);
    h.add(f.start_time);
    h.add(f.fct);
    h.add(f.ideal_fct);
  }
  h.add(r.events_executed);
  h.add(r.end_time);
  h.add(r.drops);
  return h.value();
}

// 16 racks of 4 hosts (host h sits in rack h / 4, pod h / 8).  The flows mix
// rack-local, pod-local and cross-pod pairs, an 8-to-1 incast onto host 20,
// and two late starts after an idle gap.
DatacenterConfig golden_config(Variant variant) {
  DatacenterConfig c;
  c.variant = variant;
  c.topo = topo::sharded_scaled_fat_tree();
  c.seed = 11;
  const sim::Time us = sim::kMicrosecond;
  c.preset_flows = {
      {1, 0, 1, 30'000, 0},           {2, 0, 9, 200'000, 0},
      {3, 5, 60, 1'000'000, 2 * us},  {4, 12, 20, 400'000, 5 * us},
      {5, 33, 20, 400'000, 5 * us},   {6, 47, 20, 400'000, 5 * us},
      {7, 58, 20, 400'000, 5 * us},   {8, 17, 20, 400'000, 5 * us},
      {9, 2, 20, 400'000, 5 * us},    {10, 28, 20, 400'000, 5 * us},
      {11, 52, 20, 400'000, 5 * us},  {12, 17, 3, 8'000, 10 * us},
      {13, 40, 41, 400'000, 20 * us}, {14, 63, 0, 60'000, 30 * us},
      {15, 26, 51, 250'000, 60 * us}, {16, 8, 15, 15'000, 300 * us},
      {17, 44, 2, 90'000, 310 * us},
  };
  return c;
}

struct Golden {
  Variant variant;
  std::uint64_t serial;
  std::uint64_t pod;
  std::uint64_t tor;
};

// Change these only with a change meant to alter results.  The two variants
// together cover RED/PFC set-up, probabilistic marking on the shard rng
// streams and the paper's HPCC VAI SF controller.
constexpr Golden kGolden[] = {
    {Variant::kHpccVaiSf, 11584500363717988966ull, 12025454452427429155ull,
     14139514946475083819ull},
    {Variant::kDcqcn, 2466109685029345930ull, 3811404219913766489ull,
     17114854428316847296ull},
};

std::uint64_t sharded_digest(DatacenterConfig c, topo::ShardGranularity grain,
                             int workers) {
  c.shard_granularity = grain;
  const DatacenterResult r = run_datacenter_sharded(c, workers);
  EXPECT_EQ(r.unfinished, 0u);
  return digest(r);
}

TEST(DatacenterGolden, RunnersMatchRecordedDigests) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(variant_name(g.variant));
    const DatacenterConfig c = golden_config(g.variant);
    const DatacenterResult serial = run_datacenter(c);
    EXPECT_EQ(serial.unfinished, 0u);
    EXPECT_EQ(serial.flows.size(), c.preset_flows.size());
    EXPECT_EQ(digest(serial), g.serial);
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(workers);
      EXPECT_EQ(sharded_digest(c, topo::ShardGranularity::kPod, workers), g.pod);
      EXPECT_EQ(sharded_digest(c, topo::ShardGranularity::kTor, workers), g.tor);
    }
  }
}

void add_series(Fnv1a& h, const stats::TimeSeries& s) {
  h.add(s.size());
  for (const stats::TimePoint& p : s.points()) {
    h.add(p.t);
    h.add(p.value);
  }
}

std::uint64_t digest(const IncastResult& r) {
  Fnv1a h;
  for (const std::vector<FlowTiming>* timings : {&r.flows, &r.probes}) {
    h.add(timings->size());
    for (const FlowTiming& f : *timings) {
      h.add(f.id);
      h.add(f.start);
      h.add(f.finish);
    }
  }
  add_series(h, r.jain);
  add_series(h, r.queue_bytes);
  add_series(h, r.utilization);
  h.add(r.drops);
  h.add(r.completion_time);
  h.add(r.events_executed);
  return h.value();
}

// The paper's 16-to-1 incast (Figs 5/6), once per in-tree engine.  DCQCN
// also runs small-flow probes: its RED marking draws from the network's rng
// stream, and the probes take the prober's flow-start path.
IncastConfig incast_golden_config(Variant variant) {
  IncastConfig c;
  c.variant = variant;
  if (variant == Variant::kDcqcn) c.probe_count = 4;
  return c;
}

struct IncastCase {
  Variant variant;
  std::uint64_t digest;
};

// Change these only with a change meant to alter results.
constexpr IncastCase kIncastGolden[] = {
    {Variant::kHpccVaiSf, 15926356823774156411ull},
    {Variant::kDcqcn, 11571887836085242100ull},
    {Variant::kSwiftVaiSf, 17057748056334833742ull},
    {Variant::kTimely, 7542425334394930341ull},
    {Variant::kDctcp, 11369365590446851649ull},
};

TEST(IncastGolden, RunnerMatchesRecordedDigests) {
  for (const IncastCase& g : kIncastGolden) {
    SCOPED_TRACE(variant_name(g.variant));
    const IncastConfig c = incast_golden_config(g.variant);
    const IncastResult r = run_incast(c);
    EXPECT_EQ(r.flows.size(), static_cast<std::size_t>(c.pattern.senders));
    EXPECT_EQ(r.probes.size(), static_cast<std::size_t>(c.probe_count));
    EXPECT_EQ(digest(r), g.digest);
    if (g.variant == Variant::kDcqcn) {
      // DCQCN's controller draws nothing, so its result depends on the seed
      // only through RED marking: a different seed must move the digest, or
      // this golden would not be holding the RED stream.
      IncastConfig reseeded = c;
      reseeded.seed += 1;
      EXPECT_NE(digest(run_incast(reseeded)), g.digest);
    }
  }
}

}  // namespace
}  // namespace fastcc::exp
