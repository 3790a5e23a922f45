// Google-benchmark microbenchmarks for the hot paths of the simulator and
// the measurement library: event scheduling/dispatch, Jain index, CDF
// sampling, percentile computation, fluid-model integration, and an
// end-to-end packets-per-second figure for the incast pipeline.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/fairness.h"
#include "core/fluid_model.h"
#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "experiments/protocols.h"
#include "experiments/sharded.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/calendar_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/timing_wheel.h"
#include "stats/percentile.h"
#include "topo/star.h"
#include "workload/distributions.h"

namespace {

using namespace fastcc;

void BM_CalendarQueueScheduleAndRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::CalendarQueue q;
    for (int i = 0; i < n; ++i) {
      q.schedule((i * 7919) % 100000, [] {});
    }
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CalendarQueueScheduleAndRun)->Arg(1024)->Arg(16384);

// Steady-state pattern closer to a running simulation: a rolling horizon of
// events, each pop scheduling a successor a short bounded time ahead.
void BM_CalendarQueueRollingHorizon(benchmark::State& state) {
  const int population = 4096;
  for (auto _ : state) {
    sim::CalendarQueue q;
    sim::Time now = 0;
    for (int i = 0; i < population; ++i) q.schedule(i % 500, [] {});
    for (int i = 0; i < 100'000; ++i) {
      now = q.pop_and_run();
      q.schedule(now + 80 + (i * 37) % 400, [] {});
    }
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_CalendarQueueRollingHorizon)->Unit(benchmark::kMillisecond);

// Rolling horizon with the simulator's *actual* hot closure shape: the
// packet lives in a pool slot and the callback carries only {pool pointer,
// 4-byte handle, context pointer}, exactly what Port::start_tx schedules.
// This is the workload the zero-copy pipeline targets: the event slot holds
// 24 bytes instead of a ~330-byte Packet with its INT stack.
void BM_CalendarQueueRollingHorizonPacket(benchmark::State& state) {
  const int population = 4096;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::CalendarQueue q;
    sim::Time now = 0;
    net::PacketPool pool;
    const net::PacketRef ref = pool.alloc();
    net::init_data(pool.get(ref), /*flow=*/1, /*src=*/0, /*dst=*/1,
                   /*seq=*/0, /*payload=*/1000, /*now=*/0);
    pool.get(ref).int_count = net::kMaxHops;  // full INT stack in the slot
    net::PacketPool* pp = &pool;
    std::uint64_t* out = &sink;
    auto hop = [pp, ref, out] {
      const net::Packet& p = pp->get(ref);
      *out += p.seq + p.wire_bytes;
    };
    static_assert(sizeof(hop) <= 24, "per-hop closure must be handle-sized");
    for (int i = 0; i < population; ++i) q.schedule(i % 500, hop);
    for (int i = 0; i < 100'000; ++i) {
      now = q.pop_and_run();
      pool.get(ref).seq += 1000;
      q.schedule(now + 80 + (i * 37) % 400, hop);
    }
    while (!q.empty()) q.pop_and_run();
    pool.release(ref);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_CalendarQueueRollingHorizonPacket)->Unit(benchmark::kMillisecond);

// A datacenter run's two populations (the stream of CalendarQueue's
// packed-day test): 4,000 flow starts queued up front a microsecond apart,
// which calibrate a microsecond-scale day, and a wave of 1,000 packet
// events in front of them, each re-arming 1-400 ns ahead, that would pack
// such a day with ~1,000 entries.  300 us of it, ~1.5 M pops.
void BM_CalendarQueueBimodal(benchmark::State& state) {
  std::int64_t pops = 0;
  for (auto _ : state) {
    sim::CalendarQueue q;
    bool wave = false;
    for (int i = 0; i < 4000; ++i) {
      q.schedule(i * sim::kMicrosecond, [&wave] { wave = false; });
    }
    for (int i = 0; i < 1000; ++i) q.schedule(i % 400, [&wave] { wave = true; });
    std::uint64_t k = 0;
    while (q.next_time() <= 300 * sim::kMicrosecond) {
      const sim::Time now = q.pop_and_run();
      ++pops;
      if (wave) {
        const sim::Time gap = 1 + static_cast<sim::Time>((k++ * 37) % 400);
        q.schedule(now + gap, [&wave] { wave = true; });
      }
    }
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_CalendarQueueBimodal)->Unit(benchmark::kMillisecond);

void BM_SimulatorSelfRescheduling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    int remaining = n;
    std::function<void()> tick = [&] {
      if (--remaining > 0) s.after(10, [&] { tick(); });
    };
    s.after(10, [&] { tick(); });
    s.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorSelfRescheduling)->Arg(10000);

void BM_JainIndex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> rates(n);
  for (double& r : rates) r = rng.uniform(0.0, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::jain_index(rates));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_JainIndex)->Arg(16)->Arg(1024);

void BM_CdfSample(benchmark::State& state) {
  sim::Rng rng(2);
  const workload::Cdf& cdf = workload::hadoop_cdf();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CdfSample);

void BM_Percentile(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(3);
  std::vector<double> values(n);
  for (double& v : values) v = rng.uniform(1.0, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::percentile(values, 99.9));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Percentile)->Arg(10000);

void BM_FluidModelRk4(benchmark::State& state) {
  core::FluidModelParams p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::integrate_rk4(sim::gbps(100), 100'000, 10.0, p));
  }
}
BENCHMARK(BM_FluidModelRk4);

/// End-to-end figure: full N-to-1 incast (HPCC VAI SF), reported as simulated
/// events per second through the entire packet pipeline.
void BM_IncastEndToEnd(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::IncastConfig config;
    config.variant = exp::Variant::kHpccVaiSf;
    config.pattern.senders = senders;
    config.pattern.flow_bytes = 100'000;
    config.star.host_count = senders + 1;
    const exp::IncastResult r = run_incast(config);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.completion_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_IncastEndToEnd)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

/// End-to-end figure over the multi-hop topology: Poisson CDF-driven traffic
/// on the scaled fat-tree (the Figure 10 shape at CI size), reported as
/// simulated events per second.  Exercises every layer the zero-copy
/// pipeline touches: pooled packets crossing 6 links, ECMP switch
/// forwarding, fused per-hop delivery events, PFC/INT bookkeeping, and the
/// ACK reverse path.
void BM_FatTreeEndToEnd(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::DatacenterConfig config;
    config.variant = exp::Variant::kHpccVaiSf;
    config.topo = topo::scaled_fat_tree();
    config.components = {{&workload::hadoop_cdf(), 1.0}};
    config.load = load;
    config.generate_duration = 200 * sim::kMicrosecond;
    const exp::DatacenterResult r = run_datacenter(config);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.flows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FatTreeEndToEnd)->Arg(50)->Unit(benchmark::kMillisecond);

/// Space-parallel execution of one simulation: the 8-pod / 64-host tree
/// sharded by pod, run under the conservative epoch loop with the given
/// worker count (Arg).  Arg(1) is the serial-coordinator baseline and
/// Arg(8) the full-width A/B — identical work by construction (results are
/// byte-identical across worker counts), so the ratio of the two rows is
/// pure parallel speedup, capped by the host's core count (8 workers
/// time-slice a 4-core host).  Neither row is the serial runner: DESIGN.md
/// §9.4 gives the speedup over serial and the 1-worker sharded / serial
/// tax, measured on perfbench's mix_rack4.
void BM_FatTreeFullScale(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::DatacenterConfig config;
    config.variant = exp::Variant::kHpccVaiSf;
    config.topo = topo::sharded_scaled_fat_tree();
    config.components = {{&workload::hadoop_cdf(), 1.0}};
    config.load = 0.5;
    config.generate_duration = 200 * sim::kMicrosecond;
    const exp::DatacenterResult r = run_datacenter_sharded(config, workers);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.flows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
// UseRealTime: with 8 workers the default CPU-time metric counts only the
// calling thread and would overstate throughput ~8x; wall clock is the
// honest figure for a parallel run.
BENCHMARK(BM_FatTreeFullScale)
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Rack-grain variant of the same run: 16 shards over the same 8-pod tree,
/// so the Arg(16) row exercises worker counts past the pod count and the
/// adaptive-horizon planner at twice the boundary surface.  A separate
/// benchmark (not more Args on BM_FatTreeFullScale), so the pod rows keep
/// their names and CI's paired gate keeps comparing them across revisions.
void BM_FatTreeFullScaleTor(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::DatacenterConfig config;
    config.variant = exp::Variant::kHpccVaiSf;
    config.topo = topo::sharded_scaled_fat_tree();
    config.components = {{&workload::hadoop_cdf(), 1.0}};
    config.load = 0.5;
    config.generate_duration = 200 * sim::kMicrosecond;
    config.shard_granularity = topo::ShardGranularity::kTor;
    const exp::DatacenterResult r = run_datacenter_sharded(config, workers);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.flows.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_FatTreeFullScaleTor)
    ->Arg(1)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The per-host timer subsystem in isolation: a pacing-style chain (arm,
/// fire, re-arm at a few-hundred-ns gap) running next to a far RTO that is
/// repeatedly cancelled and re-armed — the exact mix Host generates per
/// flow.  Items = timer firings.
void BM_TimingWheel(benchmark::State& state) {
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::TimingWheel wheel;
    std::uint64_t local = 0;
    constexpr sim::Time kGap = 300;
    constexpr int kFirings = 4096;
    std::function<void()> pace = [&] {
      ++local;
      if (local < kFirings) wheel.arm(wheel.now() + kGap, [&] { pace(); });
    };
    wheel.arm(kGap, [&] { pace(); });
    sim::TimerId rto = wheel.arm(1 * sim::kMillisecond, [] {});
    int since_rearm = 0;
    while (!wheel.empty()) {
      wheel.advance(wheel.next_deadline());
      // Re-arm the RTO every 16 pacing ticks, as ACK arrivals would.
      if (++since_rearm == 16 && local < kFirings) {
        since_rearm = 0;
        wheel.cancel(rto);
        rto = wheel.arm(wheel.now() + 1 * sim::kMillisecond, [] {});
      }
    }
    fired += local;
    benchmark::DoNotOptimize(wheel.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_TimingWheel)->Unit(benchmark::kMicrosecond);

/// A node's timers at datacenter counts: `flows` pacing chains, each
/// re-arming itself one gap ahead (80 ns per flow sharing the link, plus a
/// per-flow jitter so the chains interleave), and one 1 ms RTO per flow,
/// cancelled and re-armed on every 16th fire of its chain, as ACK arrivals
/// would.  perfbench's datacenter draws put 18-32 timers on the busiest
/// host; /128 is an incast receiver's fan-in.  Items = timer fires.
struct WheelFlowsLoad {
  sim::TimingWheel wheel;
  std::vector<sim::Time> gaps;
  std::vector<sim::TimerId> rtos;
  std::vector<int> since_rearm;
  std::uint64_t fires = 0;

  void pace(std::size_t flow) {
    ++fires;
    const sim::Time now = wheel.now();
    wheel.arm(now + gaps[flow], [this, flow] { pace(flow); });
    if (++since_rearm[flow] == 16) {
      since_rearm[flow] = 0;
      wheel.cancel(rtos[flow]);
      rtos[flow] = wheel.arm(now + 1 * sim::kMillisecond, [] {});
    }
  }
};

void BM_TimingWheelFlows(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kFires = 1 << 16;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    WheelFlowsLoad load;
    load.gaps.resize(flows);
    load.rtos.resize(flows);
    load.since_rearm.assign(flows, 0);
    for (std::size_t f = 0; f < flows; ++f) {
      load.gaps[f] = static_cast<sim::Time>(80 * flows + (f * 37) % 64);
      load.wheel.arm(load.gaps[f], [&load, f] { load.pace(f); });
      load.rtos[f] = load.wheel.arm(1 * sim::kMillisecond, [] {});
    }
    while (load.fires < kFires) load.wheel.advance(load.wheel.next_deadline());
    fired += load.fires;
    benchmark::DoNotOptimize(load.wheel.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_TimingWheelFlows)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

/// Large-fan-in stress: 256 senders through one bottleneck.  256 concurrent
/// flows put ~256 pacing timers plus RTOs on one receiver-side ACK path and
/// make the per-ACK flow lookup genuinely contended — the scale where the
/// timing wheel, NIC arbiter, and static CC dispatch must hold up, not just
/// the 8/16-sender shapes above.
void BM_Incast256(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::IncastConfig config;
    config.variant = exp::Variant::kHpccVaiSf;
    config.pattern.senders = 256;
    config.pattern.flow_bytes = 20'000;
    config.star.host_count = 257;
    const exp::IncastResult r = run_incast(config);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.completion_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_Incast256)->Unit(benchmark::kMillisecond);

/// The batched-ACK hot path in isolation: one host sources 64 concurrent
/// flows fanned out to 64 receivers over a star, so every returning ACK
/// stream converges on the single sender-side link and arrives as dense
/// multi-flow deliver_batch chains.  This is the worst case for the
/// per-batch flow dedup and the one-CC/arbiter-pass-per-flow coalescing.
/// Items = simulator events.
void BM_AckBatchDrain(benchmark::State& state) {
  constexpr int kFlows = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Network network(simulator);
    topo::StarParams params;
    params.host_count = kFlows + 1;
    topo::Star star = build_star(network, params);
    net::Host* src = star.hosts.front();
    exp::CcFactory factory(network, exp::Variant::kHpccVaiSf,
                           /*small_topology=*/true);
    int done = 0;
    src->set_completion_callback([&done](const net::FlowTx&) { ++done; });
    for (int i = 0; i < kFlows; ++i) {
      net::Host* dst = star.hosts[1 + i];
      const net::PathInfo& path = network.path(src->id(), dst->id());
      net::FlowTx flow;
      flow.spec.id = static_cast<net::FlowId>(i + 1);
      flow.spec.src = src->id();
      flow.spec.dst = dst->id();
      flow.spec.size_bytes = 100'000;
      flow.line_rate = src->port(0).bandwidth();
      flow.base_rtt = path.base_rtt;
      flow.path_hops = path.hops;
      flow.cc = factory.make(path);
      src->start_flow(std::move(flow));
    }
    simulator.run(50 * sim::kMillisecond);
    assert(done == kFlows);
    benchmark::DoNotOptimize(done);
    events += simulator.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_AckBatchDrain)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
