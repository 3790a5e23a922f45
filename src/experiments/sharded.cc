#include "experiments/sharded.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "experiments/datacenter_setup.h"
#include "net/network.h"
#include "net/shard.h"
#include "sim/epoch.h"
#include "sim/simulator.h"

namespace fastcc::exp {

namespace {

/// Everything one shard accumulates during the run.  Written only by the
/// worker currently running the shard; read by the main thread after the
/// epoch loop finishes.
struct ShardState {
  stats::FctRecorder recorder;
  std::size_t completed = 0;
};

/// Mutable state the epoch loop threads across the barrier.  Every field is
/// written only inside the barrier step (plan_epoch below, the one function
/// handed it by non-const reference) and read by workers, through a const
/// reference, at the next epoch's start; the barrier's release ordering
/// makes each update visible.
struct EpochLoopState {
  explicit EpochLoopState(int shards)
      : horizon(static_cast<std::size_t>(shards), 0),
        work(static_cast<std::size_t>(shards), 0),
        earliest(static_cast<std::size_t>(shards), 0) {
    active.reserve(static_cast<std::size_t>(shards));
  }

  std::vector<sim::Time> horizon;   ///< Per shard.
  std::vector<int> active;          ///< Shards run this epoch.
  std::vector<sim::Time> work;      ///< Scratch: t[s].
  std::vector<sim::Time> earliest;  ///< Scratch: e[s].
  sim::Time front = 0;              ///< Min active horizon so far.
  std::uint64_t epochs = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t horizon_jumps = 0;
  bool drained = false;
};

/// Worker phase: advances shard `s` through the current epoch.  First it
/// re-materializes every packet published for it since it last ran and
/// schedules each delivery at its recorded arrival instant, straight from
/// the mailbox records in drain order (ascending src shard, deposit order
/// within each).  The event queue pops equal timestamps first in, first
/// out, so deliveries that tie on arrival run in (src shard, deposit order)
/// — a canonical order with no sort.  Then it runs the shard's private
/// simulator to its horizon.  Touches only shard s's state plus the
/// mailboxes' reader-owned column.  Skipped shards never reach here: their
/// clock lags until their next active epoch, which is harmless because a
/// skipped shard by definition had nothing to execute in between.
void advance_shard(sim::Simulator& sim, net::PacketPool& pool,
                   net::Network& network, net::ShardMailboxes& mailboxes,
                   const EpochLoopState& loop, int s,
                   const sim::WorkerPhase& phase) {
  mailboxes.drain_ready(s, phase, [&](const net::CrossShardPacket& rec) {
    net::Node* node = network.node(rec.dst_node);
    const net::PacketRef ref = pool.import_packet(rec.pkt);
    const int in_port = rec.dst_port;
    assert(rec.arrival >= sim.now() &&
           "cross-shard packet arrived inside a past epoch: lookahead does "
           "not bound this boundary link");
    auto arrive = [node, ref, in_port] { node->deliver(ref, in_port); };
    static_assert(
        sizeof(arrive) <= 24 && sim::UniqueFunction::fits_inline<decltype(arrive)>,
        "re-materialized delivery must stay a handle-sized inline closure");
    sim.at(rec.arrival, std::move(arrive));
  });
  sim.run(loop.horizon[static_cast<std::size_t>(s)] - 1);
}

/// Barrier step: runs single-threaded while every worker is parked (the
/// first call, before any worker exists, seeds the first epoch).  Publishes
/// the mailboxes, decides termination (full drain or the simulated-time
/// cap), and plans the next epoch — per-shard horizons from the path-closed
/// lookahead matrix plus the active set.  The only place EpochLoopState is
/// written.
///
/// The plan (DESIGN.md §9.5):
///   t[s]  earliest instant shard s could execute anything it already
///         knows about: its own queue front or a published inbound
///         transfer's arrival (the mailbox release horizon).
///   e[s]  earliest conceivable execution instant at s, folding in chains
///         started elsewhere: min over all x of t[x] + L(x, s).  Because L
///         is path-closed (triangle inequality), this single relaxation
///         pass is the fixpoint.
///   H[d]  the epoch horizon for d: min over s != d of e[s] + L(s, d) —
///         no influence the planner cannot already see can reach d before
///         H[d], so d may run to H[d] - 1 without synchronizing.
/// A shard with t[d] >= H[d] has nothing to do this epoch and is skipped
/// outright (active-set protocol); when every horizon clears an idle
/// stretch the front advances by many legacy quanta in one barrier step
/// (horizon jump) — the fixed-increment loop this replaces walked such
/// stretches one minimum-lookahead step at a time.
bool plan_epoch(std::vector<std::unique_ptr<sim::Simulator>>& sims,
                net::ShardMailboxes& mailboxes, const net::ShardLookahead& la,
                sim::Time max_sim_time, EpochLoopState& loop,
                const sim::BarrierPhase& phase) {
  const int shards = la.shards();
  mailboxes.publish(phase);

  sim::Time min_work = sim::kMaxTime;
  for (int s = 0; s < shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    auto& queue = sims[si]->queue();
    sim::Time t = queue.empty() ? sim::kMaxTime : queue.next_time();
    t = std::min(t, mailboxes.earliest_ready(s, phase));
    loop.work[si] = t;
    min_work = std::min(min_work, t);
  }
  if (min_work == sim::kMaxTime) {
    // Nothing pending anywhere — queues and mailboxes (pending side was
    // just published) are all empty, so no future epoch can create work.
    loop.drained = true;
    return false;
  }
  if (min_work >= max_sim_time) return false;  // Drain cap.

  for (int d = 0; d < shards; ++d) {
    sim::Time e = loop.work[static_cast<std::size_t>(d)];
    for (int s = 0; s < shards; ++s) {
      const sim::Time t = loop.work[static_cast<std::size_t>(s)];
      const sim::Time hop = la.between(s, d);
      if (t == sim::kMaxTime || hop == net::ShardLookahead::kUnreachable) {
        continue;
      }
      e = std::min(e, t + hop);
    }
    loop.earliest[static_cast<std::size_t>(d)] = e;
  }

  loop.active.clear();
  sim::Time front = sim::kMaxTime;
  for (int d = 0; d < shards; ++d) {
    sim::Time h = sim::kMaxTime;
    for (int s = 0; s < shards; ++s) {
      if (s == d) continue;
      const sim::Time e = loop.earliest[static_cast<std::size_t>(s)];
      const sim::Time hop = la.between(s, d);
      if (e == sim::kMaxTime || hop == net::ShardLookahead::kUnreachable) {
        continue;
      }
      h = std::min(h, e + hop);
    }
    if (h == sim::kMaxTime) {
      // No chain of links can ever deliver anything to d (single-shard
      // runs, or a region the remaining traffic cannot reach), so only the
      // simulated-time cap bounds it.
      h = max_sim_time;
    }
    loop.horizon[static_cast<std::size_t>(d)] = h;
    if (loop.work[static_cast<std::size_t>(d)] < h) {
      loop.active.push_back(d);
      front = std::min(front, h);
    } else {
      ++loop.epochs_skipped;
    }
  }
  assert(!loop.active.empty() &&
         "a shard owning min_work is always inside its own horizon");

  // A barrier step that moved the front further than the legacy fixed
  // quantum covered an idle stretch in one jump.
  if (loop.epochs > 0 && front > loop.front &&
      front - loop.front > la.min_window()) {
    ++loop.horizon_jumps;
  }
  loop.front = front;
  ++loop.epochs;
  return true;
}

}  // namespace

DatacenterResult run_datacenter_sharded(const DatacenterConfig& config,
                                        int workers,
                                        ShardedRunStats* stats_out) {
  check_datacenter_config(config);  // the topology sizes the shards
  const int shards =
      config.shard_granularity == topo::ShardGranularity::kTor
          ? config.topo.pods * config.topo.tors_per_pod
          : config.topo.pods;
  if (workers <= 0) workers = shards;

  // Private event queue and packet arena per shard.  unique_ptr because
  // neither type is movable; addresses must also stay stable — ports and
  // nodes hold raw pointers into these after rebinding.
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<std::unique_ptr<net::PacketPool>> pools;
  sims.reserve(static_cast<std::size_t>(shards));
  pools.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    sims.push_back(std::make_unique<sim::Simulator>());
    pools.push_back(std::make_unique<net::PacketPool>());
  }

  // Build the whole experiment against shard 0's simulator, then re-home
  // each node onto its owning shard below.  Building is serial either way;
  // only the run is parallel.  The set-up draws traffic from the network
  // stream exactly like run_datacenter, so a given seed produces the same
  // flow set in both entry points.
  DatacenterSetup setup(config, *sims[0]);
  net::Network& network = setup.network();
  const topo::FatTree& tree = setup.tree();
  const net::ShardMap smap = topo::shard_map_for(
      tree, config.topo, network.node_count(), config.shard_granularity);
  assert(smap.count == shards);

  // Per-shard random streams, forked in shard order (deterministic).  RED
  // marking at ports and probabilistic CC feedback draw from the owning
  // shard's stream, so no two workers ever touch one generator.
  std::vector<sim::Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shard_rngs.push_back(network.rng().fork());

  // Re-home every node (simulator, pool, timing wheel, port transmitters,
  // port rng) onto its shard.
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    const int s = smap.of(id);
    net::Node* n = network.node(id);
    n->rebind_shard(*sims[s], pools[s].get());
    for (int i = 0; i < n->port_count(); ++i) {
      n->port(i).set_rng(&shard_rngs[static_cast<std::size_t>(s)]);
    }
  }

  // Mark every egress port whose peer lives on another shard as a boundary:
  // its transmissions go through the shard's router into the mailboxes.
  // Each boundary link feeds the per-ordered-pair lookahead matrix: a
  // packet deposited by shard s at local time t cannot reach shard d
  // before t + L(s, d), where L starts as the minimum direct boundary-link
  // propagation delay and is then closed over paths (seal), so the bound
  // holds for multi-hop influence chains too.
  net::ShardMailboxes mailboxes(shards);
  std::vector<std::unique_ptr<net::ShardRouter>> routers;
  routers.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    routers.push_back(
        std::make_unique<net::ShardRouter>(&mailboxes, &smap, s));
  }
  net::ShardLookahead lookahead(shards);
  std::size_t boundary_ports = 0;
  for (net::NodeId id = 0; id < network.node_count(); ++id) {
    net::Node* n = network.node(id);
    const int s = smap.of(id);
    for (int i = 0; i < n->port_count(); ++i) {
      net::Port& port = n->port(i);
      if (!port.connected()) continue;
      const int d = smap.of(port.peer()->id());
      if (d == s) continue;
      port.set_shard_router(routers[static_cast<std::size_t>(s)].get());
      lookahead.observe_link(s, d, port.propagation_delay());
      ++boundary_ports;
    }
  }
  lookahead.seal();
  assert((boundary_ports > 0 || shards == 1) &&
         "sharding found no boundary link in a multi-shard tree");
  assert((shards == 1 || lookahead.min_window() > 0) &&
         "conservative sync needs nonzero boundary latency");

  // Completion callbacks write only the owning shard's state — no shared
  // counter, no stop(); termination is the drain check at the barrier.
  std::vector<ShardState> shard_state(static_cast<std::size_t>(shards));
  for (net::Host* h : tree.hosts) {
    ShardState* st = &shard_state[static_cast<std::size_t>(smap.of(h->id()))];
    h->set_completion_callback([st, &setup](const net::FlowTx& f) {
      st->recorder.record(f, setup.path_of_flow(f.spec.id));
      ++st->completed;
    });
  }

  // Path resolution all happens here on the calling thread; during the
  // epoch loop the set-up's path tables are read-only.  Each shard's
  // start cursor runs on whichever worker advances the shard.
  std::vector<DatacenterSetup::FlowHome> homes;
  homes.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    const auto si = static_cast<std::size_t>(s);
    homes.push_back({sims[si].get(), &shard_rngs[si]});
  }
  setup.schedule_flows(homes, [&smap](net::NodeId src) {
    return static_cast<std::size_t>(smap.of(src));
  });

  // ---- The epoch loop ----------------------------------------------------
  // Each epoch, shard s runs its queue through [its clock, horizon[s]).
  // Simulator::run(until) is inclusive of `until`, so an active shard runs
  // to horizon[s] - 1; a bounded run leaves the clock at the bound even
  // when the queue drained early.  Skipped shards are not touched at all —
  // their clock catches up the next time they are active.  The worker and
  // barrier bodies are the named functions above; the lambdas only bind
  // this run's state to them and pass on the executor's phase token.  The
  // executor's first barrier step seeds the first active set and horizons.
  EpochLoopState loop(shards);
  sim::EpochCoordinator::run_active(
      shards, workers, loop.active,
      [&](int s, const sim::WorkerPhase& phase) {
        const auto si = static_cast<std::size_t>(s);
        advance_shard(*sims[si], *pools[si], network, mailboxes, loop, s,
                      phase);
      },
      [&](const sim::BarrierPhase& phase) {
        return plan_epoch(sims, mailboxes, lookahead, config.max_sim_time,
                          loop, phase);
      });

  // ---- Merge -------------------------------------------------------------
  DatacenterResult result;
  std::size_t completed = 0;
  for (const ShardState& st : shard_state) {
    completed += st.completed;
    result.flows.insert(result.flows.end(), st.recorder.records().begin(),
                        st.recorder.records().end());
  }
  // Canonical order: flow id.  (Serial runs report completion order, which
  // has no cross-shard analogue.)
  std::sort(result.flows.begin(), result.flows.end(),
            [](const stats::FlowRecord& a, const stats::FlowRecord& b) {
              return a.id < b.id;
            });
  result.drops = network.total_drops();
  for (const auto& sim : sims) result.events_executed += sim->events_executed();
  // Shards stop at per-shard horizons (skipped shards' clocks lag), so the
  // furthest clock is the run's end time.
  for (const auto& sim : sims) result.end_time = std::max(result.end_time, sim->now());
  result.unfinished = setup.flow_count() - completed;

  if (stats_out != nullptr) {
    stats_out->shards = shards;
    stats_out->workers = std::clamp(workers, 1, shards);
    stats_out->lookahead_min = lookahead.min_window();
    stats_out->lookahead_max = lookahead.max_window();
    stats_out->epochs = loop.epochs;
    stats_out->epochs_skipped = loop.epochs_skipped;
    stats_out->horizon_jumps = loop.horizon_jumps;
    stats_out->cross_shard_transfers = mailboxes.total_transfers();
    stats_out->drained = loop.drained;
    stats_out->pool_peak.clear();
    stats_out->pool_live_at_end.clear();
    for (const auto& pool : pools) {
      stats_out->pool_peak.push_back(pool->peak_count());
      stats_out->pool_live_at_end.push_back(pool->live_count());
    }
    stats_out->pfc_ingress_bytes_at_end = 0;
    stats_out->paused_ports_at_end = 0;
    for (net::NodeId id = 0; id < network.node_count(); ++id) {
      const net::Node* n = network.node(id);
      stats_out->pfc_ingress_bytes_at_end += n->pfc_ingress_bytes();
      for (int i = 0; i < n->port_count(); ++i) {
        if (n->port(i).paused()) ++stats_out->paused_ports_at_end;
      }
    }
  }

  if (loop.drained) {
    // A drained run must leave zero live packets per shard: every packet
    // was either consumed locally or copied across a boundary and released
    // there.  Arm the destructor audit so a leak fails loudly.
    for (const auto& pool : pools) pool->enable_teardown_leak_audit();
  }
  return result;
}

}  // namespace fastcc::exp
