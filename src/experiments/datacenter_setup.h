// Set-up shared by the two datacenter runners, and the config checks of
// every runner (internal to experiments/).
//
// run_datacenter() and run_datacenter_sharded() build the same experiment:
// the fat-tree, the variant's RED/PFC settings, the congestion-control
// factory, the flow specs (preset or a Poisson draw), one path per spec,
// and one flow-start cursor per simulator (FlowStartCursor).
// DatacenterSetup does all of that in one fixed order, so a given config
// yields the same network, the same flow set and the same random-stream
// consumption in both runners.  The runners differ only in which simulator
// starts each flow and which Rng its controller draws from (FlowHome), and
// in how they run and collect.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace fastcc::exp {

/// Throws std::invalid_argument, naming the field, for a config the runners
/// cannot run (the cases are listed on DatacenterConfig).  DatacenterSetup's
/// constructor calls it first; run_datacenter_sharded calls it before
/// sizing its shards by the topology.
void check_datacenter_config(const DatacenterConfig& config);

/// Throws std::invalid_argument, naming the field, for an incast run_incast
/// cannot run: no sender, a 0-byte flow, no flow per wave, a star with
/// fewer than senders + 1 hosts, a link bandwidth or sample interval that
/// is not positive, or a buffer cap below one packet.  run_incast calls it
/// first.
void check_incast_config(const IncastConfig& config);

/// Starts one simulator's flows with a single pending event: the event
/// starts one flow and schedules the next, in (start time, rank) order,
/// where a flow's rank is the number of add() calls before its own.  The
/// start of rank r carries sequence number base + r from a block arm()
/// reserves, the number an event scheduled at add() would have drawn, so
/// the simulator pops every start exactly where it would pop had they all
/// been queued up front.  Each event is an 8-byte closure (inline, no
/// allocation) holding the cursor's address, so a cursor neither copies nor
/// moves.
class FlowStartCursor {
 public:
  /// `start(index)` starts the flow added under `index`, on the simulator's
  /// thread.
  FlowStartCursor(sim::Simulator& simulator,
                  std::function<void(std::size_t index)> start)
      : simulator_(&simulator), start_(std::move(start)) {}
  FlowStartCursor(const FlowStartCursor&) = delete;
  FlowStartCursor& operator=(const FlowStartCursor&) = delete;

  /// Adds the flow `index`, starting at `at`.
  void add(sim::Time at, std::size_t index);

  /// Reserves one sequence number per added flow and schedules the first
  /// start.  Call once, after the last add() and before the run.
  void arm();

 private:
  struct Start {
    sim::Time at;
    std::uint32_t rank;
    std::uint32_t index;
  };

  void schedule_next();
  void fire();

  sim::Simulator* simulator_;
  std::function<void(std::size_t)> start_;
  std::vector<Start> starts_;  ///< In (at, rank) order once armed.
  std::size_t next_ = 0;
  std::uint64_t first_seq_ = 0;
};

class DatacenterSetup {
 public:
  /// Builds the fat-tree on `simulator`, applies the variant's RED/PFC
  /// settings, creates the CC factory, and takes the flow specs from
  /// config.preset_flows or draws them from a fork of the network's Rng.
  /// Throws std::invalid_argument for a malformed config (see
  /// check_datacenter_config) and, naming the flow id and the field, for a
  /// preset flow with a src or dst outside the tree, dst == src, size 0, a
  /// negative start time, or an id another preset flow already uses.
  DatacenterSetup(const DatacenterConfig& config, sim::Simulator& simulator);
  DatacenterSetup(const DatacenterSetup&) = delete;
  DatacenterSetup& operator=(const DatacenterSetup&) = delete;

  net::Network& network() { return network_; }
  const topo::FatTree& tree() const { return tree_; }
  std::size_t flow_count() const { return specs_.size(); }

  /// Where a flow runs: the simulator that owns its source host and the Rng
  /// its controller draws from.
  struct FlowHome {
    sim::Simulator* simulator;
    sim::Rng* rng;
  };

  /// Remaps every spec's host indices to node ids, resolves its path, and
  /// hands it to the start cursor of homes[home_of(src)].  Each home with
  /// flows then holds exactly one pending event.  The events refer into
  /// this object, so it must outlive the run.  Call once.
  void schedule_flows(
      std::span<const FlowHome> homes,
      const std::function<std::size_t(net::NodeId src)>& home_of);

  /// The path flow `id` was scheduled on.  Read-only once schedule_flows()
  /// returns, so completion callbacks on any worker may call it.
  const net::PathInfo& path_of_flow(net::FlowId id) const;

 private:
  /// Starts specs_[i] on its source host, its controller drawing from `rng`.
  void start_flow(std::size_t i, sim::Rng* rng);

  net::Network network_;
  topo::FatTree tree_;
  CcFactory factory_;
  std::vector<net::FlowSpec> specs_;
  std::vector<net::PathInfo> paths_;  ///< paths_[i] is specs_[i]'s path.
  /// (flow id, spec index), sorted by id, for path_of_flow().
  std::vector<std::pair<net::FlowId, std::uint32_t>> spec_of_id_;
  std::deque<FlowStartCursor> cursors_;  ///< One per home.
};

}  // namespace fastcc::exp
