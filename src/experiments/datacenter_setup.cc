#include "experiments/datacenter_setup.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace fastcc::exp {

namespace {

/// The fat-tree plus the variant's switch settings, applied before the CC
/// factory sees the network.
topo::FatTree build_configured_tree(net::Network& network,
                                    const DatacenterConfig& config) {
  check_datacenter_config(config);  // before the tree is built from it
  topo::FatTree tree = build_fat_tree(network, config.topo);
  configure_switches(network, config.variant);
  return tree;
}

[[noreturn]] void reject(net::FlowId id, const std::string& what) {
  throw std::invalid_argument("preset flow " + std::to_string(id) + ": " +
                              what);
}

template <typename T>
void require_positive(T value, const std::string& field) {
  if (!(value > 0)) {  // also refuses NaN
    throw std::invalid_argument(field + " is " + std::to_string(value) +
                                "; it must be positive");
  }
}

/// The runners index tree.hosts by src and dst and key paths and records
/// by flow id, so a flow they cannot run is refused before it is scheduled.
void check_preset_flows(const std::vector<net::FlowSpec>& specs,
                        std::size_t host_count) {
  std::vector<net::FlowId> ids;
  ids.reserve(specs.size());
  for (const net::FlowSpec& s : specs) {
    if (s.src >= host_count) {
      reject(s.id, "src " + std::to_string(s.src) + " is not below the " +
                       std::to_string(host_count) + " hosts of the tree");
    }
    if (s.dst >= host_count) {
      reject(s.id, "dst " + std::to_string(s.dst) + " is not below the " +
                       std::to_string(host_count) + " hosts of the tree");
    }
    if (s.dst == s.src) reject(s.id, "dst equals src");
    if (s.size_bytes == 0) reject(s.id, "size_bytes is 0");
    if (s.start_time < 0) reject(s.id, "start_time is negative");
    ids.push_back(s.id);
  }
  std::sort(ids.begin(), ids.end());
  const auto twin = std::adjacent_find(ids.begin(), ids.end());
  if (twin != ids.end()) reject(*twin, "id is used by two flows");
}

}  // namespace

void check_datacenter_config(const DatacenterConfig& config) {
  const topo::FatTreeParams& t = config.topo;
  require_positive(t.pods, "topo.pods");
  require_positive(t.tors_per_pod, "topo.tors_per_pod");
  require_positive(t.aggs_per_pod, "topo.aggs_per_pod");
  require_positive(t.hosts_per_tor, "topo.hosts_per_tor");
  require_positive(t.spine_group_size, "topo.spine_group_size");
  require_positive(t.host_bandwidth, "topo.host_bandwidth");
  require_positive(t.fabric_bandwidth, "topo.fabric_bandwidth");
  if (!config.preset_flows.empty()) return;  // the draw's fields go unused
  if (config.components.empty()) {
    throw std::invalid_argument("components is empty; the draw needs one");
  }
  for (std::size_t i = 0; i < config.components.size(); ++i) {
    const std::string field = "components[" + std::to_string(i) + "]";
    if (config.components[i].cdf == nullptr) {
      throw std::invalid_argument(field + ".cdf is null");
    }
    require_positive(config.components[i].load_fraction,
                     field + ".load_fraction");
  }
  if (!(config.load > 0 && config.load <= 1)) {
    throw std::invalid_argument("load is " + std::to_string(config.load) +
                                "; it must lie in (0, 1]");
  }
  if (config.generate_duration <= 0) {
    throw std::invalid_argument("generate_duration is " +
                                std::to_string(config.generate_duration) +
                                " ns; it must be positive");
  }
}

void check_incast_config(const IncastConfig& config) {
  require_positive(config.pattern.senders, "pattern.senders");
  require_positive(config.pattern.flow_bytes, "pattern.flow_bytes");
  require_positive(config.pattern.flows_per_wave, "pattern.flows_per_wave");
  if (config.star.host_count < config.pattern.senders + 1) {
    throw std::invalid_argument(
        "star.host_count is " + std::to_string(config.star.host_count) +
        "; it must be at least pattern.senders + 1 (" +
        std::to_string(config.pattern.senders + 1) + ")");
  }
  require_positive(config.star.host_bandwidth, "star.host_bandwidth");
  // The samplers re-arm one interval later: a zero interval never advances.
  require_positive(config.jain_sample_interval, "jain_sample_interval");
  require_positive(config.queue_sample_interval, "queue_sample_interval");
  const std::uint64_t packet = net::kDefaultMtu + net::kHeaderBytes;
  if (config.buffer_limit_bytes > 0 && config.buffer_limit_bytes < packet) {
    throw std::invalid_argument(
        "buffer_limit_bytes is " + std::to_string(config.buffer_limit_bytes) +
        "; it must be 0 (unlimited) or hold one " + std::to_string(packet) +
        " B packet");
  }
}

DatacenterSetup::DatacenterSetup(const DatacenterConfig& config,
                                 sim::Simulator& simulator)
    : network_(simulator, config.seed),
      tree_(build_configured_tree(network_, config)),
      factory_(network_, config.variant, /*small_topology=*/false) {
  if (!config.preset_flows.empty()) {
    check_preset_flows(config.preset_flows, tree_.hosts.size());
    specs_ = config.preset_flows;
    return;
  }
  workload::PoissonTrafficParams traffic;
  traffic.components = config.components;
  traffic.load = config.load;
  traffic.host_bandwidth = config.topo.host_bandwidth;
  traffic.host_count = static_cast<int>(tree_.hosts.size());
  traffic.duration = config.generate_duration;
  sim::Rng traffic_rng = network_.rng().fork();
  specs_ = workload::generate_poisson_traffic(traffic, traffic_rng);
}

void FlowStartCursor::add(sim::Time at, std::size_t index) {
  assert(starts_.size() < UINT32_MAX && index <= UINT32_MAX);
  starts_.push_back({at, static_cast<std::uint32_t>(starts_.size()),
                     static_cast<std::uint32_t>(index)});
}

void FlowStartCursor::arm() {
  const auto by_time_rank = [](const Start& a, const Start& b) {
    return a.at != b.at ? a.at < b.at : a.rank < b.rank;
  };
  // A Poisson draw arrives sorted already.
  if (!std::is_sorted(starts_.begin(), starts_.end(), by_time_rank)) {
    std::sort(starts_.begin(), starts_.end(), by_time_rank);
  }
  first_seq_ = simulator_->reserve_seq(starts_.size());
  if (!starts_.empty()) schedule_next();
}

void FlowStartCursor::schedule_next() {
  const Start& s = starts_[next_];
  auto fire_next = [this] { fire(); };
  static_assert(sim::UniqueFunction::fits_inline<decltype(fire_next)>,
                "a flow start must not allocate its closure");
  simulator_->at_reserved(s.at, first_seq_ + s.rank, std::move(fire_next));
}

void FlowStartCursor::fire() {
  const std::size_t index = starts_[next_].index;
  ++next_;
  if (next_ < starts_.size()) schedule_next();
  start_(index);
}

void DatacenterSetup::schedule_flows(
    std::span<const FlowHome> homes,
    const std::function<std::size_t(net::NodeId src)>& home_of) {
  assert(cursors_.empty() && "schedule_flows runs once");
  for (const FlowHome& home : homes) {
    cursors_.emplace_back(*home.simulator, [this, rng = home.rng](
                                               std::size_t i) {
      start_flow(i, rng);
    });
  }
  paths_.reserve(specs_.size());
  spec_of_id_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    net::FlowSpec& spec = specs_[i];
    // Remap generator host indices to topology node ids.
    spec.src = tree_.hosts[spec.src]->id();
    spec.dst = tree_.hosts[spec.dst]->id();
    paths_.push_back(network_.path(spec.src, spec.dst));
    spec_of_id_.emplace_back(spec.id, static_cast<std::uint32_t>(i));
    cursors_.at(home_of(spec.src)).add(spec.start_time, i);
  }
  std::sort(spec_of_id_.begin(), spec_of_id_.end());
  for (FlowStartCursor& cursor : cursors_) cursor.arm();
}

const net::PathInfo& DatacenterSetup::path_of_flow(net::FlowId id) const {
  const auto it = std::lower_bound(
      spec_of_id_.begin(), spec_of_id_.end(), id,
      [](const std::pair<net::FlowId, std::uint32_t>& e, net::FlowId key) {
        return e.first < key;
      });
  assert(it != spec_of_id_.end() && it->first == id && "unknown flow id");
  return paths_[it->second];
}

void DatacenterSetup::start_flow(std::size_t i, sim::Rng* rng) {
  const net::FlowSpec& spec = specs_[i];
  const net::PathInfo& path = paths_[i];
  // spec.src was remapped from a tree host, so the node is a Host.
  auto* src = static_cast<net::Host*>(network_.node(spec.src));
  net::FlowTx flow;
  flow.spec = spec;
  flow.line_rate = src->port(0).bandwidth();
  flow.base_rtt = path.base_rtt;
  flow.path_hops = path.hops;
  flow.cc = factory_.make(path, rng);
  src->start_flow(std::move(flow));
}

}  // namespace fastcc::exp
