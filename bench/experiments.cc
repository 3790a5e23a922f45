// The experiment table: every figure of the paper's evaluation, plus the
// ablations and extensions, one row each (table() below): a runner (incast,
// datacenter or fluid), a base config, an axis of labelled points that each
// change one thing (cross() multiplies two axes), seeds and claims.  Runs fan
// out over exp::parallel_for_index and print in table order, one reporter
// per runner kind, so stdout depends only on the flags (kUsage; --full puts
// the datacenter rows on the paper's 320-host tree with 50 ms of arrivals).
// EXPERIMENTS.md ends with the default output.  A claim reads metric(base
// point) / metric(mechanism point) >= bound on every seed, judged only on
// serial runs at the row's default scale (no --full, --duration-us or
// --shards).  Exit status: 0 when every judged claim holds, 1 when one
// fails, 2 for a usage error.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cc/hpcc.h"
#include "cc/swift.h"
#include "core/fluid_model.h"
#include "experiments/datacenter.h"
#include "experiments/incast.h"
#include "experiments/parallel.h"
#include "experiments/sharded.h"
#include "stats/percentile.h"
#include "workload/distributions.h"

using namespace fastcc;

namespace {

constexpr const char* kUsage =
    "usage: experiments [--only ID[,ID...]] [--seeds N] [--full] "
    "[--duration-us N] [--shards N] [--granularity pod|tor] [--series]";

struct Options {
  std::vector<std::string> only;
  int seeds = 0;        ///< 0: each row's own seed count.
  int duration_us = 0;  ///< 0: the row's (or --full's) window.
  int shards = 0;       ///< 0: serial runs.
  bool full = false, tor = false, series = false;
};

enum class Runner { kIncast, kDatacenter, kFluid };

/// One run's config; the runner reads the half that matches its kind.
struct Setup { exp::IncastConfig incast; exp::DatacenterConfig dc; };
using Apply = std::function<void(Setup&)>;
struct Point { std::string label; Apply apply; };
using Axis = std::vector<Point>;
/// metric(point `base`) / metric(point `mech`) >= bound on every seed.
struct Claim { const char* base; const char* mech; double bound; };

struct Row {
  const char* id;
  Runner runner;
  const char* about;  ///< The figures it reproduces and its base config.
  Apply base = [](Setup&) {};
  Axis points;
  int seeds = 1;              ///< Seeds 1..seeds unless --seeds is given.
  bool detail = false;        ///< Per-flow or per-size tables, first seed.
  std::vector<int> per_seed;  ///< Columns printed per seed; claims read [0].
  std::vector<Claim> claims;
};

// Every run of a kind yields one value per column of its reporter.
struct Column { const char* name; const char* fmt; };
enum { kSettle90, kSpread = 2, kLongP999 = 7 };
const std::vector<Column> kIncastColumns = {
    {"settle90 µs", "%.1f"}, {"first reach µs", "%.1f"},
    {"spread µs", "%.1f"}, {"debt µs", "%.1f"}, {"mean Jain", "%.3f"},
    {"worst Jain", "%.3f"}, {"max queue KB", "%.1f"},
    {"steady queue KB", "%.1f"}, {"util", "%.3f"},
    {"last finish µs", "%.1f"}, {"drops", "%.0f"}, {"inversions", "%.0f"},
    {"pairs", "%.0f"}, {"probe p50 µs", "%.1f"}, {"probe p99 µs", "%.1f"},
    {"probe max µs", "%.1f"}};
const std::vector<Column> kDatacenterColumns = {
    {"flows", "%.0f"}, {"unfinished", "%.0f"}, {"drops", "%.0f"},
    {"events", "%.0f"}, {"p50", "%.2f"}, {"p99", "%.2f"},
    {"long flows", "%.0f"}, {"long p99.9", "%.2f"}};

double us(sim::Time t) { return t < 0 ? -1.0 : static_cast<double>(t) / 1e3; }

std::vector<double> incast_values(const exp::IncastResult& r) {
  // Figs 2, 3: start pairs where the later starter finishes first.
  int inversions = 0, pairs = 0;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    for (std::size_t j = i + 1; j < r.flows.size(); ++j) {
      if (r.flows[i].start == r.flows[j].start) continue;
      ++pairs;
      if (r.flows[j].finish < r.flows[i].finish) ++inversions;
    }
  }
  stats::PercentileEstimator probes;
  for (const auto& p : r.probes) probes.add(static_cast<double>(p.fct()));
  const bool none = probes.empty();  // NaN prints as "-"
  const core::ConvergenceSummary c = r.convergence(0.9);
  return {us(r.jain_settle_time(0.9)), us(c.first_reach_time),
          us(r.finish_spread()), c.unfairness_integral_ns / 1e3,
          c.mean_index, c.worst_index, r.queue_bytes.max_value() / 1e3,
          r.queue_bytes.mean_after(r.completion_time / 2) / 1e3,
          r.mean_utilization(), us(r.completion_time),
          static_cast<double>(r.drops), static_cast<double>(inversions),
          static_cast<double>(pairs), none ? NAN : probes.median() / 1e3,
          none ? NAN : probes.percentile(99.0) / 1e3,
          none ? NAN : probes.max() / 1e3};
}

std::vector<double> datacenter_values(const exp::DatacenterResult& r) {
  stats::PercentileEstimator all, long_flows;
  for (const stats::FlowRecord& f : r.flows) {
    all.add(f.slowdown());
    if (f.size_bytes > 1'000'000) long_flows.add(f.slowdown());
  }
  return {static_cast<double>(r.flows.size()),
          static_cast<double>(r.unfinished), static_cast<double>(r.drops),
          static_cast<double>(r.events_executed),
          all.empty() ? -1.0 : all.median(),
          all.empty() ? -1.0 : all.percentile(99.0),
          static_cast<double>(long_flows.count()),
          long_flows.empty() ? -1.0 : long_flows.p999()};
}

Axis variants(std::initializer_list<exp::Variant> vs) {
  Axis axis;
  for (const exp::Variant v : vs)
    axis.push_back({exp::variant_name(v),
                    [v](Setup& s) { s.incast.variant = s.dc.variant = v; }});
  return axis;
}

std::string cell(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, fmt, v);
  return std::isnan(v) ? "-" : buf;
}

/// One point per value, labelled cell(`fmt`, value).
Axis sweep(const char* fmt, std::initializer_list<double> values,
           void (*set)(Setup&, double)) {
  Axis axis;
  for (const double v : values)
    axis.push_back({cell(fmt, v), [set, v](Setup& s) { set(s, v); }});
  return axis;
}

/// Every point of `outer` followed by every point of `inner`, outer-major:
/// the CONFIG x TMS cross-product of a sweep script.
Axis cross(const Axis& outer, const Axis& inner) {
  Axis axis;
  for (const Point& o : outer)
    for (const Point& i : inner)
      axis.push_back({o.label + " " + i.label,
                      [a = o.apply, b = i.apply](Setup& s) { a(s), b(s); }});
  return axis;
}

void set_senders(Setup& s, double n) {
  s.incast.pattern.senders = static_cast<int>(n);
  s.incast.star.host_count = static_cast<int>(n) + 1;
}

/// Replaces the variant's VAI SF controller with one built by hand: `sf`
/// ACKs per decrease and, for HPCC, VAI dampener constant `c` (1e12 makes
/// the divisor ~1: damping off).  Swift keeps the paper's dampener, no FBS.
void custom_vai_sf(Setup& setup, int sf, double c) {
  if (exp::variant_is_hpcc(setup.incast.variant)) {
    setup.incast.custom_cc = [sf, c](const net::PathInfo& path) {
      cc::HpccParams p;
      p.sampling_freq = sf;
      p.vai = cc::hpcc_paper_vai(path.bottleneck *
                                 static_cast<double>(path.base_rtt));
      p.vai.dampener_constant = c;
      return cc::Hpcc(p);
    };
    return;
  }
  setup.incast.custom_cc = [sf](const net::PathInfo& path) {
    cc::SwiftParams p;
    p.sampling_freq = sf;
    p.always_ai = true;
    p.use_fbs = false;
    p.fs_max_cwnd = 50.0;
    const sim::Time target =
        p.base_target + cc::Swift::scaling_hops(path.hops) * p.per_hop_scaling;
    p.vai = cc::swift_paper_vai(target, path.base_rtt, path.base_rtt);
    return cc::Swift(p);
  };
}

Apply traffic(std::vector<workload::TrafficComponent> mix, double load,
              long long window_us) {
  return [mix, load, window_us](Setup& s) {
    s.dc.components = mix;
    s.dc.load = load;
    s.dc.generate_duration = window_us * sim::kMicrosecond;
  };
}

std::vector<Row> table() {
  using enum exp::Variant;
  using enum Runner;
  const Axis paper4 = variants({kHpcc, kHpccVaiSf, kSwift, kSwiftVaiSf});
  const std::vector<workload::TrafficComponent> hadoop = {
      {&workload::hadoop_cdf(), 1.0}};
  const Axis degrees = sweep("n=%.0f", {4, 8, 16, 32, 64, 96}, set_senders);
  const Axis sf = sweep("s=%.0f", {5, 15, 30, 60, 120}, [](Setup& s, double v) {
    custom_vai_sf(s, static_cast<int>(v), 8);
  });
  const Axis dampener = sweep("c=%g", {2, 8, 32, 1e12}, [](Setup& s, double c) {
    custom_vai_sf(s, 30, c);
  });
  const Axis ratios = sweep("%.0f:1", {1, 2, 4}, [](Setup& s, double r) {
    s.dc.topo = topo::with_oversubscription(s.dc.topo, r);
  });
  return {
      {.id = "incast16", .runner = kIncast,
       .about = "16-1 staggered incast, 1 MB flows, two starts every 20 µs",
       .points = variants({kHpcc, kHpcc1G, kHpccProb, kHpccVai, kHpccSf,
                           kHpccVaiSf, kSwift, kSwift1G, kSwiftProb,
                           kSwiftVai, kSwiftSf, kSwiftVaiSf, kDcqcn, kTimely,
                           kDctcp}),
       .detail = true},
      {.id = "incast96", .runner = kIncast, .about = "96-1 incast",
       .base = [](Setup& s) { set_senders(s, 96); },
       .points = variants({kHpcc, kHpcc1G, kHpccProb, kHpccVaiSf, kSwift,
                           kSwift1G, kSwiftProb, kSwiftVaiSf})},
      {.id = "fluid", .runner = kFluid,
       .about = "Fluid model: r = 30000 ns, MTU = 1000 B, s = 30, β = 0.5, "
                "initial rates 100 and 50 Gbps"},
      {.id = "hadoop", .runner = kDatacenter,
       .about = "Hadoop CDF at 50% load", .base = traffic(hadoop, 0.5, 2000),
       .points = paper4, .seeds = 8, .detail = true, .per_seed = {kLongP999},
       .claims = {{"HPCC", "HPCC VAI SF", 1.3},
                  {"Swift", "Swift VAI SF", 1.5}}},
      {.id = "websearch_storage", .runner = kDatacenter,
       .about = "WebSearch and storage CDFs, half the load each, 50% load",
       .base = traffic({{&workload::websearch_cdf(), 0.5},
                        {&workload::storage_cdf(), 0.5}}, 0.5, 2000),
       .points = paper4, .seeds = 8, .detail = true, .per_seed = {kLongP999},
       .claims = {{"HPCC", "HPCC VAI SF", 1.5},
                  {"Swift", "Swift VAI SF", 2.0}}},
      {.id = "incast_probes", .runner = kIncast,
       .about = "16-1 incast, 25 probes of 2 KB, one every 50 µs",
       .base = [](Setup& s) { s.incast.probe_count = 25; },
       .points = variants({kHpcc, kHpcc1G, kHpccVaiSf, kSwift, kSwift1G,
                           kSwiftVaiSf})},
      {.id = "incast_seeds", .runner = kIncast, .about = "16-1 incast",
       .points = variants({kHpcc, kHpccProb, kHpccVaiSf, kSwift, kSwiftProb,
                           kSwiftVaiSf}),
       .seeds = 8, .per_seed = {kSpread, kSettle90}},
      {.id = "incast_degree", .runner = kIncast, .about = "n-1 incast",
       .points = cross(degrees, paper4)},
      {.id = "sf_sweep", .runner = kIncast,
       .about = "16-1 incast, VAI SF decreasing once per s ACKs",
       .points = cross(variants({kHpccVaiSf, kSwiftVaiSf}), sf)},
      {.id = "dampener_sweep", .runner = kIncast,
       .about = "96-1 incast, HPCC VAI SF with VAI dampener constant c",
       .base = [](Setup& s) { set_senders(s, 96); },
       .points = cross(variants({kHpccVaiSf}), dampener)},
      {.id = "oversubscribed", .runner = kDatacenter,
       .about = "Hadoop CDF at 40% load", .base = traffic(hadoop, 0.4, 1000),
       .points = cross(ratios, variants({kHpcc, kHpccVaiSf}))},
      {.id = "swift_hai", .runner = kDatacenter,
       .about = "Hadoop CDF at 50% load", .base = traffic(hadoop, 0.5, 1500),
       .points = variants({kSwift, kSwiftHai, kSwiftVaiSf})},
  };
}

struct Run {
  const Row* row;
  const Point* point;
  std::uint64_t seed;
  std::vector<double> values;
  sim::Time window = 0;      ///< Datacenter arrival window.
  exp::IncastResult incast;  ///< Full results: first seed only.
  exp::DatacenterResult dc;
};

/// Runs the row's base config, then the scale flags, then the point.
void execute(Run& run, const Options& opt) {
  Setup s;
  run.row->base(s);
  if (opt.full) s.dc.topo = topo::full_scale_fat_tree();
  if (opt.full) s.dc.generate_duration = 50 * sim::kMillisecond;
  if (opt.duration_us) {
    s.dc.generate_duration = opt.duration_us * sim::kMicrosecond;
  }
  if (opt.tor) s.dc.shard_granularity = topo::ShardGranularity::kTor;
  run.point->apply(s);
  run.window = s.dc.generate_duration;
  s.incast.seed = s.dc.seed = run.seed;
  if (run.row->runner == Runner::kIncast) {
    run.incast = exp::run_incast(s.incast);
    run.values = incast_values(run.incast);
  } else {
    run.dc = opt.shards ? exp::run_datacenter_sharded(s.dc, opt.shards)
                        : exp::run_datacenter(s.dc);
    run.values = datacenter_values(run.dc);
  }
  if (run.seed > 1) run.incast = {}, run.dc = {};  // tables read seed 1
}

using Cells = std::vector<std::string>;

/// A markdown table: `head`, its rule, then line(i) for i < lines.
void print_table(const Cells& head, std::size_t lines,
                 const std::function<Cells(std::size_t)>& line) {
  for (std::size_t i = 0; i < lines + 2; ++i) {
    std::string text = i == 0 ? "\n|" : "|";
    for (const std::string& c :
         i == 0 ? head : i == 1 ? Cells(head.size(), "---") : line(i - 2))
      text += " " + c + " |";
    std::printf("%s\n", text.c_str());
  }
}

void report_fluid() {
  const core::FluidModelParams p;  // the paper's r, MTU, s and beta
  const double fast = sim::gbps(100), slow = sim::gbps(50), horizon = 300e3;
  const core::FluidRates rk4 = core::integrate_rk4(fast, horizon, 10.0, p);
  std::printf(
      ", 300 µs in 5 µs steps.\n\nConvergence condition 1/r < (C1+C0)/(s·MTU)"
      ": %s.  RK4 cross-check at 300 µs: SF %.4f Gbps (closed form %.4f), "
      "per-RTT %.4f Gbps (closed form %.4f).\n",
      core::sf_converges_faster(fast, slow, p) ? "holds" : "fails",
      sim::to_gbps(rk4.sf_rate),
      sim::to_gbps(core::sampling_frequency_rate(fast, horizon, p)),
      sim::to_gbps(rk4.rtt_rate),
      sim::to_gbps(core::per_rtt_rate(fast, horizon, p)));
  const auto series = fairness_difference_series(fast, slow, horizon, 5e3, p);
  const auto gbps = [](double v) { return cell("%.4f", sim::to_gbps(v)); };
  print_table({"t µs", "SF gap Gbps", "per-RTT gap Gbps", "difference Gbps"},
              series.size(), [&](std::size_t i) -> Cells {
                return {cell("%.1f", series[i].t_ns / 1e3),
                        gbps(series[i].sf_gap), gbps(series[i].rtt_gap),
                        gbps(series[i].difference)};
              });
}

/// One row's runs, point-major: at(p, k) is point p on seed k + 1.
struct RowRuns {
  const Row& row;
  const Run* runs;
  std::size_t seeds;
  std::size_t points() const { return row.points.size(); }
  const Run& at(std::size_t p, std::size_t k = 0) const {
    return runs[p * seeds + k];
  }
  const Run& at(const char* label, std::size_t k) const {
    std::size_t p = 0;
    while (row.points[p].label != label) ++p;
    return at(p, k);
  }
  /// A table with a column per point: `head` and lead(i) are the leading
  /// header and cells of line i, value(p, i) its cell for point p.
  void by_point(Cells head, std::size_t lines,
                const std::function<Cells(std::size_t)>& lead,
                const std::function<std::string(std::size_t, std::size_t)>&
                    value) const {
    for (const Point& p : row.points) head.push_back(p.label);
    print_table(head, lines, [&](std::size_t i) {
      Cells cells = lead(i);
      for (std::size_t p = 0; p < points(); ++p) cells.push_back(value(p, i));
      return cells;
    });
  }
};

/// Prints one row; false if a judged claim fails.
bool report(const RowRuns& r, const Options& opt) {
  const Row& row = r.row;
  std::printf("\n### %s\n\n%s", row.id, row.about);
  if (row.runner == Runner::kFluid) return report_fluid(), true;
  if (row.runner == Runner::kDatacenter) {
    std::printf("; %s fat-tree, arrivals over %.0f µs, %s",
                opt.full ? "full-scale (320-host)" : "scaled (32-host)",
                us(r.at(0).window),
                !opt.shards ? "serial"
                : opt.tor   ? "tor-sharded"
                            : "pod-sharded");
  }
  const std::size_t n = r.seeds;
  std::printf("; %s %zu.\n", n > 1 ? "seeds 1 to" : "seed", n);
  const bool incast = row.runner == Runner::kIncast;
  const auto& columns = incast ? kIncastColumns : kDatacenterColumns;
  Cells head = {"point"};
  for (const Column& c : columns) head.push_back(c.name);
  print_table(head, r.points(), [&](std::size_t p) {  // first seed
    Cells cells = {row.points[p].label};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      cells.push_back(cell(columns[c].fmt, r.at(p).values[c]));
    }
    return cells;
  });
  for (const int c : n > 1 ? row.per_seed : std::vector<int>{}) {
    std::printf("\n%s per seed:\n", columns[c].name);
    r.by_point(
        {"seed"}, n, [](std::size_t k) { return Cells{std::to_string(k + 1)}; },
        [&](std::size_t p, std::size_t k) {
          return cell(columns[c].fmt, r.at(p, k).values[c]);
        });
  }
  const bool judged = !opt.full && !opt.duration_us && !opt.shards;
  bool ok = true;
  for (const Claim& claim : row.claims) {
    const int c = row.per_seed[0];
    double lo = INFINITY, hi = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const double x =
          r.at(claim.base, k).values[c] / r.at(claim.mech, k).values[c];
      lo = std::min(lo, x), hi = std::max(hi, x);
    }
    ok = ok && (!judged || lo >= claim.bound);
    std::printf("\nClaim: %s of %s / %s of %s ≥ %.2f on every seed: "
                "%.2f–%.2fx over %s %zu, %s.\n",
                columns[c].name, claim.base, columns[c].name, claim.mech,
                claim.bound, lo, hi, n > 1 ? "seeds 1 to" : "seed", n,
                !judged ? "not judged at this scale"
                        : lo >= claim.bound ? "holds" : "FAILS");
  }
  const std::vector<exp::FlowTiming>& flows = r.at(0).incast.flows;
  if (incast && row.detail) {  // Figs 2, 3, 8, 9
    std::printf("\nFinish µs of each flow:\n");
    r.by_point(
        {"flow", "start µs"}, flows.size(),
        [&](std::size_t f) -> Cells {
          const double start = us(flows[f].start);
          return {std::to_string(flows[f].id), cell("%.1f", start)};
        },
        [&](std::size_t p, std::size_t f) {
          return cell("%.1f", us(r.at(p).incast.flows[f].finish));
        });
  }
  for (std::size_t p = 0; incast && opt.series && p < r.points(); ++p) {
    for (const bool jain : {true, false}) {  // Figs 1, 5, 6
      const auto& pts =
          (jain ? r.at(p).incast.jain : r.at(p).incast.queue_bytes).points();
      const std::string& label = row.points[p].label;
      print_table({"t µs", label + (jain ? " Jain" : " queue KB")}, pts.size(),
                  [&](std::size_t i) -> Cells {
                    const double v = pts[i].value / (jain ? 1.0 : 1e3);
                    return {cell("%.1f", us(pts[i].t)), cell("%.4f", v)};
                  });
    }
  }
  for (const double pct : {99.9, 50.0}) {  // Figs 10-13
    if (incast || !row.detail) break;
    std::vector<std::vector<stats::SlowdownRow>> t;
    for (std::size_t p = 0; p < r.points(); ++p) {
      t.push_back(stats::slowdown_by_size(r.at(p).dc.flows, 20, pct));
    }
    std::printf("\np%.1f slowdown by flow size, 20 equal-population groups:\n",
                pct);
    r.by_point(
        {"group max KB"}, t[0].size(),
        [&](std::size_t i) {
          return Cells{cell("%.1f", t[0][i].max_size_bytes / 1e3)};
        },
        [&](std::size_t p, std::size_t i) {
          return i < t[p].size() ? cell("%.2f", t[p][i].slowdown) : "";
        });
  }
  return ok;
}

/// Reads the flags into `opt`; false, with a message, for an unknown flag,
/// a malformed value or an unknown row id.
bool parse(int argc, char** argv, const std::vector<Row>& rows,
           Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    int* count = flag == "--seeds"         ? &opt.seeds
                 : flag == "--duration-us" ? &opt.duration_us
                 : flag == "--shards"      ? &opt.shards
                                           : nullptr;
    if (flag == "--full" || flag == "--series") {
      (flag == "--full" ? opt.full : opt.series) = true;
      continue;
    }
    if (!count && flag != "--only" && flag != "--granularity") {
      std::fprintf(stderr, "experiments: unknown flag %s\n", flag.c_str());
      return false;
    }
    const std::string value = i + 1 < argc ? argv[++i] : "";
    bool ok = value == "pod" || value == "tor";  // --granularity
    opt.tor = opt.tor || (flag == "--granularity" && value == "tor");
    if (count) {
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, *count);
      ok = ec == std::errc() && ptr == end && *count >= 1 &&
           *count <= (count == &opt.duration_us ? 1'000'000 : 1000);
    }
    for (std::size_t at = 0; flag == "--only" && at <= value.size();) {
      const std::size_t comma = std::min(value.find(',', at), value.size());
      const std::string id = value.substr(at, comma - at);
      ok = std::any_of(rows.begin(), rows.end(),
                       [&](const Row& row) { return id == row.id; });
      if (!ok) break;
      opt.only.push_back(id);
      at = comma + 1;
    }
    if (!ok) {
      std::fprintf(stderr, "experiments: bad value '%s' for %s\n",
                   value.c_str(), flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::vector<Row> rows = table();
  if (!parse(argc, argv, rows, opt)) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }
  std::vector<RowRuns> chosen;
  std::vector<Run> runs;
  for (const Row& row : rows) {
    if (opt.only.empty() || std::find(opt.only.begin(), opt.only.end(),
                                      row.id) != opt.only.end()) {
      const std::uint64_t seeds = opt.seeds > 0 ? opt.seeds : row.seeds;
      chosen.push_back({row, nullptr, seeds});
      for (const Point& p : row.points) {
        for (std::uint64_t k = 1; k <= seeds; ++k) {
          runs.push_back({&row, &p, k});
        }
      }
    }
  }
  // A sharded run brings its own workers, so those runs go one at a time.
  exp::parallel_for_index(runs.size(), opt.shards ? 1 : 0,
                          [&](std::size_t i) { execute(runs[i], opt); });
  bool ok = true;
  const Run* next = runs.data();
  for (RowRuns& r : chosen) {
    r.runs = next;
    next += r.points() * r.seeds;
    ok = report(r, opt) && ok;
  }
  return ok ? 0 : 1;
}
