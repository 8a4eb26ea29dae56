#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "exec/result_sink.hpp"
#include "stats/table.hpp"
#include "workload/profiles.hpp"

namespace perfbench {

using vcsteer::MachineConfig;
using vcsteer::Topology;
using vcsteer::harness::SchemeSpec;
using vcsteer::steer::Scheme;

const double kFig5cPaper[4] = {12.19, 6.50, 5.40, 2.62};
const double kFig7cPaper[4] = {12.45, 12.69, 12.96, 3.64};

namespace {

std::vector<vcsteer::workload::WorkloadProfile> smoke_traces(std::size_t n) {
  const auto all = vcsteer::workload::smoke_profiles();
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(n, all.size()))};
}

NamedGrid fabric_grid() {
  NamedGrid g;
  g.name = "sim_fabric";
  g.grid.profiles = smoke_traces(3);
  for (const bool aware : {false, true}) {
    for (const Topology kind :
         {Topology::kBus, Topology::kRing, Topology::kCrossbar}) {
      MachineConfig m = MachineConfig::four_cluster();
      m.interconnect.kind = kind;
      m.interconnect.copies_per_link_cycle = 1;
      m.steer.topology_aware = aware;
      g.grid.machines.push_back(m);
    }
  }
  g.grid.schemes = {
      SchemeSpec{Scheme::kOp, 0},
      SchemeSpec{Scheme::kParallelOp, 0},
      SchemeSpec{Scheme::kVc, 2},
      SchemeSpec{Scheme::kRhop, 0},
  };
  g.grid.budget = vcsteer::harness::SimBudget::smoke();
  return g;
}

// Autotune-style searches (bench/autotune_search.cpp), one per trace and
// cluster count, for the best machine for that program: topology x link
// latency/bandwidth, IQ size and issue width at their Table-2 values. The
// model scores every point, the simulator only the top-K. (Varying IQ size
// too made the frontier's make-up, and with it the sweep's peak memory,
// swing by a third from seed to seed.) Small searches keep each run_sweep
// call about a CPU second long, so the host-speed samples around it stay
// close together (host_speed.hpp).
NamedGrid search_grid(const vcsteer::workload::WorkloadProfile& profile,
                      std::uint32_t clusters) {
  NamedGrid g;
  g.name = "model_search_" + profile.name + "_" + std::to_string(clusters) + "c";
  g.grid.profiles = {profile};
  for (const Topology topo : {Topology::kIdeal, Topology::kBus, Topology::kRing,
                              Topology::kCrossbar}) {
    for (const auto& [latency, bandwidth] :
         {std::pair{1u, ~0u}, std::pair{2u, 1u}}) {
      MachineConfig m = clusters == 2 ? MachineConfig::two_cluster()
                                      : MachineConfig::four_cluster();
      m.interconnect.kind = topo;
      m.interconnect.link_latency = latency;
      m.interconnect.copies_per_link_cycle = bandwidth;
      g.grid.machines.push_back(m);
    }
  }
  g.grid.schemes = {
      SchemeSpec{Scheme::kOp, 0},         SchemeSpec{Scheme::kOb, 0},
      SchemeSpec{Scheme::kRhop, 0},       SchemeSpec{Scheme::kVc, 2},
      SchemeSpec{Scheme::kParallelOp, 0},
  };
  g.grid.budget = vcsteer::harness::SimBudget::smoke();
  return g;
}

std::vector<NamedGrid> search_grids() {
  std::vector<NamedGrid> grids;
  for (const auto& profile : smoke_traces(2)) {
    for (const std::uint32_t clusters : {2u, 4u}) {
      grids.push_back(search_grid(profile, clusters));
    }
  }
  return grids;
}

}  // namespace

NamedGrid fig5_grid() {
  NamedGrid g;
  g.name = "fig5_twocluster_smoke";
  g.grid.profiles = smoke_traces(~std::size_t{0});
  g.grid.machines = {MachineConfig::two_cluster()};
  g.grid.schemes = {
      SchemeSpec{Scheme::kOp, 0},   SchemeSpec{Scheme::kOneCluster, 0},
      SchemeSpec{Scheme::kOb, 0},   SchemeSpec{Scheme::kRhop, 0},
      SchemeSpec{Scheme::kVc, 2},
  };
  g.grid.budget = vcsteer::harness::SimBudget::smoke();
  return g;
}

NamedGrid fig7_grid() {
  NamedGrid g;
  g.name = "fig7_fourcluster_smoke";
  g.grid.profiles = smoke_traces(~std::size_t{0});
  g.grid.machines = {MachineConfig::four_cluster()};
  g.grid.schemes = {
      SchemeSpec{Scheme::kOp, 0},   SchemeSpec{Scheme::kOb, 0},
      SchemeSpec{Scheme::kRhop, 0}, SchemeSpec{Scheme::kVc, 4},
      SchemeSpec{Scheme::kVc, 2},
  };
  g.grid.budget = vcsteer::harness::SimBudget::smoke();
  return g;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim-ideal", "sim-fabric", "model-search", "warm-service"};
  return names;
}

bool make_workload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "sim-ideal") {
    w.grids = {fig5_grid(), fig7_grid()};
  } else if (name == "sim-fabric") {
    w.grids = {fabric_grid()};
  } else if (name == "model-search") {
    w.grids = search_grids();
    w.prune_top_k = 4;
  } else if (name == "warm-service") {
    w.grids = {fig5_grid(), fig7_grid()};
    w.warm = true;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

double fig_c_mae_pp(const vcsteer::exec::SweepResult& sweep,
                    const double (&paper)[4]) {
  double err = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<double> slow;
    for (std::size_t t = 0; t < sweep.num_traces(); ++t) {
      slow.push_back(vcsteer::stats::slowdown_pct(sweep.at(t, 0).ipc,
                                                  sweep.at(t, s + 1).ipc));
    }
    // The table prints the average with two decimals; use what it prints.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", vcsteer::stats::mean(slow));
    err += std::fabs(std::strtod(buf, nullptr) - paper[s]);
  }
  return err / 4.0;
}

std::string render_results(const std::string& bench_name,
                           const vcsteer::exec::SweepResult& sweep) {
  vcsteer::exec::ResultSink sink(bench_name);
  sink.add_sweep(sweep);
  std::ostringstream os;
  sink.write_json(os);
  return os.str();
}

std::string digest_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string check_point(const vcsteer::harness::RunResult& r,
                        const TraceWork& work, const std::string& scheme,
                        const std::string& source) {
  if (r.trace != work.trace) return "trace " + r.trace + " != " + work.trace;
  if (r.scheme != scheme) return "scheme " + r.scheme + " != " + scheme;
  if (r.source != source) return "source " + r.source + " != " + source;
  if (r.num_points != work.points) return "simulation point count differs";
  if (r.committed_uops != work.uops) return "committed uops differ";
  if (r.cycles == 0) return "zero cycles";
  if (!std::isfinite(r.ipc) || r.ipc <= 0.0) return "bad ipc";
  return {};
}

}  // namespace perfbench
