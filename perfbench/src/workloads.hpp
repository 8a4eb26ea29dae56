// The benchmark's workloads and the output checks they share.
//
// Every workload is one or more sweep grids driven through
// vcsteer::exec::run_sweep exactly as a figure bench drives them. Why each
// workload exists (README.md has the full table):
//
//   sim-ideal     the paper's own methodology: Fig 5 and Fig 7 smoke grids on
//                 the ideal fabric. The cycle loop dominates, so a
//                 simulator-core change shows here.
//   sim-fabric    4-cluster bus/ring/crossbar machines with one copy per link
//                 per cycle, topology-aware steering off and on: the same
//                 sim layer through link arbitration, the congestion EWMA and
//                 the copy network; traces are rebuilt per machine.
//   model-search  an autotune-style machine grid ranked by the analytical
//                 model with a top-K simulated frontier: the model walk
//                 dominates and the simulator barely runs.
//   warm-service  a grid whose results already sit in an on-disk cache and a
//                 private vcsteer-sweepd: only the exec cache, net and stats
//                 layers work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/sweep.hpp"

namespace perfbench {

/// One sweep grid of a workload. `name` is the ResultSink bench name the
/// grid's results are rendered under; for the two paper grids it matches
/// the golden fixtures (tests/golden/<name>.json), which anchors the digest.
struct NamedGrid {
  std::string name;
  vcsteer::exec::SweepGrid grid;
};

struct Workload {
  std::string name;
  std::vector<NamedGrid> grids;
  /// SweepOptions::prune_top_k (model-search only).
  std::size_t prune_top_k = 0;
  /// The timed sweep re-runs against a cache filled during set-up.
  bool warm = false;
};

const std::vector<std::string>& workload_names();
/// False for an unknown name.
bool make_workload(const std::string& name, Workload* out);

/// The Fig 5 / Fig 7 smoke grids, identical to the goldens' grids.
NamedGrid fig5_grid();
NamedGrid fig7_grid();

/// Paper Fig 5(c) / Fig 7(c) CPU2000 average slowdowns vs OP (%), in the
/// scheme order of the grids' non-OP columns.
extern const double kFig5cPaper[4];
extern const double kFig7cPaper[4];

/// Mean absolute error, in percentage points, between the CPU2000 AVG column
/// of the Fig 5(c)/7(c) table that fig5_twocluster/fig7_fourcluster print
/// for `sweep` (slowdown vs OP, rounded to the two decimals printed) and the
/// paper's averages. Scheme 0 of the grid must be OP.
double fig_c_mae_pp(const vcsteer::exec::SweepResult& sweep,
                    const double (&paper)[4]);

/// The ResultSink JSON document for `sweep` — the output every workload's
/// digest is taken over.
std::string render_results(const std::string& bench_name,
                           const vcsteer::exec::SweepResult& sweep);

/// FNV-1a 64-bit hash, as 16 hex digits.
std::string digest_hex(const std::string& bytes);

/// Work the grid's traces must show in every result: simulation points and
/// committed micro-ops per trace, from the traces themselves (built during
/// set-up through harness::TraceExperiment).
struct TraceWork {
  std::string trace;
  std::uint64_t points = 0;
  std::uint64_t uops = 0;
};

/// Checks one result slot: it names the right trace and scheme, comes from
/// the expected backend, covers the trace's full work and carries a finite
/// positive IPC. Returns an empty string when it passes, else the reason.
std::string check_point(const vcsteer::harness::RunResult& r,
                        const TraceWork& work, const std::string& scheme,
                        const std::string& source);

}  // namespace perfbench
