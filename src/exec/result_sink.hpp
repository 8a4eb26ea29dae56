// Aggregation of sweep results into tables and a JSON document.
//
// A bench pushes the raw SweepResult plus every derived stats::Table it
// prints; write_json() then emits one self-describing document
//   {"bench":..., "sweep":{"points":N}, "results":[{per-point record}...],
//    "tables":[{title,columns,rows}...]}
// so a single --json file carries both the full-precision raw points (for
// plotting/regression-diffing) and the rendered figure tables. The document
// is a pure function of the grid — cached, service-leased and plain runs
// all emit identical bytes. Execution metadata (simulated/cache-hit counts,
// wall time, service tallies) goes in the separate --summary-json document
// (RunSummary below) that CI gates assert on.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/sweep.hpp"
#include "harness/experiment.hpp"
#include "stats/table.hpp"

namespace vcsteer::exec {

/// Machine-readable outcome of one bench invocation, written as the
/// `--summary-json` file. CI gates assert on these fields instead of
/// grepping the human-oriented stderr text: `sweep.simulated == 0` *is*
/// "the assembly run was a pure cache read".
struct RunSummary {
  std::string bench;
  /// False when the run failed (the process also exits non-zero in that
  /// case, but the summary still explains why).
  bool ok = true;
  double wall_seconds = 0.0;
  /// Sweep counters, from SweepResult. `points` is the grid's size. Each
  /// point counts at most once in `cache_hits`: a plain run counts the
  /// simulation results its sweep read from the cache (a pruned run's
  /// cached model estimates are not hits; see SweepResult::cache_hits); a
  /// --connect/--serve run counts the store hits of the jobs it leased,
  /// plus the points of jobs it did not lease, which its assembly pass read
  /// from the store (its read-back of its own leased jobs is not a hit).
  /// `simulated` counts simulations run in this process, in either pass.
  std::size_t points = 0;
  std::size_t simulated = 0;
  std::size_t cache_hits = 0;
  std::size_t corrupt_recovered = 0;
  /// OB/RHOP/VC pass runs across all sweeps of this run
  /// (SweepResult::annotations).
  std::size_t annotations = 0;
  /// Of the `simulated` points, those served by an identical simulation
  /// (same trace and harness::SimKey) earlier in the same sweep instead of
  /// running their own cycle loops (SweepResult::sims_reused). A subset of
  /// `simulated`, so simulated + cache_hits + model.pruned == points still
  /// holds.
  std::size_t sims_reused = 0;
  /// Committed micro-ops summed over this run's available points (simulated
  /// or cache-served). On a cold single-process run this is the simulated
  /// uop volume.
  std::uint64_t uops = 0;
  /// Simulated cycles summed over this run's available points.
  std::uint64_t cycles = 0;
  /// TraceExperiments constructed across all sweeps of this run.
  std::size_t experiments = 0;
  /// Traces built across all sweeps of this run (SweepResult::trace_builds),
  /// and the traces of the grids they ran (SweepResult::num_traces, once
  /// per recorded sweep): equal on a cold sweep that builds each trace once.
  std::size_t trace_builds = 0;
  std::size_t traces = 0;
  /// Per-phase spans summed over all sweeps (see harness::PhaseTimes).
  harness::PhaseTimes phases;
  /// Per-scheme committed uops and simulate spans, for honest per-scheme
  /// throughput instead of one shared wall clock.
  struct SchemeSummary {
    std::uint64_t uops = 0;
    double simulate_s = 0.0;
  };
  std::map<std::string, SchemeSummary> schemes;
  /// Sweep-service involvement (`--connect` / `--serve`); disabled means
  /// the `net` JSON field is null.
  struct NetSummary {
    bool enabled = false;
    std::string server;  ///< the --connect/--serve address
    std::string role;    ///< "connect" or "serve"
    /// Jobs this process leased from the server's work-stealing queue.
    std::uint64_t jobs_pulled = 0;
    /// This process's wire traffic (StoreClient counters).
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t reconnects = 0;
    /// Per-client jobs-pulled tallies from the server (STATS) — every
    /// leasing worker of the sweep, not just this process.
    std::map<std::string, std::uint64_t> workers;
  };
  NetSummary net;
  /// Two-stage pruned-search accounting (`--prune-model K`); disabled means
  /// the `model` JSON field is null. Mirrors exec::SweepResult::ModelStats,
  /// summed over sweeps (spearman/top3 taken from the last pruned sweep).
  struct ModelSummary {
    bool enabled = false;
    std::size_t top_k = 0;
    std::size_t estimated = 0;
    std::size_t walked = 0;
    std::size_t walks_reused = 0;
    std::size_t pruned = 0;
    std::optional<double> spearman;  ///< null in JSON when undefined
    std::size_t top3_overlap = 0;
  };
  ModelSummary model;
  /// Parsed command-line options echoed back verbatim (name -> final value,
  /// emitted by the declarative option table in bench/bench_main.hpp) so a
  /// summary is self-describing about the invocation that produced it.
  std::vector<std::pair<std::string, std::string>> options;
};

/// One-line JSON document:
///   {"bench":...,"ok":...,"wall_seconds":...,
///    "sweep":{"points","simulated","cache_hits","corrupt_recovered","uops",
///             "annotations","sims_reused"},
///    "phases":{"trace_build_s","annotate_s","warmup_s","simulate_s",
///              "walk_s","cache_io_s"},
///    "schemes":{label:{"uops","simulate_s"}...},
///    "events":{"experiments","trace_builds","traces","cycles"},
///    "net":null | {"server","role","jobs_pulled","gets","puts","reconnects",
///                  "workers":{client-id:jobs-pulled...}},
///    "model":null | {"top_k","estimated","walked","walks_reused","pruned",
///                    "spearman" (number | null),"top3_overlap"},
///    "options":{flag:final-value...}}
void write_summary_json(std::ostream& os, const RunSummary& summary);

class ResultSink {
 public:
  explicit ResultSink(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Record every point of a complete `sweep` (not a queue-mode pull pass,
  /// whose unpulled slots are empty). Execution counters are NOT recorded:
  /// the JSON document stays a pure function of the grid (see write_json),
  /// and run metadata goes through RunSummary instead.
  void add_sweep(const SweepResult& sweep);
  void add_table(stats::Table table);

  const std::vector<harness::RunResult>& results() const { return results_; }

  /// Raw per-point table (trace, scheme, IPC, copies, stalls) — the generic
  /// rendering a bench gets for free before any figure-specific tables.
  stats::Table raw_table(std::string title) const;

  void write_json(std::ostream& os) const;

 private:
  std::string bench_name_;
  std::vector<harness::RunResult> results_;
  std::vector<stats::Table> tables_;
};

}  // namespace vcsteer::exec
