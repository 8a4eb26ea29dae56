// Deterministic sharded execution of an experiment grid.
//
// A sweep is the cross product (traces x machines x schemes) every figure
// bench iterates. run_sweep() shards it into one job per (trace, machine)
// pair — the granularity at which TraceExperiment amortises the simulated
// core across schemes — and runs the jobs on a ThreadPool. The jobs of one
// trace share its harness::TraceArtefact (workload, simulation points,
// intervals, warm-state snapshots): the first job that needs it builds it,
// and the sweep drops it after the trace's last job. The artefact is
// immutable and every RNG a job touches is seeded from the profile itself,
// so results are bit-identical no matter how many workers run or in which
// order jobs finish: `--jobs 8` reproduces `--jobs 1` exactly. Results land
// in pre-sized slots indexed by grid position, never by completion order.
//
// With a ResultCache attached, each point is probed before simulating and
// stored after; a job whose points are all cached neither builds its trace
// nor constructs its TraceExperiment, which is what makes warm re-runs of
// a full figure sweep near-instant.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "exec/cache.hpp"
#include "harness/experiment.hpp"
#include "steer/policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::exec {

/// One scheme-axis entry: the evaluation API's shared request currency
/// (either a built-in SchemeSpec or a caller-constructed policy factory
/// labelled/cache-keyed by its custom tag). Historically a distinct struct
/// with exactly this shape; now the same type the Evaluator interface and
/// TraceExperiment::evaluate consume, so grids flow through unconverted.
using SweepScheme = harness::SchemeRequest;

struct SweepGrid {
  std::vector<workload::WorkloadProfile> profiles;
  std::vector<MachineConfig> machines;
  std::vector<SweepScheme> schemes;
  harness::SimBudget budget;
};

/// Source of sweep jobs for pull-mode scheduling. A job is the linear index
/// `trace * num_machines + machine` into the grid's (trace, machine) cells.
/// The sweep service's NetJobQueue leases jobs from vcsteer-sweepd so idle
/// workers steal work from slow ones instead of being pinned to a static
/// modulo shard; tests drive run_sweep with in-process queues.
class JobQueue {
 public:
  virtual ~JobQueue() = default;
  /// Blocks until a job is granted (true) or the sweep is drained — every
  /// job completed, possibly by other workers (false). Called concurrently
  /// from worker threads.
  virtual bool acquire(std::size_t* job) = 0;
  /// Marks `job` finished; its results are already in the result store.
  virtual void complete(std::size_t job) = 0;
};

struct SweepOptions {
  /// Worker threads; 1 runs every job inline on the calling thread.
  unsigned jobs = 1;
  /// Result-cache directory; empty disables caching. Ignored when `store`
  /// is set.
  std::string cache_dir;
  /// Result store override: probed before simulating and written after,
  /// exactly like cache_dir, but through any ResultStore (e.g. the sweep
  /// service's networked store). Not owned.
  ResultStore* store = nullptr;
  /// Pull-mode scheduling: when set, workers acquire() jobs from this queue
  /// until it drains instead of enumerating the static shard. Jobs executed
  /// here count into SweepResult::jobs_pulled; cells this worker never
  /// pulled stay default-initialised (count in `skipped`) and are assembled
  /// from the shared store afterwards. Requires shard_count == 1 (the queue
  /// replaces sharding). Not owned.
  JobQueue* queue = nullptr;
  /// Extra salt added to every profile's seed_salt (--seed): shifts the
  /// whole sweep to a different deterministic universe.
  std::uint64_t seed_salt = 0;
  /// Shard selection (--shard i/n): only jobs whose linear index in the
  /// expanded (trace, machine) job list satisfies `index % shard_count ==
  /// shard_index` run; the rest are skipped and their result slots stay
  /// default-initialised. Jobs are deterministic, so n processes with
  /// shards 0/n..n-1/n and a shared cache_dir partition a sweep exactly;
  /// a final unsharded run then assembles every point from the cache.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Called after each (trace, machine) job completes, from the worker
  /// thread (serialised by the runner). done/total count this shard's jobs.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Two-stage pruned search (--prune-model K; 0 = off). When set, every
  /// grid point is first scored by the analytical critical-path model
  /// (eval::ModelEvaluator; cached under the "model" key namespace), the
  /// (machine, scheme) configs are ranked by mean model IPC across traces,
  /// and only the top-K configs are simulated — through the exact same
  /// SimEvaluator path as an unpruned run, so the simulated frontier's
  /// results (and cache entries) are byte-identical with and without
  /// pruning. Non-frontier slots carry the model estimates, tagged
  /// source == "model". Incompatible with sharding and queue mode (the
  /// frontier needs the whole grid's estimates).
  std::size_t prune_top_k = 0;
};

/// Wall-clock seconds a sweep spent per phase, summed over all jobs (so on
/// a multi-worker run the spans can exceed the sweep's wall time). Surfaced
/// through exec::RunSummary / --summary-json so perf tooling can attribute
/// a regression to a phase instead of a single kuops/s scalar.
struct PhaseSeconds {
  double trace_build = 0;  ///< workload generation + PinPoints + replay.
  double annotate = 0;     ///< software passes (OB/RHOP/VC).
  double warmup = 0;       ///< functional cache warming.
  double simulate = 0;     ///< the cycle loops.
  double cache_io = 0;     ///< ResultCache lookups + stores.

  PhaseSeconds& operator+=(const PhaseSeconds& o) {
    trace_build += o.trace_build;
    annotate += o.annotate;
    warmup += o.warmup;
    simulate += o.simulate;
    cache_io += o.cache_io;
    return *this;
  }
};

class SweepResult {
 public:
  SweepResult(std::size_t traces, std::size_t machines, std::size_t schemes);

  const harness::RunResult& at(std::size_t trace, std::size_t machine,
                               std::size_t scheme) const;
  /// at(trace, 0, scheme) — the common single-machine grid.
  const harness::RunResult& at(std::size_t trace, std::size_t scheme) const {
    return at(trace, 0, scheme);
  }

  std::size_t num_traces() const { return traces_; }
  std::size_t num_machines() const { return machines_; }
  std::size_t num_schemes() const { return schemes_; }
  std::size_t num_points() const { return points_.size(); }
  const std::vector<harness::RunResult>& points() const { return points_; }

  /// Points actually simulated / served from the cache in this run.
  std::size_t simulated = 0;
  std::size_t cache_hits = 0;
  /// Points left untouched because their job belongs to another shard.
  std::size_t skipped = 0;
  /// Cache entries found truncated/garbled (e.g. a worker killed mid-run on
  /// a pre-fsync cache); each was deleted and the point re-simulated, so
  /// these also count in `simulated`.
  std::size_t cache_corrupt = 0;
  /// TraceExperiments actually constructed: (trace, machine) cells the
  /// simulator evaluated (jobs with at least one cache miss); 0 on a fully
  /// warm sweep.
  std::size_t experiments = 0;
  /// Traces (harness::TraceArtefact) built, by either stage: one per grid
  /// trace that any job needed, except in queue mode, where a trace whose
  /// leased jobs have all finished is rebuilt if another is leased later.
  std::size_t trace_builds = 0;
  /// Jobs this run acquired from SweepOptions::queue (0 in static-shard
  /// mode): the per-worker work-stealing tally surfaced in --summary-json.
  std::size_t jobs_pulled = 0;
  /// Two-stage pruned-mode accounting (SweepOptions::prune_top_k).
  struct ModelStats {
    bool enabled = false;       ///< prune_top_k > 0 on this run.
    std::size_t top_k = 0;      ///< requested frontier size (configs).
    std::size_t estimated = 0;  ///< grid points scored by the model.
    /// Of the estimated points not served from the cache: those whose
    /// critical-path walk ran, and those that reused an identical walk of
    /// another point (eval::ModelEvaluator's walk memo).
    std::size_t walked = 0;
    std::size_t walks_reused = 0;
    std::size_t pruned = 0;     ///< slots filled with model estimates only.
    /// Rank agreement between model and simulation over the simulated
    /// frontier configs: Spearman correlation of mean-IPC ranks
    /// (tie-averaged) and the overlap of the two top-3 config sets.
    double spearman = 0.0;
    std::size_t top3_overlap = 0;
  };
  ModelStats model;
  /// Per-phase wall-clock spans, summed over all jobs of this run.
  PhaseSeconds phases;
  /// Simulate span per scheme label, summed over all jobs (cache-served
  /// points contribute nothing — no cycle loop ran for them).
  std::map<std::string, double> scheme_simulate_s;

 private:
  friend SweepResult run_sweep(const SweepGrid&, const SweepOptions&);
  harness::RunResult& slot(std::size_t t, std::size_t m, std::size_t s);

  std::size_t traces_, machines_, schemes_;
  std::vector<harness::RunResult> points_;
};

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& opt);

/// Deterministic 64-bit identity of a sweep: the hash of every point's
/// canonical cache key (profiles already salted with `seed_salt`). Clients
/// leasing jobs from a vcsteer-sweepd use it as the sweep id, so two workers
/// only share a lease queue when they would produce byte-identical grids.
std::uint64_t grid_fingerprint(const SweepGrid& grid, std::uint64_t seed_salt);

}  // namespace vcsteer::exec
