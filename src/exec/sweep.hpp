// Deterministic parallel execution of an experiment grid.
//
// A sweep is the cross product (traces x machines x schemes) every figure
// bench iterates. run_sweep() splits it into one job per (trace, machine)
// cell — the granularity at which TraceExperiment amortises the simulated
// core across schemes — and runs the jobs on a ThreadPool. A pruned sweep
// (SweepOptions::prune_top_k) runs two stages of such jobs, the model's and
// then the simulator's, and both go through one cell routine: probe the
// result store for each scheme, evaluate the misses in one call, store
// them. The jobs of one trace share its harness::TraceArtefact (workload,
// simulation points, intervals, warm-state snapshots, annotated programs
// per software-pass input, simulation results per harness::SimKey): the
// first job that needs it builds it, and the sweep drops it after the
// trace's last job. The artefact is immutable and every RNG a job touches
// is seeded from the profile itself, so results are bit-identical no
// matter how many workers run or in which order jobs finish: `--jobs 8`
// reproduces `--jobs 1` exactly. Results land in pre-sized slots indexed by
// grid position, never by completion order.
//
// With a ResultCache attached, a job whose points are all cached neither
// builds its trace nor evaluates anything, which is what makes warm
// re-runs of a full figure sweep near-instant.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "exec/cache.hpp"
#include "harness/experiment.hpp"
#include "steer/policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::exec {

struct SweepGrid {
  std::vector<workload::WorkloadProfile> profiles;
  std::vector<MachineConfig> machines;
  std::vector<harness::SchemeRequest> schemes;
  harness::SimBudget budget;
};

/// Source of sweep jobs for pull-mode scheduling. A job is the linear index
/// `trace * num_machines + machine` into the grid's (trace, machine) cells.
/// The sweep service's NetJobQueue leases jobs from vcsteer-sweepd so idle
/// workers steal work from slow ones; tests drive run_sweep with in-process
/// queues.
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
  /// until it drains instead of enumerating the whole grid. Jobs executed
  /// here count into SweepResult::jobs_pulled; cells this worker never
  /// pulled stay default-initialised and are assembled from the shared
  /// store afterwards. Not owned.
  JobQueue* queue = nullptr;
  /// Extra salt added to every profile's seed_salt (--seed): shifts the
  /// whole sweep to a different deterministic universe.
  std::uint64_t seed_salt = 0;
  /// Called after each (trace, machine) job completes, from the worker
  /// thread (serialised by the runner). done/total count this run's jobs
  /// (in queue mode, total is the whole grid's).
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// Two-stage pruned search (--prune-model K; 0 = off). When set, every
  /// grid point is first scored by the analytical critical-path model
  /// (eval::ModelEvaluator; cached under the "model" key namespace), the
  /// (machine, scheme) configs are ranked by mean model IPC across traces,
  /// and only the top-K configs are simulated — through the exact same
  /// cell routine as an unpruned run, so the simulated frontier's
  /// results (and cache entries) are byte-identical with and without
  /// pruning. Non-frontier slots carry the model estimates, tagged
  /// source == "model". Incompatible with queue mode (the frontier needs
  /// the whole grid's estimates).
  std::size_t prune_top_k = 0;
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

  /// Points simulated in this run, and points whose simulation result was
  /// served from the cache. Model estimates read from the cache count in
  /// neither (they show as model.estimated - model.walked -
  /// model.walks_reused), so simulated + cache_hits + model.pruned ==
  /// num_points() on every run that is not in queue mode.
  std::size_t simulated = 0;
  std::size_t cache_hits = 0;
  /// Of the simulated points, those served by an identical simulation
  /// earlier in this run: same trace and harness::SimKey as a point whose
  /// cycle loops ran (TraceArtefact::simulation). On a sweep that builds
  /// each trace once, simulated - sims_reused is the number of distinct
  /// (trace, sim key) pairs among the simulated points.
  std::size_t sims_reused = 0;
  /// Cache entries found truncated/garbled (e.g. a worker killed mid-run on
  /// a pre-fsync cache), in either namespace; each point was evaluated again
  /// and stored over the garbage, so a simulation entry also counts in
  /// `simulated` and a model entry in model.walked or model.walks_reused.
  std::size_t cache_corrupt = 0;
  /// TraceExperiments actually constructed: (trace, machine) cells the
  /// simulator evaluated (jobs with at least one cache miss); 0 on a fully
  /// warm sweep.
  std::size_t experiments = 0;
  /// Traces (harness::TraceArtefact) built, by either stage: one per grid
  /// trace that any job needed, except in queue mode, where a trace whose
  /// leased jobs have all finished is rebuilt if another is leased later.
  std::size_t trace_builds = 0;
  /// OB/RHOP/VC pass runs, by either stage. Each trace annotates each
  /// distinct pass input (harness::PassOptions) once, so on a sweep that
  /// builds each trace once this is the number of distinct (trace, pass
  /// input) pairs the evaluated points need, whatever the worker count.
  std::size_t annotations = 0;
  /// Jobs this run acquired from SweepOptions::queue (0 without a queue):
  /// the per-worker work-stealing tally surfaced in --summary-json.
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
    /// (tie-averaged; nullopt when undefined, see spearman_correlation) and
    /// the overlap of the two top-3 config sets.
    std::optional<double> spearman;
    std::size_t top3_overlap = 0;
  };
  ModelStats model;
  /// Per-phase wall-clock spans, summed over all jobs of this run.
  harness::PhaseTimes phases;
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

/// Spearman rank correlation of two paired samples, on tie-averaged ranks.
/// Undefined, and so nullopt, when there are fewer than two pairs or either
/// side is constant: a constant side has no ranking to agree with.
std::optional<double> spearman_correlation(const std::vector<double>& a,
                                           const std::vector<double>& b);

/// Deterministic 64-bit identity of a sweep: the hash of every point's
/// canonical cache key (profiles already salted with `seed_salt`). Clients
/// leasing jobs from a vcsteer-sweepd use it as the sweep id, so two workers
/// only share a lease queue when they would produce byte-identical grids.
std::uint64_t grid_fingerprint(const SweepGrid& grid, std::uint64_t seed_salt);

}  // namespace vcsteer::exec
