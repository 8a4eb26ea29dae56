// Experiment driver: the paper's methodology end to end.
//
// For one workload profile:
//   1. generate the synthetic program + memory streams (the "SPEC binary"),
//   2. select PinPoints simulation points with weights (paper §5.1),
//   3. for each steering configuration: run the software pass it needs,
//      instantiate its hardware policy, simulate every simulation point and
//      aggregate the PinPoints-weighted metrics.
// Steps 1 and 2, the interval replay and the functional cache warming are
// machine-independent: a TraceArtefact holds them, built once per (profile,
// budget) and shared by every machine of a sweep. A TraceExperiment is one
// (trace, machine) cell on top of it: the annotated program copy and the
// simulated core.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/observer.hpp"
#include "sim/stats.hpp"
#include "steer/policy.hpp"
#include "workload/generator.hpp"
#include "workload/pinpoints.hpp"

namespace vcsteer::mem {
class MemoryHierarchy;
}
namespace vcsteer::sim {
template <Observer Obs>
class ClusteredCoreT;
}

namespace vcsteer::harness {

/// Simulation sizing. Defaults keep a full 40-trace x 5-scheme figure sweep
/// in the tens of seconds; the methodology (intervals + k-means + weights)
/// is identical to the paper's 10M-uop PinPoints at larger sizes.
struct SimBudget {
  std::uint64_t total_uops = 600'000;    ///< trace prefix analysed by PinPoints.
  std::uint64_t interval_uops = 30'000;  ///< simulation-point size.
  std::uint32_t max_phases = 6;          ///< paper uses up to 10.

  static SimBudget smoke() { return {120'000, 20'000, 3}; }
};

/// One steering configuration of the paper's Table 3 (plus VC(v->n) forms).
struct SchemeSpec {
  steer::Scheme scheme = steer::Scheme::kOp;
  /// Virtual-cluster count for the VC scheme; 0 = same as cluster count.
  /// E.g. {kVc, 2} on a 4-cluster machine is the paper's VC(2->4).
  std::uint32_t num_vcs = 0;
  /// Override for VcOptions::min_leader_chain (0 = library default); used
  /// by the chain-granularity ablation.
  std::uint32_t vc_min_leader_chain = 0;

  std::string label(const MachineConfig& machine) const;
};

/// One entry of an evaluation request: a steering configuration. Either a
/// built-in SchemeSpec, or — when `make_policy` is set — a caller-constructed
/// hardware policy (no software pass), labelled and cache-keyed by
/// `custom_tag`, which must encode every parameter of the custom policy.
/// This is the shared request currency of the evaluation API: sweep grids
/// (exec::SweepScheme is an alias), eval::Evaluator requests and
/// TraceExperiment::evaluate all speak it.
struct SchemeRequest {
  SchemeSpec spec;
  std::string custom_tag;
  std::function<std::unique_ptr<steer::SteeringPolicy>(const MachineConfig&)>
      make_policy;

  SchemeRequest() = default;
  SchemeRequest(SchemeSpec s) : spec(s) {}  // NOLINT(google-explicit-constructor)
  SchemeRequest(std::string tag,
                std::function<std::unique_ptr<steer::SteeringPolicy>(
                    const MachineConfig&)> factory)
      : custom_tag(std::move(tag)), make_policy(std::move(factory)) {}

  bool is_custom() const { return static_cast<bool>(make_policy); }
  /// RunResult::scheme for this request: the custom tag, or the spec label.
  std::string label(const MachineConfig& machine) const {
    return is_custom() ? custom_tag : spec.label(machine);
  }
};

/// PinPoints-weighted result of one (trace, machine, scheme) evaluation.
struct RunResult {
  std::string trace;
  std::string scheme;
  /// Which evaluation backend produced this result: "sim" (cycle-accurate
  /// TraceExperiment — the default, and the only value the golden fixtures
  /// ever carry) or "model" (the src/model/ critical-path estimator).
  /// Serialised in the results JSON and the cache entry; part of the cache
  /// key namespace so model estimates can never alias simulation results.
  std::string source = "sim";
  double ipc = 0.0;
  double copies_per_kuop = 0.0;
  double alloc_stalls_per_kuop = 0.0;
  double policy_stalls_per_kuop = 0.0;
  double copy_hops_per_kuop = 0.0;        ///< interconnect links traversed.
  double link_contention_per_kuop = 0.0;  ///< cycles copies waited on links.
  /// Topology-aware decisions that dodged a farther/contended cluster
  /// (SimStats::avoided_contended_links); 0 with flat steering.
  double avoided_contended_per_kuop = 0.0;
  std::uint64_t committed_uops = 0;  ///< total over simulated intervals.
  std::uint64_t cycles = 0;          ///< total over simulated intervals.
  std::uint64_t num_points = 0;      ///< simulation points aggregated.
  sim::SimStats last_interval;       ///< stats of the final interval (diagnostics).

  // Observer-derived occupancy/steering provenance (StatsObserver sink).
  // Entries beyond num_clusters are zero; serialization trims to it.
  std::uint32_t num_clusters = 0;
  /// PinPoints-weighted mean issue-queue (INT+FP) / copy-queue occupancy
  /// per cluster, in entries (= weighted occupancy_sum / weighted cycles).
  std::array<double, sim::kMaxClusters> avg_iq_occupancy{};
  std::array<double, sim::kMaxClusters> avg_copyq_occupancy{};
  /// Per-cluster histogram of per-cycle IQ occupancy over all simulated
  /// intervals (raw cycle counts; sim::kOccupancyBuckets equal slices of
  /// the combined INT+FP capacity, last bucket includes exactly-full).
  std::array<std::array<std::uint64_t, sim::kOccupancyBuckets>,
             sim::kMaxClusters>
      iq_occupancy_hist{};
  /// Dispatches per destination cluster that generated at least one
  /// inter-cluster copy vs. none (steer-decision provenance).
  std::array<std::uint64_t, sim::kMaxClusters> steered_with_copy{};
  std::array<std::uint64_t, sim::kMaxClusters> steered_local{};
};

/// Wall-clock spans of an experiment's work, by phase. Accumulated per
/// TraceExperiment and summed across a sweep into exec::RunSummary — never
/// part of RunResult, which is cached and must stay host-independent.
struct PhaseTimes {
  double trace_build_s = 0;  ///< workload generation + PinPoints + replay.
  double annotate_s = 0;     ///< software passes (OB/RHOP/VC).
  double warmup_s = 0;       ///< functional cache warming.
  double simulate_s = 0;     ///< the cycle loops.

  PhaseTimes& operator+=(const PhaseTimes& o) {
    trace_build_s += o.trace_build_s;
    annotate_s += o.annotate_s;
    warmup_s += o.warmup_s;
    simulate_s += o.simulate_s;
    return *this;
  }
};

/// The machine-independent part of one trace, a function of (profile with
/// its seed salt, budget) alone: the unannotated workload, the PinPoints
/// simulation points, each point's materialised interval and the memory
/// addresses preceding it. Immutable once built, so one artefact is shared
/// by every TraceExperiment and evaluator of the trace, from any thread.
class TraceArtefact {
 public:
  TraceArtefact(const workload::WorkloadProfile& profile,
                const SimBudget& budget);
  ~TraceArtefact();

  const workload::GeneratedWorkload& workload() const { return wl_; }
  const std::vector<workload::SimPoint>& simpoints() const { return points_; }
  /// Materialised trace interval per simulation point, in point order.
  const std::vector<std::vector<workload::TraceEntry>>& intervals() const {
    return intervals_;
  }
  /// Memory-op addresses preceding each simulation point (functional cache
  /// warming), in point order. Consumed by the analytical model, which warms
  /// its functional caches exactly like the simulator does.
  const std::vector<std::vector<std::uint64_t>>& warm_addrs() const {
    return warm_addrs_;
  }
  /// Wall-clock seconds construction took (generation, PinPoints, replay).
  double build_s() const { return build_s_; }

  /// Per simulation point, a hierarchy functionally warmed over that
  /// point's warm_addrs(), with `machine`'s L1/L2 geometry. Built on the
  /// first call per geometry (concurrent callers wait for it) and kept for
  /// the artefact's lifetime; `warm_s` receives the seconds this call spent
  /// building (0 when the snapshots already existed).
  const std::vector<mem::MemoryHierarchy>& warm_snapshots(
      const MachineConfig& machine, double* warm_s) const;

 private:
  /// Size, associativity and line size of L1D, then of L2: everything
  /// functional warming reads (mem::MemoryHierarchy::warm_compatible).
  using Geometry = std::array<std::uint32_t, 6>;
  struct Snapshots {
    std::once_flag once;
    std::vector<mem::MemoryHierarchy> points;
  };

  workload::GeneratedWorkload wl_;
  std::vector<workload::SimPoint> points_;
  std::vector<std::vector<workload::TraceEntry>> intervals_;
  std::vector<std::vector<std::uint64_t>> warm_addrs_;
  double build_s_ = 0;
  mutable std::mutex snapshots_mutex_;  ///< guards the map, not the entries.
  mutable std::map<Geometry, std::unique_ptr<Snapshots>> snapshots_;
};

class TraceExperiment {
 public:
  /// One machine over a shared trace. Construction copies nothing: the
  /// program copy the software passes annotate and the core are made on
  /// the first evaluation.
  TraceExperiment(std::shared_ptr<const TraceArtefact> trace,
                  const MachineConfig& machine);
  /// Builds a private TraceArtefact first, billed to trace_build_s.
  TraceExperiment(const workload::WorkloadProfile& profile,
                  const MachineConfig& machine, const SimBudget& budget);
  ~TraceExperiment();

  /// THE evaluation entry point: every request — built-in scheme or custom
  /// policy — of one (trace, machine) cell in one call, each simulated on
  /// its own over every simulation point. Results come back in request
  /// order and do not depend on how requests are split across calls.
  std::vector<RunResult> evaluate(std::span<const SchemeRequest> requests);

  /// The unannotated workload (annotations go to this cell's own copy).
  const workload::GeneratedWorkload& workload() const {
    return trace_->workload();
  }
  const std::vector<workload::SimPoint>& simpoints() const {
    return trace_->simpoints();
  }
  const std::vector<std::vector<workload::TraceEntry>>& intervals() const {
    return trace_->intervals();
  }
  const std::vector<std::vector<std::uint64_t>>& warm_addrs() const {
    return trace_->warm_addrs();
  }
  const MachineConfig& machine() const { return machine_; }
  /// Wall-clock spans accumulated over this experiment's lifetime
  /// (construction + every run so far).
  const PhaseTimes& phases() const { return phases_; }
  /// Simulate span per scheme label (each run's own cycle-loop span). Lets
  /// callers derive honest per-scheme throughput instead of dividing one
  /// shared wall clock evenly.
  const std::map<std::string, double>& scheme_simulate_s() const {
    return scheme_simulate_s_;
  }

 private:
  /// Weighted simulation of all points under an already-annotated program.
  RunResult run_annotated(steer::SteeringPolicy& policy, std::string label);
  /// The two request shapes behind evaluate(): a built-in scheme (software
  /// pass + its hardware policy) and a custom policy.
  RunResult eval_spec(const SchemeSpec& spec);
  RunResult eval_custom(steer::SteeringPolicy& policy,
                        const std::string& label);
  /// program_, copied from the trace on first use.
  prog::Program& program();

  std::shared_ptr<const TraceArtefact> trace_;
  MachineConfig machine_;
  PhaseTimes phases_;
  std::map<std::string, double> scheme_simulate_s_;
  /// This cell's copy of the program, annotated per request.
  std::optional<prog::Program> program_;
  /// One core over *program_ whose pools, value table and cache arrays
  /// persist across every run of this experiment, reset in place instead
  /// of reconstructed. Built on the first run, so cache-served experiments
  /// never allocate it.
  std::unique_ptr<sim::ClusteredCoreT<sim::StatsObserver>> core_;
  /// The trace's warm-state snapshots for this machine's cache geometry,
  /// fetched on the first run: every run adopts its point's snapshot
  /// instead of replaying the addresses.
  const std::vector<mem::MemoryHierarchy>* warmed_ = nullptr;
};

/// Per-pair compile-time communication-cost matrix for `n` placement
/// targets (virtual clusters or physical clusters) on `machine`'s fabric,
/// row-major n^2: cost(i, j) = fixed + per_hop * hops for i != j, 0 on the
/// diagonal. Hops come from the active topology (common/config.hpp
/// topology_distance); targets map onto physical clusters modulo
/// num_clusters and distinct targets are never estimated closer than one
/// hop (two VCs sharing a physical cluster today may be remapped apart at
/// any chain leader).
std::vector<double> comm_cost_matrix(const MachineConfig& machine,
                                     std::uint32_t n, double per_hop,
                                     double fixed);

/// Smallest off-diagonal entry of an n x n cost matrix: the
/// nearest-neighbour communication cost, which is what the flat (scalar)
/// software passes charge every pair. Equals fixed + per_hop on every
/// supported topology, so deriving the scalar this way reproduces the
/// pre-topology estimates bit-identically.
double min_comm_cost(const std::vector<double>& matrix, std::uint32_t n);

/// Runs the software pass of `spec` over `program` (clearing previous
/// hints). No-op for hardware-only schemes. When
/// machine.steer.topology_aware is set, the OB and VC passes estimate
/// communication with the per-pair topology matrix instead of the flat
/// nearest-neighbour scalar.
void annotate_for_scheme(prog::Program& program, const SchemeSpec& spec,
                         const MachineConfig& machine);

/// Instantiates the hardware policy for `spec`.
std::unique_ptr<steer::SteeringPolicy> policy_for_scheme(
    const SchemeSpec& spec, const MachineConfig& machine);

}  // namespace vcsteer::harness
