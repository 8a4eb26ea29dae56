#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/check.hpp"
#include "mem/hierarchy.hpp"
#include "sim/core.hpp"
#include "sim/interconnect.hpp"
#include "steer/vc_policy.hpp"
#include "workload/trace.hpp"

namespace vcsteer::harness {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Times workload generation from the member-init list so the span lands in
// TraceArtefact::build_s along with PinPoints selection and replay.
workload::GeneratedWorkload timed_generate(
    const workload::WorkloadProfile& profile, double& build_s) {
  const Clock::time_point t0 = Clock::now();
  workload::GeneratedWorkload wl = workload::generate(profile);
  build_s += seconds_since(t0);
  return wl;
}

// PinPoints-weighted accumulation of one scheme's simulation points into a
// RunResult: the floating-point operations and their order are exactly the
// historical run_annotated loop's.
class WeightedAccum {
 public:
  WeightedAccum(std::string trace, std::string scheme,
                std::uint64_t num_points, std::uint32_t num_clusters) {
    result_.trace = std::move(trace);
    result_.scheme = std::move(scheme);
    result_.num_points = num_points;
    result_.num_clusters = num_clusters;
  }

  void add_point(double w, const sim::SimStats& stats,
                 const sim::StatsObserver& obs, std::uint32_t num_clusters) {
    w_cycles_ += w * static_cast<double>(stats.cycles);
    w_uops_ += w * static_cast<double>(stats.committed_uops);
    w_copies_ += w * static_cast<double>(stats.copies_generated);
    w_alloc_ += w * static_cast<double>(stats.alloc_stalls);
    w_policy_ += w * static_cast<double>(stats.policy_stalls);
    w_hops_ += w * static_cast<double>(stats.copy_hops);
    w_contention_ += w * static_cast<double>(stats.link_contention_cycles);
    w_avoided_ += w * static_cast<double>(stats.avoided_contended_links);
    result_.committed_uops += stats.committed_uops;
    result_.cycles += stats.cycles;
    result_.last_interval = stats;
    for (std::uint32_t c = 0; c < num_clusters; ++c) {
      w_occ_[c] += w * static_cast<double>(stats.occupancy_sum[c]);
      w_copyq_occ_[c] += w * static_cast<double>(stats.copyq_occupancy_sum[c]);
      for (std::uint32_t b = 0; b < sim::kOccupancyBuckets; ++b) {
        result_.iq_occupancy_hist[c][b] += obs.hist(c)[b];
      }
      result_.steered_with_copy[c] += obs.steered_with_copy(c);
      result_.steered_local[c] += obs.steered_local(c);
    }
  }

  RunResult finalize(std::uint32_t num_clusters) {
    VCSTEER_CHECK(w_cycles_ > 0.0 && w_uops_ > 0.0);
    result_.ipc = w_uops_ / w_cycles_;
    result_.copies_per_kuop = 1000.0 * w_copies_ / w_uops_;
    result_.alloc_stalls_per_kuop = 1000.0 * w_alloc_ / w_uops_;
    result_.policy_stalls_per_kuop = 1000.0 * w_policy_ / w_uops_;
    result_.copy_hops_per_kuop = 1000.0 * w_hops_ / w_uops_;
    result_.link_contention_per_kuop = 1000.0 * w_contention_ / w_uops_;
    result_.avoided_contended_per_kuop = 1000.0 * w_avoided_ / w_uops_;
    for (std::uint32_t c = 0; c < num_clusters; ++c) {
      result_.avg_iq_occupancy[c] = w_occ_[c] / w_cycles_;
      result_.avg_copyq_occupancy[c] = w_copyq_occ_[c] / w_cycles_;
    }
    return std::move(result_);
  }

 private:
  RunResult result_;
  double w_cycles_ = 0, w_uops_ = 0, w_copies_ = 0, w_alloc_ = 0,
         w_policy_ = 0, w_hops_ = 0, w_contention_ = 0, w_avoided_ = 0;
  std::array<double, sim::kMaxClusters> w_occ_{};
  std::array<double, sim::kMaxClusters> w_copyq_occ_{};
};

// Clears `program`'s hints and runs the pass `options` selects over it
// (none for monostate).
void annotate(prog::Program& program, const PassOptions& options) {
  program.clear_hints();
  if (const auto* ob = std::get_if<compiler::ObOptions>(&options)) {
    compiler::assign_ob(program, *ob);
  } else if (const auto* rhop = std::get_if<compiler::RhopOptions>(&options)) {
    compiler::assign_rhop(program, *rhop);
  } else if (const auto* vc = std::get_if<compiler::VcOptions>(&options)) {
    compiler::assign_virtual_clusters(program, *vc);
  }
}

}  // namespace

std::string SchemeSpec::label(const MachineConfig& machine) const {
  if (scheme != steer::Scheme::kVc) return steer::scheme_name(scheme);
  const std::uint32_t vcs = num_vcs == 0 ? machine.num_clusters : num_vcs;
  return "VC(" + std::to_string(vcs) + "->" +
         std::to_string(machine.num_clusters) + ")";
}

std::vector<double> comm_cost_matrix(const MachineConfig& machine,
                                     std::uint32_t n, double per_hop,
                                     double fixed) {
  VCSTEER_CHECK(n >= 1);
  std::vector<double> cost(static_cast<std::size_t>(n) * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const std::uint32_t hops = std::max(
          1u, topology_distance(machine.interconnect.kind,
                                machine.num_clusters, i % machine.num_clusters,
                                j % machine.num_clusters));
      cost[i * n + j] = fixed + per_hop * static_cast<double>(hops);
    }
  }
  return cost;
}

double min_comm_cost(const std::vector<double>& matrix, std::uint32_t n) {
  VCSTEER_CHECK(matrix.size() == static_cast<std::size_t>(n) * n);
  double best = std::numeric_limits<double>::max();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j) best = std::min(best, matrix[i * n + j]);
    }
  }
  return n > 1 ? best : 0.0;
}

PassOptions pass_options(const SchemeSpec& spec, const MachineConfig& machine) {
  switch (spec.scheme) {
    case steer::Scheme::kOb: {
      compiler::ObOptions opt;
      opt.num_clusters = machine.num_clusters;
      // SPDI models a cheap operand network (EDGE grids), so it
      // underestimates the copy cost of a clustered machine and splits
      // chains more freely than VC does — the copy excess of Fig. 6(a.1).
      // Half a cycle per hop, no fixed cost: the flat scalar is the
      // nearest-neighbour entry of this matrix (0.5).
      std::vector<double> matrix =
          comm_cost_matrix(machine, machine.num_clusters, /*per_hop=*/0.5,
                           /*fixed=*/0.0);
      opt.comm_cost = min_comm_cost(matrix, machine.num_clusters);
      if (machine.steer.topology_aware) opt.comm_cost_matrix = std::move(matrix);
      opt.issue_width = machine.issue_width_int;
      return opt;
    }
    case steer::Scheme::kRhop: {
      compiler::RhopOptions opt;
      opt.num_clusters = machine.num_clusters;
      // RHOP refines aggressively towards balanced estimated workload
      // (its balance is better than VC's in Fig. 6(b.2)).
      opt.imbalance_tolerance = 0.05;
      opt.critical_edge_bonus = 4.0;
      return opt;
    }
    case steer::Scheme::kVc: {
      compiler::VcOptions opt;
      opt.num_vcs = spec.num_vcs == 0 ? machine.num_clusters : spec.num_vcs;
      // One link transit per hop plus one cycle of copy issue/writeback.
      // The scalar estimate is the matrix's nearest-neighbour entry
      // (link_latency + 1 on every topology — the pre-topology value);
      // topology-aware runs hand the pass the full per-pair matrix.
      std::vector<double> matrix = comm_cost_matrix(
          machine, opt.num_vcs,
          /*per_hop=*/static_cast<double>(machine.interconnect.link_latency),
          /*fixed=*/1.0);
      opt.comm_cost = min_comm_cost(matrix, opt.num_vcs);
      if (machine.steer.topology_aware) opt.comm_cost_matrix = std::move(matrix);
      opt.issue_width = machine.issue_width_int;
      if (spec.vc_min_leader_chain != 0) {
        opt.min_leader_chain = spec.vc_min_leader_chain;
      }
      return opt;
    }
    default:
      return std::monostate{};  // hardware-only schemes need no annotations
  }
}

SimKey sim_key(const SchemeSpec& spec, const MachineConfig& machine,
               std::size_t annotation_id) {
  const MachineConfig defaults;
  SimKey key;
  key.scheme = spec.scheme;
  if (spec.scheme == steer::Scheme::kVc) {
    key.num_vcs = spec.num_vcs == 0 ? machine.num_clusters : spec.num_vcs;
  }
  key.annotation = annotation_id;
  MachineConfig& m = key.machine;
  m = machine;
  if (sim::contention_free(machine)) {
    m.interconnect.kind = Topology::kIdeal;
    m.interconnect.copies_per_link_cycle =
        defaults.interconnect.copies_per_link_cycle;
    m.steer.contention_weight = defaults.steer.contention_weight;
  }
  switch (spec.scheme) {
    case steer::Scheme::kOp:
    case steer::Scheme::kParallelOp:
      break;  // OpPolicy reads steer.* and op_occupancy_threshold.
    case steer::Scheme::kVc:
      m.op_occupancy_threshold = defaults.op_occupancy_threshold;
      break;
    case steer::Scheme::kOb:
    case steer::Scheme::kRhop:
    case steer::Scheme::kOneCluster:
      m.steer = defaults.steer;
      m.op_occupancy_threshold = defaults.op_occupancy_threshold;
      break;
  }
  if (!m.steer.topology_aware) {
    m.steer.contention_weight = defaults.steer.contention_weight;
  }
  return key;
}

void annotate_for_scheme(prog::Program& program, const SchemeSpec& spec,
                         const MachineConfig& machine) {
  annotate(program, pass_options(spec, machine));
}

std::unique_ptr<steer::SteeringPolicy> policy_for_scheme(
    const SchemeSpec& spec, const MachineConfig& machine) {
  if (spec.scheme == steer::Scheme::kVc) {
    const std::uint32_t vcs =
        spec.num_vcs == 0 ? machine.num_clusters : spec.num_vcs;
    return std::make_unique<steer::VcPolicy>(machine, vcs);
  }
  return steer::make_policy(spec.scheme, machine);
}

TraceArtefact::TraceArtefact(const workload::WorkloadProfile& profile,
                             const SimBudget& budget)
    : wl_(timed_generate(profile, build_s_)) {
  const Clock::time_point t0 = Clock::now();
  workload::TraceSource trace(wl_);
  workload::PinPointsOptions popt;
  popt.total_uops = budget.total_uops;
  popt.interval_uops = budget.interval_uops;
  popt.max_phases = budget.max_phases;
  points_ = workload::select_pinpoints(trace, wl_.program.num_blocks(), popt,
                                       profile.seed(/*stream=*/3));
  VCSTEER_CHECK(!points_.empty());
  intervals_.reserve(points_.size());
  warm_addrs_.reserve(points_.size());
  for (const workload::SimPoint& p : points_) {
    // Replay the prefix for functional cache warming, then the interval.
    trace.reset();
    std::vector<std::uint64_t> warm;
    for (std::uint64_t u = 0; u < p.start_uop; ++u) {
      const workload::TraceEntry e = trace.next();
      if (wl_.program.uop(e.uop).is_mem()) warm.push_back(e.addr);
    }
    warm_addrs_.push_back(std::move(warm));
    intervals_.push_back(trace.take(p.length));
  }
  build_s_ += seconds_since(t0);
}

// Defined here, where MemoryHierarchy is a complete type.
TraceArtefact::~TraceArtefact() = default;

const std::vector<mem::MemoryHierarchy>& TraceArtefact::warm_snapshots(
    const MachineConfig& machine, double* warm_s) const {
  const Geometry geometry = {
      machine.l1d.size_bytes, machine.l1d.associativity,
      machine.l1d.line_bytes, machine.l2.size_bytes,
      machine.l2.associativity, machine.l2.line_bytes};
  Snapshots* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(snapshots_mutex_);
    std::unique_ptr<Snapshots>& slot = snapshots_[geometry];
    if (!slot) slot = std::make_unique<Snapshots>();
    entry = slot.get();
  }
  *warm_s = 0;
  std::call_once(entry->once, [&] {
    const Clock::time_point t0 = Clock::now();
    entry->points.reserve(warm_addrs_.size());
    for (const std::vector<std::uint64_t>& addrs : warm_addrs_) {
      mem::MemoryHierarchy& hierarchy = entry->points.emplace_back(machine);
      for (const std::uint64_t addr : addrs) hierarchy.warm(addr);
    }
    *warm_s = seconds_since(t0);
  });
  return entry->points;
}

const TraceArtefact::Annotation& TraceArtefact::annotation(
    const PassOptions& options, double* annotate_s,
    std::size_t* passes) const {
  AnnotationSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(annotations_mutex_);
    std::unique_ptr<AnnotationSlot>& entry = annotations_[options];
    if (!entry) entry = std::make_unique<AnnotationSlot>();
    slot = entry.get();
  }
  *annotate_s = 0;
  *passes = 0;
  std::call_once(slot->once, [&] {
    const Clock::time_point t0 = Clock::now();
    Annotation& a = slot->annotation;
    a.program = wl_.program;
    annotate(a.program, options);
    *annotate_s = seconds_since(t0);
    if (!std::holds_alternative<std::monostate>(options)) *passes = 1;
    // Intern by hint content: a pass input whose hints equal an earlier
    // one's (e.g. a pass that ignores a field the key still separates)
    // shares that annotation's id, so the model walks it once.
    const auto same_hints = [&](const Annotation* other) {
      for (std::size_t u = 0; u < a.program.num_uops(); ++u) {
        const auto id = static_cast<prog::UopId>(u);
        if (a.program.uop(id).hint != other->program.uop(id).hint) return false;
      }
      return true;
    };
    std::lock_guard<std::mutex> lock(annotations_mutex_);
    const auto it = std::find_if(interned_.begin(), interned_.end(), same_hints);
    a.id = static_cast<std::size_t>(it - interned_.begin());
    if (it == interned_.end()) interned_.push_back(&a);
  });
  return slot->annotation;
}

const RunResult& TraceArtefact::simulation(
    const SimKey& key, const std::function<RunResult()>& simulate,
    bool* simulated) const {
  SimulationSlot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock(simulations_mutex_);
    std::unique_ptr<SimulationSlot>& entry = simulations_[key];
    if (!entry) entry = std::make_unique<SimulationSlot>();
    slot = entry.get();
  }
  *simulated = false;
  std::call_once(slot->once, [&] {
    slot->result = simulate();
    *simulated = true;
  });
  return slot->result;
}

TraceExperiment::TraceExperiment(std::shared_ptr<const TraceArtefact> trace,
                                 const MachineConfig& machine)
    : trace_(std::move(trace)), machine_(machine) {}

TraceExperiment::TraceExperiment(const workload::WorkloadProfile& profile,
                                 const MachineConfig& machine,
                                 const SimBudget& budget)
    : TraceExperiment(std::make_shared<const TraceArtefact>(profile, budget),
                      machine) {
  phases_.trace_build_s = trace_->build_s();
}

// Defined here, where the core and MemoryHierarchy are complete types.
TraceExperiment::~TraceExperiment() = default;

prog::Program& TraceExperiment::program() {
  if (!program_) program_.emplace(trace_->workload().program);
  return *program_;
}

const std::vector<mem::MemoryHierarchy>& TraceExperiment::warmed() {
  if (warmed_ == nullptr) {
    double warm_s = 0;
    warmed_ = &trace_->warm_snapshots(machine_, &warm_s);
    phases_.warmup_s += warm_s;
  }
  return *warmed_;
}

RunResult TraceExperiment::eval_spec(const SchemeSpec& spec) {
  double annotate_s = 0;
  std::size_t passes = 0;
  const TraceArtefact::Annotation& annotated = trace_->annotation(
      pass_options(spec, machine_), &annotate_s, &passes);
  annotations_ += passes;
  phases_.annotate_s += annotate_s;
  // Taken before the simulation memo's once-flag, so that a simulating job
  // never waits on another flag (see TraceArtefact).
  warmed();
  bool simulated = false;
  const RunResult& result = trace_->simulation(
      sim_key(spec, machine_, annotated.id),
      [&] {
        // The core reads hints through its reference to this cell's
        // program, so the shared annotation's hints are copied in rather
        // than referenced.
        const Clock::time_point t0 = Clock::now();
        program().copy_hints(annotated.program);
        phases_.annotate_s += seconds_since(t0);
        const auto policy = policy_for_scheme(spec, machine_);
        return run_annotated(*policy, spec.label(machine_));
      },
      &simulated);
  if (!simulated) ++sims_reused_;
  return result;
}

RunResult TraceExperiment::eval_custom(steer::SteeringPolicy& policy,
                                       const std::string& label) {
  program().clear_hints();
  return run_annotated(policy, label);
}

std::vector<RunResult> TraceExperiment::evaluate(
    std::span<const SchemeRequest> requests) {
  VCSTEER_CHECK(!requests.empty());
  std::vector<RunResult> results;
  results.reserve(requests.size());
  for (const SchemeRequest& req : requests) {
    if (req.is_custom()) {
      const auto policy = req.make_policy(machine_);
      VCSTEER_CHECK_MSG(policy != nullptr, "custom factory returned null");
      results.push_back(eval_custom(*policy, req.custom_tag));
    } else {
      results.push_back(eval_spec(req.spec));
    }
  }
  return results;
}

RunResult TraceExperiment::run_annotated(steer::SteeringPolicy& policy,
                                         std::string label) {
  // One core for the experiment's lifetime: every scheme and simulation
  // point reuses it, reset in place per run.
  if (!core_) {
    core_ = std::make_unique<sim::ClusteredCore>(machine_, program());
  }
  sim::ClusteredCore& core = *core_;
  const std::vector<mem::MemoryHierarchy>& warm = warmed();
  const std::vector<workload::SimPoint>& points = trace_->simpoints();
  WeightedAccum acc(trace_->workload().profile.name, std::move(label),
                    points.size(), machine_.num_clusters);
  sim::RunPhases run_phases;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sim::SimStats stats =
        core.run(trace_->intervals()[i], policy, warm[i], &run_phases);
    // Harvest the run's observer sink before the next run() re-arms it.
    acc.add_point(points[i].weight, stats, core.observer(),
                  machine_.num_clusters);
  }
  phases_.warmup_s += run_phases.warmup_s;
  phases_.simulate_s += run_phases.simulate_s;
  RunResult result = acc.finalize(machine_.num_clusters);
  scheme_simulate_s_[result.scheme] += run_phases.simulate_s;
  return result;
}

}  // namespace vcsteer::harness
