#include "eval/model_evaluator.hpp"

#include <array>
#include <chrono>
#include <cstdint>

#include "common/check.hpp"
#include "model/critpath.hpp"

namespace vcsteer::eval {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Trace data is a function of (profile, budget) only — TraceExperiment's
// machine argument affects simulation, not workload generation, PinPoints
// selection or interval replay — so the memoisation key ignores machine.
std::string trace_key(const workload::WorkloadProfile& profile,
                      const harness::SimBudget& budget) {
  return profile.name + '#' + std::to_string(profile.seed_salt) + '#' +
         std::to_string(budget.total_uops) + '#' +
         std::to_string(budget.interval_uops) + '#' +
         std::to_string(budget.max_phases);
}

static_assert(sizeof(CacheConfig) == 4 * sizeof(std::uint32_t),
              "memory_key must cover every CacheConfig field");

std::array<std::uint32_t, 9> memory_key(const MachineConfig& m) {
  return {m.l1d.size_bytes, m.l1d.associativity, m.l1d.line_bytes,
          m.l1d.hit_latency, m.l2.size_bytes,    m.l2.associativity,
          m.l2.line_bytes,   m.l2.hit_latency,   m.memory_latency};
}

}  // namespace

const char* source_name(Source s) {
  return s == Source::kSim ? "sim" : "model";
}

ModelEvaluator::TraceData& ModelEvaluator::trace_data_for(
    const EvalRequest& request) {
  const std::string key = trace_key(request.profile, request.budget);
  std::lock_guard<std::mutex> lock(map_mutex_);
  std::unique_ptr<TraceData>& slot = traces_[key];
  if (!slot) slot = std::make_unique<TraceData>();
  return *slot;
}

EvalResponse ModelEvaluator::evaluate(const EvalRequest& request) {
  EvalResponse response;
  TraceData& data = trace_data_for(request);
  const MachineConfig& machine = request.machine;
  const LoadExtra* load_extra = nullptr;
  {
    std::lock_guard<std::mutex> lock(data.mutex);
    if (!data.experiment) {
      data.experiment = std::make_unique<harness::TraceExperiment>(
          request.profile, request.machine, request.budget);
      response.experiments = 1;
    }
    if (!data.billed) {
      // Bill trace construction to the first response that used it; later
      // cells reusing the memoised trace report zero build time, which is
      // what actually happened.
      response.phases.trace_build_s = data.experiment->phases().trace_build_s;
      data.billed = true;
    }
    // Functional memory replay is scheme-independent and reads only the
    // cache geometry of the machine: one pass per (trace, geometry), shared
    // by every scheme's walk in every cell with that hierarchy. Like the
    // trace build, its time is billed only to the response that ran it.
    // std::map nodes are stable, so the pointer outlives the lock.
    const auto [it, inserted] =
        data.load_extra.try_emplace(memory_key(machine));
    if (inserted) {
      const harness::TraceExperiment& experiment = *data.experiment;
      const Clock::time_point warm_t0 = Clock::now();
      for (std::size_t p = 0; p < experiment.intervals().size(); ++p) {
        it->second.push_back(model::memory_latencies(
            experiment.workload().program, experiment.intervals()[p],
            experiment.warm_addrs()[p], machine));
      }
      response.phases.warmup_s = seconds_since(warm_t0);
    }
    load_extra = &it->second;
  }
  const harness::TraceExperiment& experiment = *data.experiment;
  const auto& points = experiment.simpoints();
  const auto& intervals = experiment.intervals();

  for (const harness::SchemeRequest& scheme : request.schemes) {
    // Custom-policy requests carry no software pass and no scheme enum; the
    // model approximates them with the OP heuristic on unannotated hints.
    prog::Program program = experiment.workload().program;
    steer::Scheme approx = steer::Scheme::kOp;
    const Clock::time_point annotate_t0 = Clock::now();
    if (!scheme.is_custom()) {
      harness::annotate_for_scheme(program, scheme.spec, machine);
      approx = scheme.spec.scheme;
    }
    response.phases.annotate_s += seconds_since(annotate_t0);

    // PinPoints-weighted aggregation, same operations in the same order as
    // the simulator's WeightedAccum for the fields the model predicts.
    const Clock::time_point walk_t0 = Clock::now();
    double w_cycles = 0, w_uops = 0, w_copies = 0, w_hops = 0;
    harness::RunResult result;
    result.trace = request.profile.name;
    result.scheme = scheme.label(machine);
    result.source = source_name(Source::kModel);
    result.num_points = points.size();
    result.num_clusters = machine.num_clusters;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const model::IntervalEstimate est = model::estimate_interval(
          program, intervals[p], (*load_extra)[p], machine, approx);
      const double w = points[p].weight;
      w_cycles += w * static_cast<double>(est.cycles);
      w_uops += w * static_cast<double>(est.committed_uops);
      w_copies += w * static_cast<double>(est.copies);
      w_hops += w * static_cast<double>(est.copy_hops);
      result.committed_uops += est.committed_uops;
      result.cycles += est.cycles;
    }
    VCSTEER_CHECK(w_cycles > 0.0 && w_uops > 0.0);
    result.ipc = w_uops / w_cycles;
    result.copies_per_kuop = 1000.0 * w_copies / w_uops;
    result.copy_hops_per_kuop = 1000.0 * w_hops / w_uops;
    const double walk_s = seconds_since(walk_t0);
    response.phases.simulate_s += walk_s;
    response.scheme_simulate_s[result.scheme] += walk_s;
    response.results.push_back(std::move(result));
  }
  return response;
}

}  // namespace vcsteer::eval
