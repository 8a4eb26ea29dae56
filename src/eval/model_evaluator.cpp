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

// A trace is a function of (profile, budget) only (harness::TraceArtefact),
// so the memoisation key ignores the machine.
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

EvalResponse ModelEvaluator::evaluate(const EvalRequest& request) {
  EvalResponse response;
  TraceData& data = traces_.get(
      trace_key(request.profile, request.budget), [&](TraceData& d) {
        // The first request of a trace supplies it, or has it built here
        // and billed to this response; later cells reuse it at no build
        // cost.
        d.trace = request.trace;
        if (!d.trace) {
          d.trace = std::make_shared<const harness::TraceArtefact>(
              request.profile, request.budget);
          response.phases.trace_build_s = d.trace->build_s();
          response.trace_builds = 1;
        }
      });
  const MachineConfig& machine = request.machine;
  const MemoryKey memory = memory_key(machine);
  // Functional memory replay is scheme-independent and reads only the cache
  // geometry of the machine: one pass per (trace, geometry), shared by every
  // scheme's walk in every cell with that hierarchy. Like the trace build,
  // its time is billed only to the response that ran it.
  const LoadExtra& load_extra = data.load_extra.get(memory, [&](LoadExtra& e) {
    const harness::TraceArtefact& trace = *data.trace;
    const Clock::time_point warm_t0 = Clock::now();
    for (std::size_t p = 0; p < trace.intervals().size(); ++p) {
      e.push_back(model::memory_latencies(trace.workload().program,
                                          trace.intervals()[p],
                                          trace.warm_addrs()[p], machine));
    }
    response.phases.warmup_s = seconds_since(warm_t0);
  });
  const harness::TraceArtefact& trace = *data.trace;
  const auto& points = trace.simpoints();
  const auto& intervals = trace.intervals();

  for (const harness::SchemeRequest& scheme : request.schemes) {
    // Custom-policy requests carry no software pass and no scheme enum; the
    // model approximates them with the OP heuristic on unannotated hints.
    const steer::Scheme approx =
        scheme.is_custom() ? steer::Scheme::kOp : scheme.spec.scheme;
    const harness::PassOptions pass =
        scheme.is_custom() ? harness::PassOptions{}
                           : harness::pass_options(scheme.spec, machine);
    double annotate_s = 0;
    std::size_t passes = 0;
    const harness::TraceArtefact::Annotation& annotated =
        trace.annotation(pass, &annotate_s, &passes);
    response.phases.annotate_s += annotate_s;
    response.annotations += passes;

    // The walk is a function of the replay entry, the walk config and the
    // hints alone, so a grid point whose key an earlier point already
    // walked reuses its estimates. Like the trace build and the replay,
    // walk time is billed only to the response that walked.
    const WalkKey key{memory, annotated.id, model::walk_config(machine, approx)};
    bool walked = false;
    double walk_s = 0.0;
    const std::vector<model::IntervalEstimate>& estimates = data.walks.get(
        key, [&](std::vector<model::IntervalEstimate>& out) {
          const Clock::time_point walk_t0 = Clock::now();
          for (std::size_t p = 0; p < points.size(); ++p) {
            out.push_back(model::estimate_interval(
                annotated.program, intervals[p], load_extra[p], key.config));
          }
          walk_s = seconds_since(walk_t0);
          walked = true;
        });
    ++(walked ? response.walked : response.walks_reused);

    // PinPoints-weighted aggregation, same operations in the same order as
    // the simulator's WeightedAccum for the fields the model predicts.
    double w_cycles = 0, w_uops = 0, w_copies = 0, w_hops = 0;
    harness::RunResult result;
    result.trace = request.profile.name;
    result.scheme = scheme.label(machine);
    result.source = source_name(Source::kModel);
    result.num_points = points.size();
    result.num_clusters = machine.num_clusters;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const model::IntervalEstimate& est = estimates[p];
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
    response.phases.walk_s += walk_s;
    response.results.push_back(std::move(result));
  }
  return response;
}

}  // namespace vcsteer::eval
