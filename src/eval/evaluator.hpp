// Point-evaluation API.
//
// A sweep grid is a set of (trace, machine, scheme) points; an Evaluator is
// a backend that answers "what does this point score" — the seam the sweep
// engine plugs cost/accuracy trade-offs into:
//
//   SimEvaluator    cycle-accurate TraceExperiment, bit-identical to the
//                   historical direct run path; results tagged source "sim".
//   ModelEvaluator  src/model/ critical-path estimator, about a third of
//                   the simulator's cost per micro-op (src/model/critpath.hpp
//                   gives the measurement); results tagged source "model".
//
// The request carries one (trace, machine) cell with *all* its scheme
// requests at once, because both backends amortise per-cell work across
// schemes: the simulator shares one core per cell, the model one walk per
// distinct model::WalkConfig and annotation. Both share one materialised
// trace (harness::TraceArtefact) across cells: its annotated programs per
// software-pass input, which both backends read, the simulator its warmed
// cache hierarchy per simulation point and cache geometry and its results
// per harness::SimKey, the model its functional memory replay per cache
// geometry.
// exec::run_sweep's two-stage pruned mode (--prune-model K) estimates every
// grid point with ModelEvaluator and spends SimEvaluator only on the top-K
// frontier.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "harness/experiment.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::eval {

/// Which backend produced a result. Serialised as RunResult::source and
/// namespaced into the exec cache key, so the two kinds can never alias.
enum class Source { kSim, kModel };

const char* source_name(Source s);

/// One (trace, machine) cell: every steering configuration to score on it.
/// The profile arrives with any sweep seed salt already applied.
struct EvalRequest {
  workload::WorkloadProfile profile;
  MachineConfig machine;
  harness::SimBudget budget;
  std::vector<harness::SchemeRequest> schemes;
  /// The trace of (profile, budget), when the caller already holds it (the
  /// sweep builds each trace once and shares it across its jobs); null
  /// makes the backend build or reuse its own.
  std::shared_ptr<const harness::TraceArtefact> trace = nullptr;
};

struct EvalResponse {
  /// One result per request scheme, in request order, each tagged with the
  /// backend's source.
  std::vector<harness::RunResult> results;
  /// Wall-clock accounting, same phase buckets as the direct path.
  harness::PhaseTimes phases;
  /// Per-scheme-label share of the simulate span (the cycle loops; the
  /// model's walks go to phases.walk_s only).
  std::map<std::string, double> scheme_simulate_s;
  /// Traces built serving this call: 0 when the request carried one or
  /// the backend reused a memoised one.
  std::size_t trace_builds = 0;
  /// OB/RHOP/VC pass runs this call made: pass inputs the trace had not
  /// annotated before (harness::TraceArtefact::annotation).
  std::size_t annotations = 0;
  /// Sim backend only: results served by an identical simulation another
  /// request on the trace ran (harness::TraceArtefact::simulation).
  std::size_t sims_reused = 0;
  /// Model backend only: results whose critical-path walk ran in this call,
  /// and results served from an earlier call's identical walk.
  std::size_t walked = 0;
  std::size_t walks_reused = 0;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual Source source() const = 0;
  /// Thread-safe: the sweep engine calls this concurrently from its worker
  /// pool, one call per (trace, machine) cell.
  virtual EvalResponse evaluate(const EvalRequest& request) = 0;
};

}  // namespace vcsteer::eval
