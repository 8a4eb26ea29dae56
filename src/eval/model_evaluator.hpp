// Analytical evaluation: scores grid cells with the src/model/ critical-path
// estimator, about a third of the simulator's cost per micro-op
// (src/model/critpath.hpp gives the measurement). exec::run_sweep's
// two-stage pruned mode (--prune-model K) estimates every grid point here
// and simulates only the top-K frontier through harness::TraceExperiment.
//
// A request carries one (trace, machine) cell with all its scheme requests
// at once, so per-cell work is shared across schemes: one walk per distinct
// model::WalkConfig and annotation. The trace (harness::TraceArtefact) is
// shared with the simulator stage: its annotated programs per software-pass
// input, which both stages read.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/once_map.hpp"
#include "harness/experiment.hpp"
#include "model/critpath.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::eval {

/// Which engine produced a result. Serialised as RunResult::source and
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
  /// makes the evaluator build or reuse its own.
  std::shared_ptr<const harness::TraceArtefact> trace = nullptr;
};

struct EvalResponse {
  /// One result per request scheme, in request order, tagged "model".
  std::vector<harness::RunResult> results;
  /// Wall-clock accounting: trace build, annotate, memory replay (warmup_s)
  /// and walk_s, each billed only to the call that did the work.
  harness::PhaseTimes phases;
  /// Traces built serving this call: 0 when the request carried one or
  /// the evaluator reused a memoised one.
  std::size_t trace_builds = 0;
  /// OB/RHOP/VC pass runs this call made: pass inputs the trace had not
  /// annotated before (harness::TraceArtefact::annotation).
  std::size_t annotations = 0;
  /// Results whose critical-path walk ran in this call, and results served
  /// from an earlier call's identical walk.
  std::size_t walked = 0;
  std::size_t walks_reused = 0;
};

/// Scores cells with model::estimate_interval. The trace (the part the
/// model shares with simulation: workload generation, PinPoints selection,
/// interval replay) is kept per (profile, budget) across calls: the first
/// request of a trace supplies it (EvalRequest::trace) or has it built, so
/// a sweep visiting one trace under hundreds of machines pays trace
/// construction once. The functional memory replay depends only
/// on the trace and the cache geometry (L1D, L2, memory latency), so it is
/// memoised per (trace, geometry): the machines of a search that share one
/// hierarchy replay it once. Annotations come from the trace's own memo
/// (harness::TraceArtefact::annotation), so each software pass runs once
/// per (trace, pass input) and the simulator stage of a pruned sweep reuses
/// what this stage annotated. The walk itself is memoised per trace on its
/// complete input: the replay entry, the model::WalkConfig and the
/// annotation's interned id (WalkKey::hints: equal ids mean equal hints on
/// every micro-op). Machines the walk cannot tell apart (see
/// model::WalkConfig) are walked once and every later grid point reuses
/// the estimates.
class ModelEvaluator {
 public:
  /// Thread-safe: the sweep calls this concurrently from its workers, one
  /// call per (trace, machine) cell.
  EvalResponse evaluate(const EvalRequest& request);

 private:
  /// Every field of MachineConfig that model::memory_latencies reads.
  using MemoryKey = std::array<std::uint32_t, 9>;
  /// model::memory_latencies of each simulation point.
  using LoadExtra = std::vector<std::vector<std::uint32_t>>;

  /// Everything a walk reads besides the trace: the replay entry, the
  /// interned id of the annotation (harness::TraceArtefact::Annotation::id),
  /// and the walk config.
  struct WalkKey {
    MemoryKey memory;
    std::size_t hints;
    model::WalkConfig config;

    auto operator<=>(const WalkKey&) const = default;
  };

  struct TraceData {
    std::shared_ptr<const harness::TraceArtefact> trace;
    OnceMap<MemoryKey, LoadExtra> load_extra;
    /// The estimate of every simulation point, per walk input.
    OnceMap<WalkKey, std::vector<model::IntervalEstimate>> walks;
  };

  OnceMap<std::string, TraceData> traces_;
};

}  // namespace vcsteer::eval
