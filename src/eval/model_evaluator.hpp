// Analytical evaluation backend: the src/model/ critical-path estimator
// behind the Evaluator interface.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/evaluator.hpp"
#include "model/critpath.hpp"

namespace vcsteer::eval {

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
class ModelEvaluator final : public Evaluator {
 public:
  Source source() const override { return Source::kModel; }
  EvalResponse evaluate(const EvalRequest& request) override;

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

  /// The memoised estimate of every simulation point. The first caller
  /// walks inside `once`; concurrent callers of the same key wait for it.
  struct Walk {
    std::once_flag once;
    std::vector<model::IntervalEstimate> estimates;
  };

  struct TraceData {
    std::mutex mutex;  ///< guards every member below.
    std::shared_ptr<const harness::TraceArtefact> trace;
    std::map<MemoryKey, LoadExtra> load_extra;
    std::map<WalkKey, Walk> walks;
  };

  TraceData& trace_data_for(const EvalRequest& request);

  std::mutex map_mutex_;
  std::map<std::string, std::unique_ptr<TraceData>> traces_;
};

}  // namespace vcsteer::eval
