// Analytical evaluation backend: the src/model/ critical-path estimator
// behind the Evaluator interface.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/evaluator.hpp"

namespace vcsteer::eval {

/// Scores cells with model::estimate_interval. Trace materialisation (the
/// expensive part the model shares with simulation: workload generation,
/// PinPoints selection, interval replay) is memoised per (profile, budget)
/// across calls, so a sweep visiting one trace under hundreds of machines
/// pays trace construction once. The estimator itself is machine-dependent
/// and runs per call. The functional memory replay depends only on the
/// trace and the cache geometry (L1D, L2, memory latency), so it is
/// memoised per (trace, geometry): the machines of a search that share one
/// hierarchy replay it once.
class ModelEvaluator final : public Evaluator {
 public:
  Source source() const override { return Source::kModel; }
  EvalResponse evaluate(const EvalRequest& request) override;

 private:
  /// Every field of MachineConfig that model::memory_latencies reads.
  using MemoryKey = std::array<std::uint32_t, 9>;
  /// model::memory_latencies of each simulation point.
  using LoadExtra = std::vector<std::vector<std::uint32_t>>;

  struct TraceData {
    std::mutex mutex;  ///< guards every member below.
    std::unique_ptr<harness::TraceExperiment> experiment;
    bool billed = false;  ///< trace_build_s already reported to a response.
    std::map<MemoryKey, LoadExtra> load_extra;
  };

  TraceData& trace_data_for(const EvalRequest& request);

  std::mutex map_mutex_;
  std::map<std::string, std::unique_ptr<TraceData>> traces_;
};

}  // namespace vcsteer::eval
