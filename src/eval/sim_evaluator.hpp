// Cycle-accurate evaluation backend: a thin adapter over TraceExperiment.
#pragma once

#include "eval/evaluator.hpp"

namespace vcsteer::eval {

/// Stateless — each call builds the cell's TraceExperiment over the
/// request's shared trace (or a private one when it carries none), so
/// results (and the cache entries derived from them) are bit-identical to
/// a direct TraceExperiment run.
class SimEvaluator final : public Evaluator {
 public:
  Source source() const override { return Source::kSim; }
  EvalResponse evaluate(const EvalRequest& request) override;
};

}  // namespace vcsteer::eval
