#include "eval/sim_evaluator.hpp"

namespace vcsteer::eval {

EvalResponse SimEvaluator::evaluate(const EvalRequest& request) {
  EvalResponse response;
  std::shared_ptr<const harness::TraceArtefact> trace = request.trace;
  if (!trace) {
    trace = std::make_shared<const harness::TraceArtefact>(request.profile,
                                                           request.budget);
    response.phases.trace_build_s = trace->build_s();
    response.trace_builds = 1;
  }
  harness::TraceExperiment experiment(std::move(trace), request.machine);
  response.results = experiment.evaluate(request.schemes);
  response.phases += experiment.phases();
  response.scheme_simulate_s = experiment.scheme_simulate_s();
  return response;
}

}  // namespace vcsteer::eval
