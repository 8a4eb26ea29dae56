#include "eval/sim_evaluator.hpp"

namespace vcsteer::eval {

EvalResponse SimEvaluator::evaluate(const EvalRequest& request) {
  harness::TraceExperiment experiment(request.profile, request.machine,
                                      request.budget);
  EvalResponse response;
  response.results = experiment.evaluate(request.schemes);
  response.phases = experiment.phases();
  response.scheme_simulate_s = experiment.scheme_simulate_s();
  response.experiments = 1;
  return response;
}

}  // namespace vcsteer::eval
