// Reusable per-run simulation arena.
//
// Constructing a ClusteredCore sizes every slot pool, the value table, the
// ROB/LSQ, the cache hierarchy arrays and the interconnect link state; a
// sweep that rebuilds the core per scheme pays that allocation work for
// every (trace, machine, scheme) point. SimContext owns one core for a
// fixed (machine, program) pair so consecutive runs — different steering
// policies, different simulation points — reuse all of that storage:
// ClusteredCore::run() starts with a cheap reset() that rewinds counters
// and refills free lists but never deallocates, and the pools keep their
// high-water capacity across runs.
//
// harness::TraceExperiment holds one SimContext for its whole lifetime, so
// a five-scheme sweep over one trace touches the allocator once. The runs
// are bit-identical to fresh-context runs (asserted by
// tests/sim_stress_test.cpp): reset() restores exactly the post-
// construction state.
#pragma once

#include "sim/core.hpp"

namespace vcsteer::sim {

class SimContext {
 public:
  SimContext(const MachineConfig& machine, const prog::Program& program)
      : core_(machine, program) {}

  /// The arena's core. Each ClusteredCore::run() resets it in place; the
  /// caller never needs to (and must not) reconstruct it between runs.
  ClusteredCore& core() { return core_; }

 private:
  ClusteredCore core_;
};

}  // namespace vcsteer::sim
