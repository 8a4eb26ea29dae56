#include "sim/core_state.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "steer/policy.hpp"

namespace vcsteer::sim {

CoreState::CoreState(const MachineConfig& config, const prog::Program& program)
    : config(config), program(program) {
  clusters.resize(config.num_clusters);
  for (std::uint32_t c = 0; c < config.num_clusters; ++c) {
    ClusterState& cl = clusters[c];
    cl.iq_int.init(config.iq_int_entries);
    cl.iq_fp.init(config.iq_fp_entries);
    cl.iq_copy.init(config.iq_copy_entries);
    // The clusters vector never resizes after this, and &ready_summary is a
    // stable member address, so the bindings survive for the core's life.
    cl.iq_int.bind_ready_summary(&ready_summary, ready_bit(c, 0));
    cl.iq_fp.bind_ready_summary(&ready_summary, ready_bit(c, 1));
    cl.iq_copy.bind_ready_summary(&ready_summary, ready_bit(c, 2));
  }
  renamed_regs.reserve(isa::kNumFlatRegs);
  reset();
}

void CoreState::reset() {
  for (ClusterState& c : clusters) {
    c.iq_int.reset();
    c.iq_fp.reset();
    c.iq_copy.reset();
    c.int_used = c.fp_used = c.copy_used = 0;
    c.regs_used_int = c.regs_used_fp = 0;
    c.inflight = 0;
    c.div_busy_until = 0;
  }
  VCSTEER_DCHECK(ready_summary == 0);  // every pool reset cleared its bit
  ready_summary = 0;
  values.reset();
  waiter_nodes.clear();
  waiter_free.clear();
  copy_ties = 0;
  rename.fill(kNoTag);
  stale_home.fill(steer::kNoHome);
  renamed_regs.clear();
  completions.reset();
  cycle = 0;
  stats = SimStats{};
}

}  // namespace vcsteer::sim
