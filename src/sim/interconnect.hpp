// Pluggable inter-cluster copy interconnect.
//
// The copy network's selection logic (sim/copy_network.hpp) picks which
// copies leave each cluster's copy queue; the Interconnect decides *when
// they arrive*: per-link bandwidth arbitration plus hop-count latency.
// Topologies (common/config.hpp Topology):
//   * kIdeal    — contention-free point-to-point link, the paper's Table 2
//                 model: arrival = select + link_latency (+1 regfile write,
//                 charged by the copy network, not here).
//   * kCrossbar — dedicated link per ordered (src, dst) pair; each link
//                 accepts copies_per_link_cycle copies per cycle.
//   * kBus      — one shared medium: every copy in the machine arbitrates
//                 for the same copies_per_link_cycle slots per cycle.
//   * kRing     — unidirectional ring; a copy from c traverses links
//                 c->c+1->... one hop at a time, arbitrating for each link.
//
// A fabric on which no copy can ever wait and every pair of distinct
// clusters is one hop apart is bit-identical to kIdeal. Each cluster
// injects at most issue_width_copy copies per cycle, so that holds for a
// crossbar whose links take issue_width_copy copies per cycle (only `from`
// injects onto link from->to), a bus that takes num_clusters x
// issue_width_copy, and a 2-cluster ring whose links take issue_width_copy
// (each link has one injector, and every path is one hop).
// contention_free() states the condition; the simulation memo
// (harness::sim_key) folds such fabrics into kIdeal.
//
// A copy that loses arbitration is buffered inside the network (its copy
// queue slot and issue-width slot were already consumed at select time);
// the loss shows up as a later arrival and in the contention counters.
// route_copy() request cycles are nondecreasing — the simulator calls it
// from its single cycle loop — which lets links prune their occupancy maps
// as time advances, keeping arbitration O(in-flight copies).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/config.hpp"

namespace vcsteer::sim {

struct InterconnectStats {
  std::uint64_t copies_routed = 0;
  std::uint64_t copy_hops = 0;              ///< links traversed in total.
  std::uint64_t link_busy_cycles = 0;       ///< link-cycle slots claimed.
  std::uint64_t link_contention_cycles = 0; ///< waits for a busy link slot.
};

/// One link's occupancy calendar: claims the earliest cycle with spare
/// bandwidth at or after a requested cycle.
class LinkState {
 public:
  void reset() {
    used_.clear();
    wait_ewma_ = 0.0;
  }

  /// First cycle >= `earliest` with fewer than `bandwidth` claims; records
  /// the claim. Entries before `prune_before` (no future request can claim
  /// them) are dropped.
  std::uint64_t claim(std::uint64_t earliest, std::uint64_t prune_before,
                      std::uint32_t bandwidth);

  /// Exponentially weighted moving average of the per-claim wait (cycles a
  /// copy sat in the network because this link was busy), updated on every
  /// claim with weight 1/8. This is the cheap recent-congestion signal a
  /// hardware arbiter could expose to the steering unit: ~0 on an idle
  /// link, rising towards the steady-state queueing delay under overload.
  double wait_ewma() const { return wait_ewma_; }

 private:
  std::map<std::uint64_t, std::uint32_t> used_;  ///< cycle -> claims.
  double wait_ewma_ = 0.0;
};

class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Routes one register copy from cluster `from` to `to` (from != to),
  /// selected in `cycle` (nondecreasing across calls). Returns the cycle the
  /// value has fully crossed the network; the caller charges the regfile
  /// write on top.
  virtual std::uint64_t route_copy(std::uint32_t from, std::uint32_t to,
                                   std::uint64_t cycle) = 0;

  /// Links a copy from `from` to `to` traverses (0 when equal). This is the
  /// static topology distance steering policies may consult through
  /// SteerView::copy_distance — independent of current load. Always agrees
  /// with topology_distance() in common/config.hpp.
  virtual std::uint32_t distance(std::uint32_t from, std::uint32_t to) const = 0;

  /// Recent congestion on the from -> to path: the sum of the wait EWMAs of
  /// every link the copy would traverse, in cycles of expected extra delay.
  /// 0 on a contention-free fabric (and always 0 for kIdeal). Steering
  /// policies read it through SteerView::link_congestion to dodge hot links
  /// before queueing behind them.
  virtual double congestion(std::uint32_t /*from*/,
                            std::uint32_t /*to*/) const {
    return 0.0;
  }

  virtual const char* name() const = 0;

  virtual void reset() { stats_ = InterconnectStats{}; }
  const InterconnectStats& stats() const { return stats_; }

 protected:
  InterconnectStats stats_;
};

std::unique_ptr<Interconnect> make_interconnect(const MachineConfig& config);

/// True when `config`'s fabric never makes a copy wait and places every
/// pair of distinct clusters one hop apart: kIdeal, or a crossbar, bus or
/// 2-cluster ring whose links take every copy the clusters can inject in a
/// cycle (see the header comment). Every Interconnect built from such a
/// config routes each copy exactly like kIdeal, with the same counters, and
/// its congestion() stays exactly 0.0.
bool contention_free(const MachineConfig& config);

}  // namespace vcsteer::sim
