#include "model/critpath.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/check.hpp"
#include "isa/uop.hpp"
#include "mem/cache.hpp"
#include "model/pools.hpp"

namespace vcsteer::model {
namespace {

// The per-cluster state below lives in fixed arrays; the sweep grids top out
// at 4 clusters, so this is generous.
constexpr std::uint32_t kMaxModelClusters = 16;

// Steering balance window: how many of the most recent assignments the
// model's load proxy looks at. The real policies read live IQ occupancy; the
// model substitutes the cluster-assignment mix of the last kBalanceWindow
// micro-ops, which tracks the same imbalance signal without reading queue
// sizes — reading them would make steering, and through it the predicted
// cycles, non-monotone in the resources the model must be monotone in.
constexpr std::uint32_t kBalanceWindow = 64;

// OP steering's in-flight test, resource-independently: OpPolicy weighs a
// source double when its value is still in flight (consuming it remotely
// puts the copy on the critical path). The model cannot read completion
// times during steering, so "in flight" becomes "produced within the last
// kInFlightWindow micro-ops" — program-order recency, which tracks the same
// signal without touching any machine resource.
constexpr std::uint64_t kInFlightWindow = 64;

/// Where a register value lives: the producing uop's completion time at its
/// home cluster, plus the arrival time at every cluster it has been copied
/// to (a copy is charged once, then reused by later consumers — mirroring
/// the simulator's value table).
struct RegState {
  bool has_writer = false;  ///< false: live-in, ready at 0 everywhere.
  std::uint32_t home = 0;
  std::uint32_t mask = ~0u;  ///< clusters holding the value.
  std::uint64_t write_index = 0;  ///< program-order position of the writer.
  std::array<std::uint64_t, kMaxModelClusters> avail{};
};

class Walker {
 public:
  Walker(const prog::Program& program, const MachineConfig& machine,
         steer::Scheme scheme)
      : program_(program), machine_(machine), scheme_(scheme) {
    VCSTEER_CHECK_MSG(machine.num_clusters <= kMaxModelClusters,
                      "model supports at most 16 clusters");
    limited_bw_ = machine.interconnect.kind != Topology::kIdeal &&
                  machine.interconnect.copies_per_link_cycle != ~0u;
    const std::uint32_t n = machine.num_clusters;
    decode_[0].configure(machine.decode_width_int);
    decode_[1].configure(machine.decode_width_fp);
    rob_[0].configure(machine.rob_int_entries);
    rob_[1].configure(machine.rob_fp_entries);
    commit_[0].configure(machine.commit_width_int);
    commit_[1].configure(machine.commit_width_fp);
    lsq_.configure(machine.lsq_entries);
    for (std::uint32_t c = 0; c < n; ++c) {
      iq_window_[c][0].configure(machine.iq_int_entries);
      iq_window_[c][1].configure(machine.iq_fp_entries);
      iq_rate_[c][0].configure(machine.issue_width_int);
      iq_rate_[c][1].configure(machine.issue_width_fp);
      copy_rate_[c].configure(machine.issue_width_copy);
      copy_window_[c].configure(machine.iq_copy_entries);
      if (limited_bw_) {
        for (std::uint32_t d = 0; d < n; ++d) {
          link_[c][d].configure(machine.interconnect.copies_per_link_cycle);
        }
      }
    }
    vc_table_.fill(-1);
  }

  IntervalEstimate walk(std::span<const workload::TraceEntry> interval,
                        std::span<const std::uint32_t> load_extra) {
    IntervalEstimate est;
    std::uint64_t last_disp = 0;
    std::uint64_t last_commit = 0;
    for (std::size_t i = 0; i < interval.size(); ++i) {
      const isa::MicroOp& uop = program_.uop(interval[i].uop);
      const std::uint32_t q = isa::uses_fp_queue(uop.op) ? 1 : 0;
      const std::uint32_t c = steer(uop, i);

      // --- dispatch: in-order, behind fetch and every window resource ---
      std::uint64_t disp = i / machine_.fetch_width + machine_.fetch_to_dispatch;
      disp = std::max(disp, last_disp);
      disp = std::max(disp, decode_[q].rate_bound());
      disp = std::max(disp, rob_[q].window_bound());
      if (uop.is_mem()) {
        disp = std::max(disp, lsq_.window_bound());
      }
      disp = std::max(disp, iq_window_[c][q].window_bound());
      // A consumer needing a cross-cluster copy cannot dispatch until the
      // producer's copy queue has a free slot — the simulator's
      // request_copy backpressure, which stalls the whole in-order frontend
      // behind it, not just this micro-op's operand. Note the copies this
      // dispatch will generate while we are at it: each one consumes a
      // decode/rename slot of its value's kind in the dispatch cycle, the
      // first-order front-end cost of communication-heavy steering (a
      // scheme generating 10% copies loses 10% of its decode bandwidth).
      std::uint32_t copy_slots[2] = {0, 0};
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        if (s == 1 && isa::flat_reg(uop.srcs[1]) == isa::flat_reg(uop.srcs[0]))
          continue;  // dual read of one value needs a single copy
        const RegState& r = regs_[isa::flat_reg(uop.srcs[s])];
        if ((r.mask & (1u << c)) == 0) {
          disp = std::max(disp, copy_window_[r.home].window_bound());
          ++copy_slots[uop.srcs[s].file == isa::RegFile::kFp ? 1 : 0];
        }
      }

      // --- issue: behind wakeup, operand arrival and the cluster's ports ---
      std::uint64_t issue = disp + 1;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        issue = std::max(
            issue, operand_ready(isa::flat_reg(uop.srcs[s]), c, disp, &est));
      }
      // Dispatch is in order and no rate-pool request precedes this
      // micro-op's disp + 1, so that is every pool's floor (pools.hpp).
      issue = iq_rate_[c][q].place(issue, disp + 1);

      std::uint64_t done = issue + isa::latency(uop.op);
      if (uop.is_load()) done += load_extra[i];

      // --- commit: in-order, per-file commit width ---
      std::uint64_t commit = std::max(done, last_commit);
      commit = std::max(commit, commit_[q].rate_bound());

      decode_[q].push(disp);
      for (std::uint32_t k = 0; k < 2; ++k) {
        for (std::uint32_t j = 0; j < copy_slots[k]; ++j) decode_[k].push(disp);
      }
      iq_window_[c][q].push(issue);
      rob_[q].push(commit);
      commit_[q].push(commit);
      // Loads leave the LSQ when the cache answers; only stores hold their
      // slot until commit (same release rule as the simulator's CommitUnit).
      if (uop.is_load()) lsq_.push(done);
      if (uop.is_store()) lsq_.push(commit);
      last_disp = disp;
      last_commit = commit;

      if (uop.has_dst) {
        RegState& r = regs_[isa::flat_reg(uop.dst)];
        r.has_writer = true;
        r.home = c;
        r.mask = 1u << c;
        r.write_index = i;
        r.avail[c] = done;
      }
    }
    est.cycles = interval.empty() ? 0 : last_commit + 1;
    est.committed_uops = interval.size();
    return est;
  }

 private:
  /// Time the value in flat register `reg` is usable at cluster `c`,
  /// charging (and recording) an inter-cluster copy when it is not yet
  /// resident there, with the same shape as the simulator's copy path:
  /// the copy is created at the consumer's dispatch (never earlier), holds
  /// a producer copy-queue slot until selected (iq_copy_entries window,
  /// issue_width_copy per cycle), crosses hops * link_latency of fabric,
  /// and pays the wakeup/select and register-file-write endpoint cycles.
  /// The endpoint charge is gated on a non-free fabric so a zero-latency
  /// interconnect still collapses exactly onto the single-cluster dataflow
  /// bound (the anchor tests/model_test.cpp pins).
  std::uint64_t operand_ready(std::uint16_t reg, std::uint32_t c,
                              std::uint64_t disp, IntervalEstimate* est) {
    RegState& r = regs_[reg];
    if (r.mask & (1u << c)) return r.avail[c];
    const std::uint32_t src = r.home;
    const std::uint64_t start = std::max(r.avail[src], disp + 1);
    std::uint64_t t = copy_rate_[src].place(start, disp + 1);
    if (limited_bw_) t = link_[src][c].place(t, disp + 1);
    copy_window_[src].push(t);
    const std::uint32_t hops = topology_distance(
        machine_.interconnect.kind, machine_.num_clusters, src, c);
    const std::uint32_t endpoint =
        machine_.interconnect.link_latency > 0 ? 2 : 0;
    const std::uint64_t arrival =
        t + std::uint64_t{hops} * machine_.interconnect.link_latency + endpoint;
    r.avail[c] = arrival;
    r.mask |= 1u << c;
    ++est->copies;
    est->copy_hops += hops;
    return arrival;
  }

  /// Cluster with the smallest share of the last kBalanceWindow assignments
  /// — the model's resource-independent stand-in for the policies'
  /// least-inflight counter.
  std::uint32_t least_loaded() const {
    std::uint32_t best = 0;
    for (std::uint32_t c = 1; c < machine_.num_clusters; ++c) {
      if (recent_[c] < recent_[best]) best = c;
    }
    return best;
  }

  /// Resource-independent steering approximation (see file header of
  /// critpath.hpp). OP mirrors OpPolicy::flat_preferred: one vote per
  /// source operand for every cluster already holding (or already
  /// receiving a copy of) the value, most votes wins, ties and the no-vote
  /// case fall to the least recently loaded cluster. VC mirrors VcPolicy:
  /// a virtual-cluster table remapped to the least loaded cluster at chain
  /// leaders. OB/RHOP follow their static hints.
  std::uint32_t steer(const isa::MicroOp& uop, std::uint64_t index) {
    const std::uint32_t n = machine_.num_clusters;
    std::uint32_t c = n;  // sentinel: fall through to OP-like.
    switch (scheme_) {
      case steer::Scheme::kOneCluster:
        c = 0;
        break;
      case steer::Scheme::kOb:
      case steer::Scheme::kRhop:
        if (uop.hint.has_static_cluster()) {
          c = static_cast<std::uint32_t>(uop.hint.static_cluster) % n;
        }
        break;
      case steer::Scheme::kVc:
        if (uop.hint.has_vc()) {
          int& slot = vc_table_[uop.hint.vc_id];
          if (uop.hint.chain_leader || slot < 0) {
            slot = static_cast<int>(least_loaded());
          }
          c = static_cast<std::uint32_t>(slot) % n;
        } else {
          c = least_loaded();
        }
        break;
      case steer::Scheme::kOp:
      case steer::Scheme::kParallelOp:
        break;
    }
    if (c >= n) {
      std::uint32_t votes[kMaxModelClusters] = {};
      bool any = false;
      for (std::uint8_t s = 0; s < uop.num_srcs; ++s) {
        const RegState& r = regs_[isa::flat_reg(uop.srcs[s])];
        if (!r.has_writer) continue;
        any = true;
        const std::uint32_t weight =
            index - r.write_index < kInFlightWindow ? 2 : 1;
        for (std::uint32_t cand = 0; cand < n; ++cand) {
          if (r.mask & (1u << cand)) votes[cand] += weight;
        }
      }
      if (!any) {
        c = least_loaded();
      } else {
        c = 0;
        for (std::uint32_t cand = 1; cand < n; ++cand) {
          if (votes[cand] > votes[c] ||
              (votes[cand] == votes[c] && recent_[cand] < recent_[c])) {
            c = cand;
          }
        }
        // Stall-over-steer analog: OpPolicy diverts when the preferred
        // cluster's IQ runs hot. The model's stand-in for "hot" is taking
        // more than 1.5x its fair share of the recent assignment window
        // (the simulator's threshold is relative to one cluster's IQ
        // capacity, so the model's must scale with cluster count too).
        if (recent_[c] * 2 * n > 3 * kBalanceWindow) c = least_loaded();
      }
    }
    // Record the assignment in the sliding balance window.
    if (window_.size() < kBalanceWindow) {
      window_.push_back(c);
    } else {
      --recent_[window_[window_pos_]];
      window_[window_pos_] = c;
      window_pos_ = (window_pos_ + 1) % kBalanceWindow;
    }
    ++recent_[c];
    return c;
  }

  const prog::Program& program_;
  const MachineConfig& machine_;
  steer::Scheme scheme_;
  bool limited_bw_ = false;

  std::array<RegState, isa::kNumFlatRegs> regs_{};
  std::array<std::uint32_t, kMaxModelClusters> recent_{};
  std::vector<std::uint32_t> window_;
  std::size_t window_pos_ = 0;
  std::array<int, 256> vc_table_{};
  Stream decode_[2];
  Stream rob_[2];
  Stream commit_[2];
  FreePool lsq_;
  FreePool iq_window_[kMaxModelClusters][2];
  FreePool copy_window_[kMaxModelClusters];
  RatePool iq_rate_[kMaxModelClusters][2];
  RatePool copy_rate_[kMaxModelClusters];
  RatePool link_[kMaxModelClusters][kMaxModelClusters];
};

}  // namespace

std::vector<std::uint32_t> memory_latencies(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint64_t> warm_addrs, const MachineConfig& machine) {
  mem::Cache l1(machine.l1d);
  mem::Cache l2(machine.l2);
  // Same warming rule as MemoryHierarchy::warm: L2 is only touched when L1
  // misses, so the functional contents match the simulator's warmed state.
  for (std::uint64_t addr : warm_addrs) {
    if (!l1.access(addr)) l2.access(addr);
  }
  std::vector<std::uint32_t> extra(interval.size(), 0);
  for (std::size_t i = 0; i < interval.size(); ++i) {
    const isa::MicroOp& uop = program.uop(interval[i].uop);
    if (!uop.is_mem()) continue;
    std::uint32_t lat = machine.memory_latency;
    if (l1.access(interval[i].addr)) {
      lat = machine.l1d.hit_latency;
    } else if (l2.access(interval[i].addr)) {
      lat = machine.l2.hit_latency;
    }
    // Stores still update the caches above (they do in the simulator too),
    // but only loads gate dependent work on the access latency.
    if (uop.is_load()) extra[i] = lat;
  }
  return extra;
}

IntervalEstimate estimate_interval(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> load_extra, const MachineConfig& machine,
    steer::Scheme scheme) {
  VCSTEER_CHECK(load_extra.size() == interval.size());
  Walker walker(program, machine, scheme);
  return walker.walk(interval, load_extra);
}

}  // namespace vcsteer::model
