// Cycle-driven clustered out-of-order core (paper Figure 1 / Table 2),
// composed from explicit pipeline-stage components that share a small
// CoreState (sim/core_state.hpp):
//
//   FrontEnd        trace-driven fetch into the fetch-to-dispatch pipe
//   SteerStage      in-order decode/rename/steer, consults the policy
//   ClusterBackend  per-cluster INT/FP issue + execute
//   CopyNetwork     copy queues + pluggable Interconnect (ideal / bus /
//                   ring / crossbar — see sim/interconnect.hpp)
//   CommitUnit      ROB, unified LSQ, completion drain, in-order commit
//
// The stages run in reverse pipeline order each cycle so a value produced
// in cycle t is visible to consumers in t+1, exactly as in the monolithic
// predecessor of this file; with the ideal interconnect the composition is
// bit-identical to it.
//
// The simulator is trace-driven like the paper's: branch outcomes come from
// the trace, so there is no wrong-path execution; this applies identically
// to every steering scheme under comparison.
//
// ClusteredCoreT is templated on an Observer (sim/observer.hpp) that it
// owns by value and drives at every architectural event. The core and its
// stages guard every hook with `if constexpr (Obs::enabled)`, so
// ClusteredCoreT<NullObserver> compiles to the bare simulator with zero
// observation overhead. The `ClusteredCore` alias used throughout the
// harness carries StatsObserver, which owns the per-cluster occupancy
// accumulation (SimStats::occupancy_sum / copyq_occupancy_sum) plus the
// occupancy histograms and steer provenance that RunResult surfaces.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "mem/hierarchy.hpp"
#include "program/program.hpp"
#include "sim/backend.hpp"
#include "sim/commit.hpp"
#include "sim/copy_network.hpp"
#include "sim/core_state.hpp"
#include "sim/frontend.hpp"
#include "sim/observer.hpp"
#include "sim/stats.hpp"
#include "sim/steer_stage.hpp"
#include "steer/policy.hpp"
#include "workload/trace.hpp"

namespace vcsteer::sim {

/// Wall-clock spans of one run(), filled only when the caller asks for them
/// (a null pointer skips the clock reads entirely). Timing never enters
/// SimStats — those are cached and bit-identical across hosts.
struct RunPhases {
  double warmup_s = 0;    ///< functional cache warming before cycle 0.
  double simulate_s = 0;  ///< the cycle loop itself.
};

template <Observer Obs = StatsObserver>
class ClusteredCoreT : public steer::SteerView {
 public:
  ClusteredCoreT(const MachineConfig& config, const prog::Program& program)
      : config_(config),
        program_(program),
        memory_(config),
        state_(config_, program_),
        frontend_(config_),
        commit_(state_, obs_),
        copies_(state_, obs_),
        steer_(state_, frontend_, commit_, copies_, obs_) {
    VCSTEER_CHECK_MSG(config_.validate().empty(), config_.validate().c_str());
    VCSTEER_CHECK(config_.num_clusters <= kMaxClusters);
    backends_.reserve(config_.num_clusters);
    for (std::uint32_t c = 0; c < config_.num_clusters; ++c) {
      backends_.emplace_back(state_, commit_, memory_, c, obs_);
    }
    reset();
  }

  /// Run one trace segment to completion under `policy`; returns the stats.
  /// The core is fully reset between runs. `warm_addrs` (addresses of the
  /// memory operations preceding the segment in the full trace) functionally
  /// warm the cache hierarchy first, as the SimPoint methodology requires.
  /// `phases`, when non-null, receives the wall-clock warmup/simulate spans.
  SimStats run(std::span<const workload::TraceEntry> trace,
               steer::SteeringPolicy& policy,
               std::span<const std::uint64_t> warm_addrs = {},
               RunPhases* phases = nullptr) {
    return run_warmed(trace, policy, phases, [&] {
      memory_.reset();
      for (const std::uint64_t addr : warm_addrs) memory_.warm(addr);
    });
  }

  /// run() from a warm-state snapshot: adopts `warmed`'s cache contents
  /// (a hierarchy of the same geometry, already warmed over this segment's
  /// warm addresses) instead of replaying the addresses — bit-identical,
  /// since functional warming is deterministic.
  SimStats run(std::span<const workload::TraceEntry> trace,
               steer::SteeringPolicy& policy,
               const mem::MemoryHierarchy& warmed,
               RunPhases* phases = nullptr) {
    return run_warmed(trace, policy, phases,
                      [&] { memory_.adopt_warm_state(warmed); });
  }

  // --- SteerView (what the steering unit can inspect) ---
  std::uint32_t num_clusters() const override { return config_.num_clusters; }
  std::uint32_t iq_occupancy(std::uint32_t cluster,
                             isa::OpClass op) const override {
    VCSTEER_DCHECK(cluster < state_.clusters.size());
    const ClusterState& c = state_.clusters[cluster];
    if (op == isa::OpClass::kCopy) return c.copy_used;
    return isa::uses_fp_queue(op) ? c.fp_used : c.int_used;
  }
  std::uint32_t iq_capacity(isa::OpClass op) const override {
    return state_.iq_capacity(op);
  }
  std::uint32_t inflight(std::uint32_t cluster) const override {
    VCSTEER_DCHECK(cluster < state_.clusters.size());
    return state_.clusters[cluster].inflight;
  }
  int value_home(isa::ArchReg reg) const override {
    const Tag tag = state_.rename[isa::flat_reg(reg)];
    if (tag == kNoTag) return steer::kNoHome;
    return state_.values.home(tag);
  }
  int value_home_stale(isa::ArchReg reg) const override {
    return state_.stale_home[isa::flat_reg(reg)];
  }
  bool value_in_cluster(isa::ArchReg reg,
                        std::uint32_t cluster) const override {
    const Tag tag = state_.rename[isa::flat_reg(reg)];
    if (tag == kNoTag) return true;  // architected cold value: no copy needed
    return state_.values.home(tag) == cluster ||
           ((state_.values.avail_mask(tag) | state_.values.copy_mask(tag)) &
            cluster_bit(cluster));
  }
  bool value_in_flight(isa::ArchReg reg) const override {
    const Tag tag = state_.rename[isa::flat_reg(reg)];
    if (tag == kNoTag) return false;
    return state_.values.avail_mask(tag) == 0;  // producer not completed yet
  }
  std::uint32_t copy_distance(std::uint32_t from,
                              std::uint32_t to) const override {
    return copies_.interconnect().distance(from, to);
  }
  double link_congestion(std::uint32_t from, std::uint32_t to) const override {
    return copies_.interconnect().congestion(from, to);
  }

  const MachineConfig& config() const { return config_; }
  const Interconnect& interconnect() const { return copies_.interconnect(); }
  /// The run's observer sink (histograms, timelines, counts — whatever the
  /// instantiated Obs records). Harvest between run() calls: run() re-arms
  /// it through on_run_begin.
  Obs& observer() { return obs_; }
  const Obs& observer() const { return obs_; }

 private:
  static constexpr std::uint64_t kCycleLimit = 1ULL << 40;  // hang detector

  /// Idle-cycle fast-forward enabled only when the observer opted in
  /// (Obs::cycle_skip_safe); observers recording per-cycle data keep the
  /// full stepping. Results are bit-identical either way.
  static constexpr bool kSkipIdle = [] {
    if constexpr (requires { Obs::cycle_skip_safe; }) {
      return static_cast<bool>(Obs::cycle_skip_safe);
    } else {
      return false;
    }
  }();

  /// The body of both run() forms: reset the core and the policy, reset
  /// and warm the cache hierarchy through `warm`, arm the run, step until the segment
  /// has fully fetched, dispatched and retired, and finalize the stats.
  template <typename WarmFn>
  SimStats run_warmed(std::span<const workload::TraceEntry> trace,
                      steer::SteeringPolicy& policy, RunPhases* phases,
                      WarmFn warm) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0;
    if (phases != nullptr) t0 = Clock::now();
    reset();
    policy.reset();
    trace_ = trace;
    policy_ = &policy;
    state_.track_stale_view = policy.uses_stale_view();
    warm();
    if constexpr (Obs::enabled) obs_.on_run_begin(state_);
    Clock::time_point t1;
    if (phases != nullptr) {
      t1 = Clock::now();
      phases->warmup_s += std::chrono::duration<double>(t1 - t0).count();
    }
    while (!(frontend_.drained(trace_) && commit_.empty())) step();
    state_.stats.cycles = state_.cycle;
    state_.stats.memory = memory_.stats();
    state_.stats.avoided_contended_links = policy_->avoided_contended_links();
    copies_.flush_stats();
    if constexpr (Obs::enabled) obs_.on_run_end(state_);
    policy_ = nullptr;
    trace_ = {};
    if (phases != nullptr) {
      phases->simulate_s +=
          std::chrono::duration<double>(Clock::now() - t1).count();
    }
    return state_.stats;
  }

  /// Advance one cycle (or jump a provably idle span when the observer
  /// allows it).
  void step() {
    if constexpr (kSkipIdle) skip_idle_cycles(trace_);
    phase_cycle_begin();
    phase_commit();
    phase_complete();
    phase_select();
    phase_dispatch();
    phase_fetch();
    phase_cycle_end();
  }

  // ----- pipeline phases, sequenced by step() in reverse pipeline order ---

  void phase_cycle_begin() {
    if constexpr (Obs::enabled) obs_.on_cycle_begin(state_.cycle);
  }
  void phase_commit() { commit_.commit(); }
  void phase_complete() { commit_.complete(); }

  /// Wakeup/select: visit only the (cluster, queue) pairs whose
  /// ready-summary bit is set, in ascending cluster order — the order of
  /// the former dense loop, which is load-bearing because clusters contend
  /// for shared cache ports in issue order. Queues with empty ready lists
  /// contributed nothing to the dense walk, so the masked walk is
  /// bit-identical while skipping the dead calls.
  void phase_select() {
    std::uint32_t rs = state_.ready_summary;
    while (rs != 0) {
      const auto c = static_cast<std::uint32_t>(std::countr_zero(rs)) / 3u;
      const std::uint32_t bits = (rs >> (c * 3)) & 7u;
      backends_[c].issue_some((bits & 1u) != 0, (bits & 2u) != 0);
      if ((bits & 4u) != 0) copies_.issue(c);
      rs &= ~(7u << (c * 3));
    }
  }

  void phase_dispatch() { steer_.dispatch(*policy_, *this); }
  void phase_fetch() { frontend_.fetch(trace_, state_.cycle, obs_); }

  void phase_cycle_end() {
    // Occupancy bookkeeping for balance and copy-network diagnostics now
    // lives in StatsObserver::on_cycle_end (same point of the cycle, same
    // counters — bit-identical to the previously inlined loop).
    if constexpr (Obs::enabled) obs_.on_cycle_end(state_);
    ++state_.cycle;
    VCSTEER_CHECK_MSG(state_.cycle < kCycleLimit, "simulator wedged");
  }

  /// Fast-forward over provably idle cycles. A cycle can be jumped only
  /// when every stage would be a no-op beyond bumping one stall counter:
  /// nothing to fetch (trace drained or pipe full), ROB head not completed,
  /// every IQ/copy ready list empty, no completion due, and dispatch either
  /// has nothing ready (frontend-empty stall) or its head micro-op is
  /// blocked on a pre-policy structural hazard — ROB or LSQ full — that
  /// only a completion event can start clearing. Stalls the policy decides
  /// (stall-over-steer) or that depend on the chosen cluster (IQ/regfile/
  /// copy capacity) are never jumped: proving them constant would mean
  /// invoking the policy. The jump target is the earliest cycle anything
  /// changes — the next completion event or the cycle the oldest in-pipe
  /// entry clears the pipe. Each skipped cycle would have burned exactly
  /// one dispatch stall of the proven reason, so that counter is
  /// bulk-added; the observer accounts its per-cycle accumulation through
  /// on_cycles_skipped. SteeringPolicy::begin_cycle is not called on
  /// jumped cycles (no policy observes idle cycles — the base hook is the
  /// only implementation).
  void skip_idle_cycles(std::span<const workload::TraceEntry> trace) {
    if (frontend_.can_fetch(trace)) return;
    // maybe_commit() is conservative-true, so this can decline a legal jump
    // (the next step simply runs — bit-identical); it never jumps a cycle
    // with real commit work. The ready-summary test replaces the per-queue
    // head walk with one compare.
    if (commit_.maybe_commit()) return;
    if (state_.ready_summary != 0) return;
    const bool dispatch_ready = frontend_.has_ready(state_.cycle);
    std::uint64_t* stall_counter = &state_.stats.frontend_empty;
    if (dispatch_ready) {
      const isa::MicroOp& uop = state_.program.uop(frontend_.front().uop);
      const bool fp = isa::uses_fp_queue(uop.op);
      // Dispatch checks the decode budget before any hazard; a zero-width
      // decode kind stalls silently and is not provably counter-exact here.
      if ((fp ? config_.decode_width_fp : config_.decode_width_int) == 0) {
        return;
      }
      std::uint64_t* memo = steer_.head_stall_counter();
      if (commit_.rob_full(fp)) {
        stall_counter = &state_.stats.rob_stalls;
      } else if (uop.is_mem() && commit_.lsq_full()) {
        stall_counter = &state_.stats.lsq_stalls;
      } else if (memo != nullptr && memo != &state_.stats.frontend_empty) {
        // Last cycle's dispatch stalled on its first micro-op past the
        // ROB/LSQ checks (policy / IQ / regfile / copy capacity), and the
        // machine state feeding that verdict is frozen until the next
        // event, so the identical stall repeats each jumped cycle. A
        // frontend-empty memo is the one invalid carry-over: the head
        // entry has since matured in the pipe, changing the verdict.
        stall_counter = memo;
      } else {
        return;  // stall reason unknown without consulting the policy
      }
    }
    std::uint64_t target = state_.completions.next_due(state_.cycle);
    if (!dispatch_ready && !frontend_.pipe_empty()) {
      target = std::min(target, frontend_.next_ready_cycle());
    }
    if (target == CompletionWheel::kNone || target <= state_.cycle) return;
    const std::uint64_t skipped = target - state_.cycle;
    *stall_counter += skipped;
    if constexpr (Obs::enabled) obs_.on_cycles_skipped(state_, skipped);
    state_.cycle = target;
  }

  /// Everything but the memory hierarchy, which each run() form resets
  /// through its warm step.
  void reset() {
    state_.reset();
    frontend_.reset();
    commit_.reset();
    copies_.reset();
    steer_.reset();
  }

  MachineConfig config_;
  const prog::Program& program_;
  mem::MemoryHierarchy memory_;

  Obs obs_;  // before the stages: they capture Obs& at construction
  CoreState state_;
  FrontEnd frontend_;
  CommitUnit<Obs> commit_;
  CopyNetwork<Obs> copies_;
  SteerStage<Obs> steer_;
  std::vector<ClusterBackend<Obs>> backends_;

  // Armed for the duration of one run().
  std::span<const workload::TraceEntry> trace_{};
  steer::SteeringPolicy* policy_ = nullptr;
};

/// The harness default: occupancy accumulation + steer provenance recorded
/// through the observer layer, bit-identical to the pre-observer simulator.
using ClusteredCore = ClusteredCoreT<StatsObserver>;

}  // namespace vcsteer::sim
