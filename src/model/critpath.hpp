// Analytical critical-path IPC estimator.
//
// The cycle simulator answers "how fast is this config" by replaying every
// micro-op through an event-driven pipeline; this model answers the same
// question by walking the dynamic dependence graph once, in program order,
// and propagating *resource-constraint edges*
// instead of simulating cycles — the technique of the PolyArch/prism
// critical-path tools (compcp.hh / cp_dg_builder.hh): every pipeline
// resource becomes a "k-back" edge tying micro-op i to the completion of
// the micro-op whose departure frees the resource, e.g.
//
//   dispatch[i] >= issue[ same-queue op (iq_entries) back ]      (IQ window)
//   issue[i]    >= issue[ same-queue op (issue_width) back ] + 1 (issue rate)
//   dispatch[i] >= commit[ same-ROB op (rob_entries) back ]      (ROB window)
//
// Three constraint mechanisms, matched to how each resource actually frees
// (model/pools.hpp, private to this module):
//
//   Stream    — k-back running-maximum lookups for IN-ORDER stages (decode
//               rate, ROB window over in-order commits, commit rate): slots
//               free in stream order, so the k-back lookup is exact, and a
//               wider resource reads an earlier, never-larger entry. A ring
//               of the last bit_ceil(k) entries.
//   FreePool  — order statistics for OUT-OF-ORDER windows (issue-queue
//               entries, LSQ, producer copy queues): with capacity C the
//               next acquirer waits for the (n-C+1)-th smallest recorded
//               free time, i.e. the C-th largest, so only the C largest are
//               kept. A prefix-max here would serialise every micro-op
//               behind one dependent of a cache miss — an in-order machine.
//   RatePool  — first-fit per-cycle placement for issue ports, copy-select
//               slots and link bandwidth: earliest cycle >= ready with a
//               free slot, the same greedy oldest-first select the
//               simulator's back-end performs. A ring over the live cycles
//               between the in-order dispatch floor and the latest booking.
//
// Each keeps only what a later query can read, so the walk's cost and
// memory follow the live window, not the interval length or the configured
// resource size. On perfbench's traced model-search run (seed 1, 4-core
// 2.1 GHz Xeon KVM guest, Release, median of 3) that took
// model.ns_per_uop from 396 to 184 and model.cost_ratio (model over
// simulator time per micro-op) from 1.01 to 0.37: with the former
// unordered_map / two-heap / prefix-vector structures the walk cost as
// much per micro-op as the simulator.
//
// Stream and FreePool bounds are monotone in their resource size by
// construction, so predicted cycles cannot exhibit Graham-style anomalies
// through them; tests/model_test.cpp pins monotonicity across every knob
// (including the RatePool-backed widths) on a machine where each one binds,
// which is what makes the model safe for ranking design points.
//
// Steering is approximated per scheme from the same software hints the
// simulator consumes (OB/RHOP static clusters, VC virtual-cluster ids) and
// a deliberately resource-independent OP heuristic — steering decisions
// must not read queue sizes or widths, or the monotonicity above would not
// survive the steering feedback loop.
//
// Inter-cluster operand transfers follow the simulator's copy path: the
// copy is created at the consumer's dispatch, consumes a decode slot of its
// value's kind (the first-order front-end cost of communication-heavy
// steering), holds a producer copy-queue slot that backpressures dispatch,
// waits for the per-cluster copy select width, then crosses hops (a table
// of the same common/config.hpp topology_distance behind
// harness::comm_cost_matrix) times the link latency plus wakeup/regfile-
// write endpoint cycles — the endpoint charge gated on a non-free fabric so
// a zero-latency interconnect collapses exactly onto the single-cluster
// bound.
//
// The walk reads the machine and scheme only through WalkConfig, a
// normalised projection built by walk_config(): two configurations with
// equal WalkConfigs, the same annotated hints and the same memory
// latencies get the same estimate. Ideal, bus and crossbar fabrics (and a
// 2-cluster ring) are all one hop per pair, link bandwidth only binds off
// the ideal fabric and below the copy select's width, and OP-parallel
// steers as OP, so many machines of a
// search collapse onto one WalkConfig; eval::ModelEvaluator walks each
// distinct one once.
//
// What the model does NOT capture (see README "Analytical model & pruned
// search"): L1 port arbitration, store-to-load forwarding, value-table
// timing races, and the exact stall-vs-steer occupancy feedback (the
// steering stand-ins are deliberately resource-independent). Model numbers
// are estimates for *ranking* design points; they are always labelled
// source == "model" and never enter golden fixtures.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "program/program.hpp"
#include "steer/policy.hpp"
#include "workload/trace.hpp"

namespace vcsteer::model {

/// Critical-path estimate of one simulation-point interval.
struct IntervalEstimate {
  std::uint64_t cycles = 0;
  std::uint64_t committed_uops = 0;
  std::uint64_t copies = 0;     ///< inter-cluster operand transfers charged.
  std::uint64_t copy_hops = 0;  ///< topology links those transfers crossed.

  bool operator==(const IntervalEstimate&) const = default;
};

/// Every (machine, scheme) parameter the walk reads, normalised so that
/// configurations the walk cannot tell apart compare equal. The walker is
/// built from this struct alone, so a field it reads can never be missing
/// from the comparison.
struct WalkConfig {
  // Front end and in-order back end.
  std::uint32_t fetch_width = 0;
  std::uint32_t fetch_to_dispatch = 0;
  std::uint32_t decode_width_int = 0;
  std::uint32_t decode_width_fp = 0;
  std::uint32_t rob_int_entries = 0;
  std::uint32_t rob_fp_entries = 0;
  std::uint32_t commit_width_int = 0;
  std::uint32_t commit_width_fp = 0;
  std::uint32_t lsq_entries = 0;
  // Per-cluster windows and ports.
  std::uint32_t num_clusters = 0;
  std::uint32_t iq_int_entries = 0;
  std::uint32_t iq_fp_entries = 0;
  std::uint32_t iq_copy_entries = 0;
  std::uint32_t issue_width_int = 0;
  std::uint32_t issue_width_fp = 0;
  std::uint32_t issue_width_copy = 0;
  /// topology_distance(from, to) at [from * num_clusters + to]; stands in
  /// for the topology kind, which the walk reads only through hop counts.
  std::vector<std::uint32_t> hops;
  std::uint32_t link_latency = 0;
  /// Copies one link accepts per cycle; kUnlimited on the ideal fabric and
  /// at or above issue_width_copy (including ~0u), where no link can bind
  /// and the walk books no link slots.
  std::uint32_t copies_per_link_cycle = 0;
  /// Steering class: kParallelOp is folded into kOp (the walk's OP
  /// heuristic serves both, and custom policies too).
  steer::Scheme scheme = steer::Scheme::kOp;

  static constexpr std::uint32_t kUnlimited = ~0u;

  bool operator==(const WalkConfig&) const = default;
  auto operator<=>(const WalkConfig&) const = default;
};

/// The WalkConfig of `machine` steered by `scheme`.
WalkConfig walk_config(const MachineConfig& machine, steer::Scheme scheme);

/// Functional memory replay: per-interval-entry extra access latency
/// (0 for non-loads), from private L1/L2 LRU caches with `machine`'s
/// geometry, warmed with `warm_addrs` exactly like the simulator warms its
/// hierarchy. Scheme-independent — compute once per (point, machine) and
/// reuse across every scheme's walk.
std::vector<std::uint32_t> memory_latencies(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint64_t> warm_addrs, const MachineConfig& machine);

/// Walks `interval` (program already annotated for the scheme) and returns
/// the resource-constrained critical-path estimate. `load_extra` is the
/// matching memory_latencies() vector. The program's steering hints are
/// the only part of it that differs between schemes.
IntervalEstimate estimate_interval(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> load_extra, const WalkConfig& config);

/// estimate_interval on walk_config(machine, scheme). `scheme` selects the
/// steering approximation; custom policies are approximated as kOp.
IntervalEstimate estimate_interval(
    const prog::Program& program,
    std::span<const workload::TraceEntry> interval,
    std::span<const std::uint32_t> load_extra, const MachineConfig& machine,
    steer::Scheme scheme);

}  // namespace vcsteer::model
