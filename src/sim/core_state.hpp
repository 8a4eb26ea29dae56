// Machine state shared by the pipeline-stage components.
//
// The clustered core is assembled from five separately-testable components
// (FrontEnd, SteerStage, ClusterBackend, CopyNetwork, CommitUnit — see
// sim/core.hpp); CoreState is the small piece of state they all read and
// write: the dynamic value table (who produced what, where replicas live),
// the rename table and its cycle-start snapshot, the per-cluster queue and
// register-file occupancy counters, the completion event queue, the cycle
// counter and the run's statistics. Each component owns the state only it
// touches (the ROB/LSQ live in CommitUnit, the fetch pipe in FrontEnd, the
// interconnect in CopyNetwork).
//
// The wakeup/select machinery is event-driven — the structure the clustered
// microarchitecture literature treats as the cycle-time-critical loop (see
// bench/table1_complexity.cpp). Every in-flight Value carries a waiter
// list; when a completion (or copy arrival) publishes the value in a
// cluster, the waiters registered for that (value, cluster) pair are woken
// and, once their last pending source arrives, pushed into their queue's
// seq-ordered ready list. Select then walks the ready list and takes the
// first issue-width eligible entries — O(issue width), independent of queue
// size — instead of rescanning every queue entry per slot. Queue storage is
// a SlotPool per queue: slot-stable entries, a free-list allocator, and the
// intrusive ready links, so a whole run performs no per-entry allocation.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/config.hpp"
#include "isa/uop.hpp"
#include "program/program.hpp"
#include "sim/stats.hpp"
#include "sim/value_table.hpp"

namespace vcsteer::sim {

/// Completion-queue seq marking a copy arrival (no ROB entry to complete).
constexpr std::uint64_t kCopySeq = ~0ULL;

struct IqEntry {
  prog::UopId uop = prog::kInvalidUop;
  std::uint64_t seq = 0;   ///< dispatch order, for age-based select.
  std::uint64_t addr = 0;  ///< memory address (loads/stores).
  std::array<Tag, 2> src_tags{kNoTag, kNoTag};
  Tag dst_tag = kNoTag;
  std::uint8_t num_srcs = 0;
  /// Distinct sources not yet available in this cluster; the entry joins
  /// the ready list when the count reaches zero.
  std::uint8_t waiting_srcs = 0;
  std::uint32_t ready_prev = kNilIdx;
  std::uint32_t ready_next = kNilIdx;
  std::uint64_t select_key() const { return seq; }
};

struct CopyEntry {
  Tag src_tag = kNoTag;
  std::uint8_t to = 0;
  std::uint64_t seq = 0;  ///< age of the dispatching consumer.
  /// Request order, breaking seq ties: one dispatch can put two copies with
  /// the consumer's seq in the same producer queue, and select must prefer
  /// the first-requested one (the order the slot scan used to give).
  std::uint64_t tie = 0;
  /// Earliest select cycle: the source's publish cycle + 1 (wakeup and
  /// select are consecutive cycles — no bypass into the copy network).
  std::uint64_t ready_at = 0;
  std::uint32_t ready_prev = kNilIdx;
  std::uint32_t ready_next = kNilIdx;
  std::pair<std::uint64_t, std::uint64_t> select_key() const {
    return {seq, tie};
  }
};

/// Fixed-capacity slot pool backing one issue queue: slot-stable entries
/// (waiters hold slot indices across cycles), a free-list allocator, and an
/// intrusive doubly-linked ready list kept in select_key() order. alloc and
/// release are O(1); ready_insert scans from the tail, which is short in
/// practice (dispatch-time inserts carry the youngest seq and append in
/// O(1); wakeups arrive in rough age order).
///
/// A pool can be bound to one bit of a shared ready-summary word
/// (CoreState::ready_summary): the bit mirrors "ready list nonempty", so
/// the select phase and the idle-cycle probe test a single register-wide
/// mask instead of walking every queue's head pointer.
template <typename Entry>
class SlotPool {
 public:
  void init(std::uint32_t capacity) {
    slots_.assign(capacity, Entry{});
    free_.reserve(capacity);
    reset();
  }

  /// Mirror this pool's ready-nonempty state into bit `bit` of `word`.
  void bind_ready_summary(std::uint32_t* word, std::uint32_t bit) {
    summary_ = word;
    summary_bit_ = 1u << bit;
  }

  void reset() {
    // Refill the free list with size-1 .. 0 (alloc pops from the back, so
    // the lowest slot is handed out first).
    free_.resize(slots_.size());
    for (std::size_t i = 0; i < free_.size(); ++i) {
      free_[i] = static_cast<std::uint32_t>(free_.size() - 1 - i);
    }
    head_ = tail_ = kNilIdx;
    if (summary_ != nullptr) *summary_ &= ~summary_bit_;
  }

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  std::uint32_t alloc() {
    // Always-on: an empty free list means the used counters desynced from
    // the pool — state corruption that must never be carried forward.
    VCSTEER_CHECK_MSG(!free_.empty(), "slot pool out of entries");
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    slots_[idx] = Entry{};
    return idx;
  }

  void release(std::uint32_t idx) {
    VCSTEER_DCHECK(idx < slots_.size());
    free_.push_back(idx);
  }

  Entry& operator[](std::uint32_t idx) { return slots_[idx]; }
  const Entry& operator[](std::uint32_t idx) const { return slots_[idx]; }

  std::uint32_t ready_head() const { return head_; }

  void ready_insert(std::uint32_t idx) {
    if (summary_ != nullptr) *summary_ |= summary_bit_;
    Entry& e = slots_[idx];
    std::uint32_t after = tail_;
    while (after != kNilIdx && e.select_key() < slots_[after].select_key())
      after = slots_[after].ready_prev;
    e.ready_prev = after;
    if (after == kNilIdx) {
      e.ready_next = head_;
      head_ = idx;
    } else {
      e.ready_next = slots_[after].ready_next;
      slots_[after].ready_next = idx;
    }
    if (e.ready_next == kNilIdx) {
      tail_ = idx;
    } else {
      slots_[e.ready_next].ready_prev = idx;
    }
  }

  void ready_remove(std::uint32_t idx) {
    Entry& e = slots_[idx];
    (e.ready_prev == kNilIdx ? head_ : slots_[e.ready_prev].ready_next) =
        e.ready_next;
    (e.ready_next == kNilIdx ? tail_ : slots_[e.ready_next].ready_prev) =
        e.ready_prev;
    e.ready_prev = e.ready_next = kNilIdx;
    if (summary_ != nullptr && head_ == kNilIdx) *summary_ &= ~summary_bit_;
  }

 private:
  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNilIdx;
  std::uint32_t tail_ = kNilIdx;
  std::uint32_t* summary_ = nullptr;  ///< shared ready-summary word, or null.
  std::uint32_t summary_bit_ = 0;
};

/// One cluster's issue queues and occupancy counters.
struct ClusterState {
  SlotPool<IqEntry> iq_int;
  SlotPool<IqEntry> iq_fp;
  SlotPool<CopyEntry> iq_copy;
  std::uint32_t int_used = 0;
  std::uint32_t fp_used = 0;
  std::uint32_t copy_used = 0;
  std::uint32_t regs_used_int = 0;
  std::uint32_t regs_used_fp = 0;
  std::uint32_t inflight = 0;        ///< dispatched, not yet completed.
  std::uint64_t div_busy_until = 0;  ///< unpipelined divider.
};

struct Completion {
  std::uint64_t cycle;
  std::uint64_t seq;     ///< ROB seq; kCopySeq for copies.
  Tag tag;               ///< value made available.
  std::uint8_t cluster;  ///< where it becomes available.
  bool is_copy_arrival;
};

/// Timing wheel holding pending Completions, replacing a binary heap: push
/// and drain are O(1) amortised with no comparison sorting. A power-of-two
/// ring of per-cycle FIFO buckets covers the near future (the longest event
/// horizon is one memory round trip, ~500 cycles, plus port waits — well
/// under kBuckets); anything further lands in a far-overflow vector that is
/// rescanned every kBuckets/2 cycles, long before its bucket could alias.
/// Correctness relies on the simulator's contract that every event is
/// pushed with cycle > now and every cycle's bucket is drained exactly at
/// that cycle (CommitUnit::complete runs every cycle). Same-cycle events
/// drain in push order instead of heap order — result-identical, since the
/// ready lists they feed are sorted by unique select keys and every other
/// effect of a publish commutes; the golden suite pins this.
class CompletionWheel {
 public:
  void reset() {
    for (auto& b : buckets_) b.clear();
    far_.clear();
    ring_pending_ = 0;
    min_due_ = 0;
  }

  /// Queue `c` (with c.cycle > now) for the drain at cycle c.cycle.
  void push(const Completion& c, std::uint64_t now) {
    VCSTEER_DCHECK(c.cycle > now);
    if (c.cycle - now < kBuckets) {
      buckets_[c.cycle & kMask].push_back(c);
      ++ring_pending_;
      if (c.cycle < min_due_) min_due_ = c.cycle;
    } else {
      far_.push_back(c);
    }
  }

  /// True when the drain at `now` could have work: a ring event may be due
  /// (min_due_ is a lower bound, so this can be conservatively true) or the
  /// periodic far-overflow migration falls on this cycle. When false, the
  /// `now` bucket is provably empty and the completion phase can skip the
  /// bucket-array access entirely — the hot case on every event-free cycle.
  bool maybe_due(std::uint64_t now) const {
    if (!far_.empty() && (now & (kBuckets / 2 - 1)) == 0) return true;
    return ring_pending_ != 0 && min_due_ <= now;
  }

  /// The FIFO of events due exactly at `now`. Also migrates far-overflow
  /// events whose horizon has come within the ring. The caller iterates the
  /// returned bucket (publishes never push new completions) and clears it;
  /// the handout itself retires the events from the pending count.
  std::vector<Completion>& due(std::uint64_t now) {
    if (!far_.empty() && (now & (kBuckets / 2 - 1)) == 0) migrate(now);
    std::vector<Completion>& bucket = buckets_[now & kMask];
    ring_pending_ -= bucket.size();
    // Empty probe with a stale-low cursor: every pending ring event is now
    // proven > now (a due event would sit in this bucket), so advance the
    // bound — without this, maybe_due() would stay conservatively true and
    // the fast path would never re-arm after a drain.
    if (bucket.empty() && ring_pending_ != 0 && min_due_ <= now) {
      min_due_ = now + 1;
    }
    return bucket;
  }

  /// No pending event within the probe horizon of next_due().
  static constexpr std::uint64_t kNone = ~0ULL;

  /// Earliest cycle >= now with a pending event, for the idle-cycle
  /// fast-forward (ClusteredCoreT::skip_idle_cycles). Migrates far events
  /// eagerly so the answer is exact within the ring; with events still
  /// beyond the horizon it returns a conservative re-probe cycle instead of
  /// kNone, so the caller never skips past them.
  ///
  /// `min_due_` is a lower bound on every pending ring event (pushes and
  /// migrations only lower it; the scan only raises it across buckets it
  /// proved empty), so each probe resumes where the last one stopped
  /// instead of rescanning from `now` — without it, a core sleeping on a
  /// memory-latency event walks hundreds of empty buckets per probe.
  std::uint64_t next_due(std::uint64_t now) {
    if (!far_.empty()) migrate(now);
    if (ring_pending_ == 0) return far_.empty() ? kNone : now + kBuckets / 2;
    const std::uint64_t limit = far_.empty() ? kBuckets : kBuckets / 2;
    for (std::uint64_t d = min_due_ > now ? min_due_ - now : 0; d < limit;
         ++d) {
      if (!buckets_[(now + d) & kMask].empty()) {
        min_due_ = now + d;
        return now + d;
      }
    }
    return far_.empty() ? kNone : now + limit;
  }

 private:
  static constexpr std::uint64_t kBuckets = 2048;
  static constexpr std::uint64_t kMask = kBuckets - 1;

  void migrate(std::uint64_t now) {
    std::size_t kept = 0;
    for (const Completion& c : far_) {
      if (c.cycle - now < kBuckets) {
        buckets_[c.cycle & kMask].push_back(c);
        ++ring_pending_;
        if (c.cycle < min_due_) min_due_ = c.cycle;
      } else {
        far_[kept++] = c;
      }
    }
    far_.resize(kept);
  }
  std::array<std::vector<Completion>, kBuckets> buckets_;
  std::vector<Completion> far_;
  std::size_t ring_pending_ = 0;   ///< events in the ring, not yet handed out.
  std::uint64_t min_due_ = 0;      ///< lower bound on pending ring events.
};

/// Which queue a waiter's entry index refers to.
enum class WaiterKind : std::uint8_t { kIqInt, kIqFp, kCopy };

struct CoreState {
  CoreState(const MachineConfig& config, const prog::Program& program);

  /// Back to the post-construction state (a fresh run). Keeps every pool's
  /// storage, so a reused core (harness::TraceExperiment keeps one per
  /// cell) runs without reallocating.
  void reset();

  // ----- value tracking -----
  Tag alloc_value(std::uint8_t home, bool fp) {
    return values.alloc(home, fp);
  }
  /// Frees the physical register in the home cluster and in every cluster
  /// holding (or about to receive) a replica.
  void release_value(Tag tag);

  // ----- event-driven wakeup -----
  /// Register queue entry `entry` (a `kind` slot in `cluster`) to be woken
  /// when `tag` is published in `cluster`.
  void add_waiter(Tag tag, std::uint8_t cluster, WaiterKind kind,
                  std::uint32_t entry);
  /// Make `tag` available in `cluster` as of `cycle` and wake every waiter
  /// registered for that (value, cluster) pair: compute entries whose last
  /// pending source this is join their ready list immediately (select may
  /// pick them this very cycle), copies become selectable next cycle.
  void publish(Tag tag, std::uint8_t cluster, std::uint64_t cycle);

  // ----- stale rename view (parallel-steering ablation) -----
  /// Record that architectural register `flat` was renamed this dispatch
  /// cycle; the stale view picks the change up at the next cycle's
  /// refresh_stale_view(). Only the parallel-steering ablation reads the
  /// stale view (SteeringPolicy::uses_stale_view), so the run arms
  /// `track_stale_view` per policy and every other scheme pays neither the
  /// delta recording here nor the per-cycle apply.
  void note_renamed(std::uint16_t flat) {
    if (track_stale_view) renamed_regs.push_back(flat);
  }
  /// Apply the previous dispatch cycle's rename deltas to stale_home —
  /// O(renames last cycle) instead of re-snapshotting the whole table.
  void refresh_stale_view();

  // ----- queue plumbing -----
  SlotPool<IqEntry>& queue_for(ClusterState& c, isa::OpClass op) {
    return isa::uses_fp_queue(op) ? c.iq_fp : c.iq_int;
  }
  std::uint32_t& used_for(ClusterState& c, isa::OpClass op) {
    return isa::uses_fp_queue(op) ? c.fp_used : c.int_used;
  }
  std::uint32_t iq_capacity(isa::OpClass op) const {
    if (op == isa::OpClass::kCopy) return config.iq_copy_entries;
    return isa::uses_fp_queue(op) ? config.iq_fp_entries
                                  : config.iq_int_entries;
  }

  const MachineConfig& config;
  const prog::Program& program;

  std::vector<ClusterState> clusters;

  /// Ready-list summary: bit (cluster * 3 + kind) is set while that queue's
  /// ready list is nonempty (kind 0 = INT, 1 = FP, 2 = copy; maintained by
  /// the bound SlotPools). The select phase iterates only set clusters and
  /// the idle-cycle probe tests the whole machine with one compare.
  std::uint32_t ready_summary = 0;
  static std::uint32_t ready_bit(std::uint32_t cluster, std::uint32_t kind) {
    return cluster * 3 + kind;
  }

  /// SoA per-value state (sim/value_table.hpp); owns the tag free list.
  ValueTable values;

  /// Waiter chain nodes, pooled across all values (free-listed; grows to
  /// the run's high-water mark once and is then churn-free).
  struct Waiter {
    std::uint32_t entry = kNilIdx;  ///< slot index in the waiting queue.
    std::uint32_t next = kNilIdx;   ///< next waiter of the same value.
    std::uint8_t cluster = 0;       ///< publish cluster this waits for.
    WaiterKind kind = WaiterKind::kIqInt;
  };
  std::vector<Waiter> waiter_nodes;
  std::vector<std::uint32_t> waiter_free;

  /// Request-order counter breaking CopyEntry seq ties (reset per run).
  std::uint64_t copy_ties = 0;

  /// Rename table: architectural register -> tag of current value.
  std::array<Tag, isa::kNumFlatRegs> rename{};
  /// Snapshot of value homes at the start of the dispatch cycle (stale view
  /// for the parallel-steering ablation), maintained incrementally from
  /// `renamed_regs`.
  std::array<int, isa::kNumFlatRegs> stale_home{};
  std::vector<std::uint16_t> renamed_regs;
  /// Armed by run() when the active policy reads the stale view.
  bool track_stale_view = false;

  CompletionWheel completions;

  std::uint64_t cycle = 0;
  SimStats stats;
};

// The wakeup/select primitives below run for nearly every dispatched or
// completed uop; they are defined inline so the cycle loop does not pay a
// cross-TU call per uop (measurable on the fig5 smoke sweep).

inline void CoreState::release_value(Tag tag) {
  VCSTEER_DCHECK(tag < values.size());
  // Every reader of this value has issued by the time its overwriter
  // commits, so no queue entry can still be waiting on it.
  VCSTEER_DCHECK(values.waiters(tag) == kNilIdx);
  const bool fp = values.fp(tag);
  const std::uint8_t holders = static_cast<std::uint8_t>(
      values.copy_mask(tag) | cluster_bit(values.home(tag)));
  for (std::uint32_t c = 0; c < config.num_clusters; ++c) {
    if ((holders & cluster_bit(c)) == 0) continue;
    std::uint32_t& used =
        fp ? clusters[c].regs_used_fp : clusters[c].regs_used_int;
    VCSTEER_DCHECK(used > 0);
    --used;
  }
  values.free_tag(tag);
}

inline void CoreState::add_waiter(Tag tag, std::uint8_t cluster,
                                  WaiterKind kind, std::uint32_t entry) {
  std::uint32_t node;
  if (!waiter_free.empty()) {
    node = waiter_free.back();
    waiter_free.pop_back();
  } else {
    node = static_cast<std::uint32_t>(waiter_nodes.size());
    waiter_nodes.emplace_back();
  }
  Waiter& w = waiter_nodes[node];
  w.entry = entry;
  w.cluster = cluster;
  w.kind = kind;
  std::uint32_t& head = values.waiters(tag);
  w.next = head;
  head = node;
}

inline void CoreState::publish(Tag tag, std::uint8_t cluster,
                               std::uint64_t avail) {
  values.mark_avail(tag, cluster, avail);
  ClusterState& cl = clusters[cluster];
  std::uint32_t* link = &values.waiters(tag);
  while (*link != kNilIdx) {
    const std::uint32_t node = *link;
    Waiter& w = waiter_nodes[node];
    if (w.cluster != cluster) {
      // Waiting for this value in another cluster (its own copy arrival or
      // home completion); it stays chained until that publish.
      link = &w.next;
      continue;
    }
    *link = w.next;
    waiter_free.push_back(node);
    if (w.kind == WaiterKind::kCopy) {
      CopyEntry& e = cl.iq_copy[w.entry];
      // Wakeup this cycle, select no earlier than the next: there is no
      // bypass into the copy network (see CopyNetwork::issue). Completions
      // drain in their own cycle, so `avail` equals the current `cycle`;
      // the max guards the contract should an event ever drain late.
      e.ready_at = std::max(avail, cycle) + 1;
      cl.iq_copy.ready_insert(w.entry);
    } else {
      SlotPool<IqEntry>& pool =
          w.kind == WaiterKind::kIqFp ? cl.iq_fp : cl.iq_int;
      IqEntry& e = pool[w.entry];
      VCSTEER_DCHECK(e.waiting_srcs > 0);
      if (--e.waiting_srcs == 0) pool.ready_insert(w.entry);
    }
  }
}

inline void CoreState::refresh_stale_view() {
  if (renamed_regs.empty()) return;  // stall cycles leave no rename deltas
  // A renamed register always maps to a live value (the new tag cannot be
  // freed before its own overwriter commits), so the lookup never chases
  // kNoTag. Duplicate registers in the delta list are idempotent: rename[]
  // is already final for the cycle, so every store writes the same home.
  for (const std::uint16_t r : renamed_regs) {
    stale_home[r] = values.home(rename[r]);
  }
  renamed_regs.clear();
}

}  // namespace vcsteer::sim
