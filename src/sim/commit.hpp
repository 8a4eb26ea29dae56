// Commit stage: the re-order buffer (split INT/FP occupancy, one ring
// buffer), the unified load/store queue, store records for store-to-load
// forwarding, and the completion-event drain that publishes produced values
// to the clusters' register files.
//
// Templated on the run's Observer: on_commit fires per retired micro-op,
// on_wakeup per published value (producer completions and copy arrivals
// alike). With NullObserver both hook sites compile away.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "program/program.hpp"
#include "sim/core_state.hpp"
#include "sim/observer.hpp"

namespace vcsteer::sim {

struct RobEntry {
  prog::UopId uop = prog::kInvalidUop;
  Tag dst_tag = kNoTag;
  Tag prev_tag = kNoTag;  ///< previous mapping of dst arch reg.
  std::uint8_t cluster = 0;
  bool fp_slot = false;
  bool completed = false;
  bool is_store = false;
  bool is_load = false;
};

/// In-flight store with (possibly not yet computed) address, for
/// store-to-load forwarding in the cluster back-ends.
struct StoreRecord {
  std::uint64_t seq;
  std::uint64_t addr;
  bool addr_known = false;
};

template <Observer Obs>
class CommitUnit {
 public:
  CommitUnit(CoreState& state, Obs& obs) : state_(state), obs_(obs) {
    // Ring sized to the next power of two so the per-uop (and per
    // skip-probe) seq -> slot mapping is a mask, not an integer division.
    // Occupancy is bounded by the config's entry counts, not the ring size.
    const std::uint32_t capacity =
        state_.config.rob_int_entries + state_.config.rob_fp_entries;
    std::size_t ring = 1;
    while (ring < capacity) ring <<= 1;
    rob_.resize(ring);
    rob_mask_ = ring - 1;
  }

  void reset() {
    rob_head_seq_ = 0;
    next_seq_ = 0;
    rob_int_used_ = rob_fp_used_ = 0;
    lsq_used_ = 0;
    maybe_commit_ = false;
    store_records_.clear();
  }

  /// Retire completed micro-ops at the ROB head, within the commit widths.
  void commit() {
    // maybe_commit_ is conservative-true (set by any completion, recomputed
    // exactly below): when false the head is provably not completed, so the
    // whole phase — including the ROB ring probe — is skipped. This is the
    // common case on every cycle between completion events.
    if (!maybe_commit_) return;
    std::uint32_t int_budget = state_.config.commit_width_int;
    std::uint32_t fp_budget = state_.config.commit_width_fp;
    while (rob_int_used_ + rob_fp_used_ > 0) {
      RobEntry& head = rob_[rob_head_seq_ & rob_mask_];
      if (!head.completed) break;
      std::uint32_t& budget = head.fp_slot ? fp_budget : int_budget;
      if (budget == 0) break;
      --budget;
      if (head.fp_slot) {
        --rob_fp_used_;
      } else {
        --rob_int_used_;
      }
      if (head.is_store) {
        VCSTEER_DCHECK(lsq_used_ > 0);
        --lsq_used_;
        // Stores commit in order; drop the matching (front) record.
        if (!store_records_.empty() &&
            store_records_.front().seq == rob_head_seq_) {
          store_records_.erase(store_records_.begin());
        }
      }
      if (head.prev_tag != kNoTag) state_.release_value(head.prev_tag);
      ++state_.stats.committed_uops;
      if constexpr (Obs::enabled) {
        obs_.on_commit(
            CommitEvent{head.uop, rob_head_seq_, head.cluster, state_.cycle});
      }
      ++rob_head_seq_;
    }
    maybe_commit_ = rob_int_used_ + rob_fp_used_ > 0 &&
                    rob_[rob_head_seq_ & rob_mask_].completed;
  }

  /// Drain completion events up to the current cycle: publish values,
  /// mark ROB entries complete, free cluster-inflight and LSQ slots.
  void complete() {
    // Event-free cycle: the wheel proves the `cycle` bucket empty without
    // touching the bucket array (48 KiB of vectors — a guaranteed cache
    // miss when probed blind every cycle).
    if (!state_.completions.maybe_due(state_.cycle)) return;
    std::vector<Completion>& due = state_.completions.due(state_.cycle);
    for (const Completion& done : due) {
      if (done.tag != kNoTag) {
        state_.publish(done.tag, done.cluster, done.cycle);
        if constexpr (Obs::enabled) {
          obs_.on_wakeup(WakeupEvent{done.tag, done.cluster, state_.cycle,
                                     done.is_copy_arrival});
        }
      }
      if (done.is_copy_arrival) continue;
      RobEntry& entry = rob_[done.seq & rob_mask_];
      VCSTEER_DCHECK(!entry.completed);
      entry.completed = true;
      maybe_commit_ = true;
      ClusterState& cl = state_.clusters[entry.cluster];
      VCSTEER_DCHECK(cl.inflight > 0);
      --cl.inflight;
      if (entry.is_load) {
        VCSTEER_DCHECK(lsq_used_ > 0);
        --lsq_used_;  // loads leave the LSQ once the cache answered
      }
    }
    due.clear();
  }

  // ----- dispatch-side interface (SteerStage) -----
  bool rob_full(bool fp_slot) const {
    return fp_slot ? rob_fp_used_ >= state_.config.rob_fp_entries
                   : rob_int_used_ >= state_.config.rob_int_entries;
  }
  bool lsq_full() const { return lsq_used_ >= state_.config.lsq_entries; }
  /// Seq the next allocate() will assign (copies dispatched alongside a
  /// micro-op are aged with its seq).
  std::uint64_t next_seq() const { return next_seq_; }
  /// Allocates the ROB entry (and LSQ slot / store record for memory ops)
  /// for `entry`; returns its seq. Caller has already checked capacity.
  std::uint64_t allocate(const RobEntry& entry, bool is_mem) {
    const std::uint64_t seq = next_seq_++;
    rob_[seq & rob_mask_] = entry;
    (entry.fp_slot ? rob_fp_used_ : rob_int_used_) += 1;
    if (is_mem) {
      ++lsq_used_;
      if (entry.is_store) {
        store_records_.push_back(StoreRecord{seq, /*addr=*/0, false});
      }
    }
    return seq;
  }

  // ----- issue-side interface (ClusterBackend) -----
  std::vector<StoreRecord>& store_records() { return store_records_; }

  /// True when no micro-op occupies the ROB (the back-end has drained).
  bool empty() const { return rob_int_used_ + rob_fp_used_ == 0; }

  /// True when commit() would retire at least the head this cycle — the
  /// idle-cycle fast-forward must not jump over such a cycle.
  bool head_completed() const {
    return rob_int_used_ + rob_fp_used_ > 0 &&
           rob_[rob_head_seq_ & rob_mask_].completed;
  }

  /// Conservative head_completed(): false proves the head is not completed;
  /// true means a completion landed since commit() last recomputed. The
  /// idle-cycle probe uses this flag instead of the ROB ring probe; a
  /// stale-true merely steps one extra cycle (bit-identical).
  bool maybe_commit() const { return maybe_commit_; }

 private:
  CoreState& state_;
  Obs& obs_;

  // ROB: power-of-two ring buffer with `rob_head_seq_` tracking the seq of
  // the head; `rob_mask_` maps a seq to its slot.
  std::vector<RobEntry> rob_;
  std::uint64_t rob_mask_ = 0;
  std::uint64_t rob_head_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t rob_int_used_ = 0;
  std::uint32_t rob_fp_used_ = 0;
  /// A completion may have made the head retirable (see maybe_commit()).
  bool maybe_commit_ = false;

  std::uint32_t lsq_used_ = 0;
  std::vector<StoreRecord> store_records_;
};

}  // namespace vcsteer::sim
