// Resource-constraint structures of the critical-path walk (critpath.cpp).
// Private to src/model/: not part of the public API, included by the walk
// and by the differential tests that check each structure against a
// brute-force oracle (tests/model_test.cpp).
//
// Each structure answers the same question as its textbook form (a prefix-
// max array, an order statistic over every free time, a per-cycle booking
// map) but keeps only the entries a future query can still read, so cost
// and memory follow the live window of the walk rather than the length of
// the interval or the configured size of the resource.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace vcsteer::model {

/// Resource sizes at or above this (~0u in a MachineConfig), or 0, mean
/// "unlimited": the structure never binds and stores nothing.
inline bool unlimited_resource(std::uint64_t size) {
  return size == 0 || size >= 0xffffffffull;
}

/// Append-only stream of event times for IN-ORDER pipeline stages (decode,
/// commit, ROB release): entries free in stream order, so the k-back
/// constraint reads the running maximum `back` pushes ago. Non-decreasing
/// in the stream index, so a larger `back` (a wider resource) can only
/// yield an earlier, never-larger time. Only the last bit_ceil(back)
/// running maxima are ever read, so they live in a ring that grows with
/// the pushes up to that size.
class Stream {
 public:
  void configure(std::uint64_t back) {
    back_ = unlimited_resource(back) ? 0 : back;
    mask_ = back_ == 0 ? 0 : std::bit_ceil(back_) - 1;
    ring_.clear();
    pushed_ = 0;
    max_ = 0;
  }

  void push(std::uint64_t t) {
    if (back_ == 0) return;
    max_ = std::max(max_, t);
    if (ring_.size() <= mask_) {
      ring_.push_back(max_);  // not yet wrapped: index pushed_ == size().
    } else {
      ring_[pushed_ & mask_] = max_;
    }
    ++pushed_;
  }

  /// Running-max time `back` pushes before the next one; 0 — no
  /// constraint — while fewer than `back` events were pushed or the
  /// resource is unlimited.
  std::uint64_t window_bound() const {
    if (back_ == 0 || pushed_ < back_) return 0;
    return ring_[(pushed_ - back_) & mask_];
  }

  /// Rate constraint: at most `back` stream events per cycle, so the next
  /// event lands strictly after the one `back` pushes ago.
  std::uint64_t rate_bound() const {
    if (back_ == 0 || pushed_ < back_) return 0;
    return ring_[(pushed_ - back_) & mask_] + 1;
  }

 private:
  std::uint64_t back_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t max_ = 0;
  std::vector<std::uint64_t> ring_;
};

/// Order-statistic pool for *window* resources whose slots free OUT of
/// order — issue-queue entries (they leave when they issue, not in dispatch
/// order), the LSQ (loads leave at completion, stores at commit) and the
/// producer copy queues. With capacity C and n recorded free times, the
/// next acquirer waits for the (n-C+1)-th *smallest* free time: the moment
/// enough slots have actually freed, regardless of acquisition order. A
/// prefix-max stream here would model an in-order pipeline: one slow
/// occupant (a dependent of a 500-cycle miss) would serialise everything
/// behind it, which is exactly what an out-of-order core exists to avoid.
///
/// The (n-C+1)-th smallest of n values is the C-th largest, so the pool
/// keeps only the C largest free times, ascending in a ring: the bound is
/// its front, a push evicts the front and inserts from the back. Free
/// times arrive nearly in order, so an insert usually touches only the
/// tail. Storage is min(n, C) entries rounded up to a power of two.
///
/// Monotone in C by construction: a larger capacity selects a smaller
/// order statistic, which is never later.
class FreePool {
 public:
  void configure(std::uint64_t capacity) {
    cap_ = unlimited_resource(capacity) ? 0 : capacity;
    ring_.assign(cap_ == 0 ? 0 : 1, 0);
    head_ = 0;
    size_ = 0;
  }

  /// Earliest time a slot is free for the next acquirer (0: a slot is
  /// already free, or the resource is unlimited).
  std::uint64_t window_bound() const {
    return cap_ != 0 && size_ == cap_ ? ring_[head_] : 0;
  }

  void push(std::uint64_t t) {
    if (cap_ == 0) return;
    if (size_ == cap_) {
      // t at or below the C-th largest leaves the C largest unchanged.
      if (t <= ring_[head_]) return;
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    } else if (size_ == ring_.size()) {
      grow();
    }
    const std::uint64_t mask = ring_.size() - 1;
    std::uint64_t i = size_;
    for (; i > 0; --i) {
      const std::uint64_t prev = ring_[(head_ + i - 1) & mask];
      if (prev <= t) break;
      ring_[(head_ + i) & mask] = prev;
    }
    ring_[(head_ + i) & mask] = t;
    ++size_;
  }

 private:
  void grow() {
    std::vector<std::uint64_t> bigger(ring_.size() * 2);
    for (std::uint64_t i = 0; i < size_; ++i) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  std::uint64_t cap_ = 0;  ///< 0: unlimited.
  std::uint64_t head_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> ring_;  ///< power-of-two ring, ascending.
};

/// Per-cycle capacity for *rate* resources — issue ports, copy-queue issue
/// slots, link bandwidth: at most `width` events in any single cycle, with
/// requests arriving in arbitrary time order (a dependent of a slow load
/// asks for a slot hundreds of cycles after younger, independent ops took
/// theirs). place(ready, floor) returns the earliest cycle >= ready with a
/// free slot and books it — the same greedy oldest-first select the
/// simulator's back-end performs.
///
/// Callers promise a non-decreasing `floor` with every request at or above
/// it (the walk dispatches in order and every request is at least the
/// current micro-op's dispatch + 1), so cycles below the floor are dead.
/// Bookings live in a power-of-two ring of {cycle tag, count, next} slots
/// over the live window; a slot whose tag differs from the cycle, or lies
/// below the floor, is empty. Full cycles forward to a later cycle through
/// `next`, path-compressed, so placement stays near O(1) even when
/// thousands of ready times pile onto the same region. The ring doubles
/// only when two live cycles would share a slot.
class RatePool {
 public:
  void configure(std::uint64_t width) {
    width_ = unlimited_resource(width) ? 0 : width;
    slots_.assign(width_ == 0 ? 0 : kInitialSlots, Slot{});
    floor_ = 0;
  }

  std::uint64_t place(std::uint64_t ready, std::uint64_t floor) {
    if (width_ == 0) return ready;
    floor_ = std::max(floor_, floor);
    VCSTEER_CHECK(ready >= floor_);
    const std::uint64_t t = find(ready);
    Slot& s = claim(t);
    if (++s.count >= width_) s.next = t + 1;
    return t;
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  struct Slot {
    std::uint64_t tag = 0;
    std::uint64_t next = 0;   ///< forward pointer; valid once count is full.
    std::uint64_t count = 0;  ///< bookings in cycle `tag`.
  };

  bool full(const Slot& s, std::uint64_t t) const {
    return s.tag == t && s.count >= width_;
  }

  /// Earliest cycle >= t that may still have a free slot, with path
  /// compression (iterative: chase, then repoint the chain at the root).
  std::uint64_t find(std::uint64_t t) {
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t root = t;
    while (full(slots_[root & mask], root)) root = slots_[root & mask].next;
    while (t != root) {
      Slot& s = slots_[t & mask];
      t = s.next;
      s.next = root;
    }
    return root;
  }

  /// The slot holding cycle t (t >= floor_), taking over an empty or dead
  /// slot, or doubling the ring while another live cycle occupies it.
  Slot& claim(std::uint64_t t) {
    for (;;) {
      Slot& s = slots_[t & (slots_.size() - 1)];
      if (s.tag == t) return s;
      if (s.count == 0 || s.tag < floor_) {
        s = Slot{t, 0, 0};
        return s;
      }
      grow();
    }
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    std::size_t size = old.size() * 2;
    for (;;) {
      slots_.assign(size, Slot{});
      bool collided = false;
      for (const Slot& s : old) {
        if (s.count == 0 || s.tag < floor_) continue;
        Slot& dst = slots_[s.tag & (size - 1)];
        if (dst.count != 0) {
          collided = true;
          break;
        }
        dst = s;
      }
      if (!collided) return;
      size *= 2;
    }
  }

  std::uint64_t width_ = 0;  ///< 0: unlimited.
  std::uint64_t floor_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace vcsteer::model
