// Set-associative cache with true-LRU replacement.
//
// Latency-only model: an access returns hit/miss and fills on miss; the
// hierarchy turns that into cycles. Geometry comes from CacheConfig
// (Table 2: 32KB/4-way L1D, 2MB/16-way unified L2, 64B lines).
//
// Each set keeps its tags in recency order, most recent first, with kEmpty
// marking a way never filled since the last reset. A hit moves its tag to
// the front; a miss shifts the set down one way, dropping the last tag
// (the LRU line, or an empty way while the set is not yet full), and puts
// the new tag in front. The resident set after every access is exactly
// true LRU's, so hits and misses are too, with 8 bytes of state per way
// and no recency stamps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/config.hpp"

namespace vcsteer::mem {

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up `addr`; on miss the line is filled (evicting LRU). Returns
  /// true on hit. Defined inline below: it runs per simulated memory
  /// access, where the cross-TU call cost is measurable.
  bool access(std::uint64_t addr);

  /// Lookup without fill or LRU update (used by tests and warmup checks).
  bool contains(std::uint64_t addr) const;

  void reset();

  /// Takes over `other`'s contents and counters in place (same geometry;
  /// the tag array is copied into the existing storage).
  void adopt(const Cache& other);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  const CacheConfig& config() const { return config_; }

 private:
  /// Tag of a way that holds no line. Real tags are addresses shifted right
  /// by at least the line offset, so they never reach it.
  static constexpr std::uint64_t kEmpty = ~0ULL;

  // Geometry is power-of-two (checked at construction), so the per-access
  // line/set decomposition is two shifts, not two integer divisions.
  std::uint64_t set_of(std::uint64_t addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  std::uint64_t tag_of(std::uint64_t addr) const {
    return addr >> (line_shift_ + set_shift_);
  }

  CacheConfig config_;
  std::uint64_t num_sets_;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_shift_ = 0;
  /// num_sets * associativity tags, set-major, each set most recent first.
  std::vector<std::uint64_t> tags_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

inline bool Cache::access(std::uint64_t addr) {
  const std::uint64_t tag = tag_of(addr);
  std::uint64_t* set = &tags_[set_of(addr) * config_.associativity];
  std::uint64_t* last = set + config_.associativity - 1;
  std::uint64_t* way = std::find(set, last, tag);
  const bool hit = *way == tag;
  if (hit) {
    ++hits_;
  } else {
    ++misses_;  // `way` is the last way: the LRU line, or an empty way
  }
  std::copy_backward(set, way, way + 1);
  *set = tag;
  return hit;
}

}  // namespace vcsteer::mem
