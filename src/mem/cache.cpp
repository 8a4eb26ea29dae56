#include "mem/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace vcsteer::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config), num_sets_(config.num_sets()) {
  VCSTEER_CHECK_MSG(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0,
                    "cache set count must be a power of two");
  VCSTEER_CHECK_MSG(config_.line_bytes > 0 &&
                        (config_.line_bytes & (config_.line_bytes - 1)) == 0,
                    "cache line size must be a power of two");
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes)));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  tags_.assign(num_sets_ * config_.associativity, kEmpty);
}

bool Cache::contains(std::uint64_t addr) const {
  const std::uint64_t tag = tag_of(addr);
  const std::uint64_t* set = &tags_[set_of(addr) * config_.associativity];
  return std::find(set, set + config_.associativity, tag) !=
         set + config_.associativity;
}

void Cache::reset() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  hits_ = misses_ = 0;
}

void Cache::adopt(const Cache& other) {
  VCSTEER_CHECK(other.tags_.size() == tags_.size() &&
                other.line_shift_ == line_shift_ &&
                other.set_shift_ == set_shift_);
  std::copy(other.tags_.begin(), other.tags_.end(), tags_.begin());
  hits_ = other.hits_;
  misses_ = other.misses_;
}

}  // namespace vcsteer::mem
