#include "mem/hierarchy.hpp"

#include "common/check.hpp"

namespace vcsteer::mem {

MemoryHierarchy::MemoryHierarchy(const MachineConfig& config)
    : config_(config), l1_(config.l1d), l2_(config.l2) {}

void MemoryHierarchy::reset() {
  l1_.reset();
  l2_.reset();
  reset_ports_and_stats();
}

void MemoryHierarchy::reset_ports_and_stats() {
  stats_ = HierarchyStats{};
  port_cycle_ = 0;
  reads_used_ = 0;
  write_port_cycle_ = 0;
  writes_used_ = 0;
}

void MemoryHierarchy::warm(std::uint64_t addr) {
  if (!l1_.access(addr)) l2_.access(addr);
}

namespace {
bool same_geometry(const CacheConfig& a, const CacheConfig& b) {
  return a.size_bytes == b.size_bytes && a.associativity == b.associativity &&
         a.line_bytes == b.line_bytes;
}
}  // namespace

bool MemoryHierarchy::warm_compatible(const MemoryHierarchy& other) const {
  return same_geometry(config_.l1d, other.config_.l1d) &&
         same_geometry(config_.l2, other.config_.l2);
}

void MemoryHierarchy::adopt_warm_state(const MemoryHierarchy& other) {
  VCSTEER_CHECK(warm_compatible(other));
  l1_.adopt(other.l1_);
  l2_.adopt(other.l2_);
  reset_ports_and_stats();
}

}  // namespace vcsteer::mem
