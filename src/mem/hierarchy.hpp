// Memory hierarchy: unified L1D + L2 + main memory with L1 port contention.
//
// Table 2 of the paper: the L1 data cache and the LSQ are *unified* across
// clusters and reached over dedicated buses, 32KB 4-way 3-cycle L1D with 2
// read + 1 write port, 2MB 16-way 13-cycle unified L2, and >= 500-cycle
// memory. The hierarchy is queried at load/store issue time and returns the
// total access latency, including any cycles spent waiting for a free L1
// port (modelled per-cycle, FIFO among requesters).
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "mem/cache.hpp"

namespace vcsteer::mem {

struct HierarchyStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t port_wait_cycles = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const MachineConfig& config);

  /// Latency in cycles of a load whose address is available at `cycle`
  /// (includes port arbitration, cache lookup and any miss penalty).
  /// Defined inline below — queried once per simulated memory uop.
  std::uint32_t load_latency(std::uint64_t addr, std::uint64_t cycle);

  /// Same for a store. Stores consume the write port; their latency only
  /// holds the LSQ slot (commit does not wait for it).
  std::uint32_t store_latency(std::uint64_t addr, std::uint64_t cycle);

  /// Functional warming: install the line for `addr` in L1/L2 without
  /// touching ports or stats. Used to warm the hierarchy with the trace
  /// prefix preceding a simulation point (standard SimPoint methodology —
  /// cold-start misses would otherwise dominate short intervals).
  void warm(std::uint64_t addr);

  /// True when `other` has identical L1/L2 geometry, so its warmed cache
  /// contents are exactly what warm() over the same address stream would
  /// produce here (warming is deterministic and geometry-only).
  bool warm_compatible(const MemoryHierarchy& other) const;

  /// reset(), then adopt `other`'s cache contents in place of replaying
  /// warm() over the same address stream (a simulation point's warm-state
  /// snapshot): the state is exactly that of a reset hierarchy warmed
  /// locally. Requires warm_compatible(other). The cache arrays are
  /// overwritten in place, never zeroed first.
  void adopt_warm_state(const MemoryHierarchy& other);

  const HierarchyStats& stats() const { return stats_; }
  /// Empties both caches and clears the port state and stats.
  void reset();

 private:
  /// reset() minus the caches: port state and stats only.
  void reset_ports_and_stats();

  std::uint32_t lookup_latency(std::uint64_t addr);
  std::uint32_t arbitrate(std::uint64_t cycle, bool write);

  MachineConfig config_;
  Cache l1_;
  Cache l2_;
  HierarchyStats stats_;

  // Port arbitration state: usage counts for the cycle in `port_cycle_`.
  std::uint64_t port_cycle_ = 0;
  std::uint32_t reads_used_ = 0;
  std::uint64_t write_port_cycle_ = 0;
  std::uint32_t writes_used_ = 0;
};

inline std::uint32_t MemoryHierarchy::lookup_latency(std::uint64_t addr) {
  if (l1_.access(addr)) {
    ++stats_.l1_hits;
    return config_.l1d.hit_latency;
  }
  ++stats_.l1_misses;
  if (l2_.access(addr)) {
    ++stats_.l2_hits;
    return config_.l2.hit_latency;
  }
  ++stats_.l2_misses;
  return config_.memory_latency;
}

inline std::uint32_t MemoryHierarchy::arbitrate(std::uint64_t cycle,
                                                bool write) {
  // Requests are arbitrated in arrival order (the simulator issues in
  // non-decreasing cycle order). (port_cycle_, used_) track the first cycle
  // that still has a free port of each kind; a request that finds its cycle
  // fully subscribed slips forward.
  std::uint64_t* front = write ? &write_port_cycle_ : &port_cycle_;
  std::uint32_t* used = write ? &writes_used_ : &reads_used_;
  const std::uint32_t ports =
      write ? config_.l1_write_ports : config_.l1_read_ports;
  if (cycle > *front) {
    *front = cycle;
    *used = 0;
  }
  while (*used >= ports) {
    ++*front;
    *used = 0;
  }
  ++*used;
  const std::uint32_t wait = static_cast<std::uint32_t>(*front - cycle);
  stats_.port_wait_cycles += wait;
  return wait;
}

inline std::uint32_t MemoryHierarchy::load_latency(std::uint64_t addr,
                                                   std::uint64_t cycle) {
  ++stats_.loads;
  const std::uint32_t wait = arbitrate(cycle, /*write=*/false);
  return wait + lookup_latency(addr);
}

inline std::uint32_t MemoryHierarchy::store_latency(std::uint64_t addr,
                                                    std::uint64_t cycle) {
  ++stats_.stores;
  const std::uint32_t wait = arbitrate(cycle, /*write=*/true);
  return wait + lookup_latency(addr);
}

}  // namespace vcsteer::mem
