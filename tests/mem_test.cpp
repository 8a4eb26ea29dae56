// Tests for the memory hierarchy: cache geometry/LRU behaviour, Table 2
// latencies, port arbitration and functional warming.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"

namespace vcsteer::mem {
namespace {

CacheConfig tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512B.
  return CacheConfig{512, 2, 64, 1};
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.access(0x100));
  EXPECT_TRUE(c.access(0x100));
  EXPECT_TRUE(c.access(0x13f));  // same 64B line
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, SetConflictEvictsLru) {
  Cache c(tiny_cache());
  // Three lines mapping to set 0 (stride = 4 sets * 64B = 256B).
  c.access(0x000);
  c.access(0x100);
  c.access(0x000);  // touch: 0x100 becomes LRU
  c.access(0x200);  // evicts 0x100
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_TRUE(c.contains(0x200));
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(tiny_cache());
  c.access(0x000);
  c.access(0x040);
  c.access(0x080);
  c.access(0x0c0);
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_TRUE(c.contains(0x040));
  EXPECT_TRUE(c.contains(0x080));
  EXPECT_TRUE(c.contains(0x0c0));
}

TEST(Cache, ContainsDoesNotFill) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.contains(0x300));
  EXPECT_FALSE(c.contains(0x300));
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, ResetClears) {
  Cache c(tiny_cache());
  c.access(0x40);
  c.reset();
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

// The stamp-based true-LRU cache the recency-ordered tag store replaced:
// {tag, stamp, valid} per way, invalid ways filled first, else the smallest
// stamp evicted. Kept as the oracle the new store must match access for
// access.
class StampLru {
 public:
  explicit StampLru(const CacheConfig& config)
      : ways_(config.associativity),
        sets_(config.num_sets()),
        line_(config.line_bytes),
        slots_(sets_ * ways_) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / line_;
    Way* base = &slots_[(line % sets_) * ways_];
    const std::uint64_t tag = line / sets_;
    ++tick_;
    Way* victim = base;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.stamp = tick_;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.stamp < victim->stamp) {
        victim = &way;
      }
    }
    *victim = Way{tag, tick_, true};
    return false;
  }

  bool contains(std::uint64_t addr) const {
    const std::uint64_t line = addr / line_;
    const Way* base = &slots_[(line % sets_) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line / sets_) return true;
    }
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };
  std::uint32_t ways_;
  std::uint64_t sets_;
  std::uint64_t line_;
  std::vector<Way> slots_;
  std::uint64_t tick_ = 0;
};

// Seeded address streams over 1-, 4- and 16-way caches of 1 to 4 sets:
// every access's hit/miss, the counters and contains() over the whole
// address range after each access agree with the stamp-based oracle. The
// streams mix reuse of recent lines (hits that reorder a set) with fresh
// lines over a range a few times the capacity (evictions), and a mid-stream
// reset() and adopt() must leave both stores in the same state.
TEST(Cache, RecencyOrderMatchesStampLruOracle) {
  for (const std::uint32_t ways : {1u, 4u, 16u}) {
    for (const std::uint32_t sets : {1u, 2u, 4u}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << ways << " ways, " << sets
                                        << " sets, seed " << seed);
        const CacheConfig config{sets * ways * 64, ways, 64, 1};
        Cache cache(config);
        StampLru oracle(config);
        Rng rng(seed);
        const std::uint64_t lines = 3ull * sets * ways + 1;
        std::vector<std::uint64_t> recent;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        for (int i = 0; i < 3000; ++i) {
          if (i == 1500) {
            cache.reset();
            oracle = StampLru(config);
            hits = misses = 0;
          }
          std::uint64_t addr = rng.below(lines) * 64 + rng.below(64);
          if (!recent.empty() && rng.chance(0.5)) {
            addr = recent[rng.below(recent.size())];
          }
          recent.push_back(addr);
          if (recent.size() > ways) recent.erase(recent.begin());
          const bool hit = oracle.access(addr);
          ASSERT_EQ(cache.access(addr), hit) << "access " << i;
          ++(hit ? hits : misses);
          ASSERT_EQ(cache.hits(), hits);
          ASSERT_EQ(cache.misses(), misses);
          for (std::uint64_t line = 0; line < lines; ++line) {
            ASSERT_EQ(cache.contains(line * 64), oracle.contains(line * 64))
                << "access " << i << " line " << line;
          }
        }
        Cache adopted(config);
        adopted.access(0);
        adopted.adopt(cache);
        EXPECT_EQ(adopted.hits(), cache.hits());
        EXPECT_EQ(adopted.misses(), cache.misses());
        for (std::uint64_t line = 0; line < lines; ++line) {
          EXPECT_EQ(adopted.contains(line * 64), oracle.contains(line * 64));
        }
      }
    }
  }
}

TEST(Cache, Table2GeometriesConstruct) {
  const MachineConfig cfg;
  Cache l1(cfg.l1d);
  Cache l2(cfg.l2);
  EXPECT_EQ(l1.config().num_sets(), 128u);
  EXPECT_EQ(l2.config().num_sets(), 2048u);
}

TEST(Hierarchy, LatenciesMatchTable2) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  // Cold: L1 miss + L2 miss -> memory latency.
  EXPECT_EQ(mem.load_latency(0x1000, 0), cfg.memory_latency);
  // Now resident in both: L1 hit.
  EXPECT_EQ(mem.load_latency(0x1000, 10), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.stats().l1_hits, 1u);
  EXPECT_EQ(mem.stats().l2_misses, 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x1000, 0);
  // Evict 0x1000 from L1 by filling its set (128 sets * 64B = 8KB stride,
  // 4 ways -> 5 distinct lines map to the same set).
  for (int i = 1; i <= 4; ++i) {
    mem.load_latency(0x1000 + i * 8192, 100 * i);
  }
  // L1 misses, L2 still holds it.
  EXPECT_EQ(mem.load_latency(0x1000, 1000), cfg.l2.hit_latency);
  EXPECT_GE(mem.stats().l2_hits, 1u);
}

TEST(Hierarchy, ReadPortContentionDelays) {
  MachineConfig cfg;
  cfg.l1_read_ports = 2;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.warm(0x40);
  mem.warm(0x80);
  // Three loads in the same cycle with 2 read ports: the third slips.
  const auto l1 = mem.load_latency(0x0, 50);
  const auto l2 = mem.load_latency(0x40, 50);
  const auto l3 = mem.load_latency(0x80, 50);
  EXPECT_EQ(l1, cfg.l1d.hit_latency);
  EXPECT_EQ(l2, cfg.l1d.hit_latency);
  EXPECT_EQ(l3, cfg.l1d.hit_latency + 1);
  EXPECT_EQ(mem.stats().port_wait_cycles, 1u);
}

TEST(Hierarchy, WritePortSeparateFromReadPorts) {
  MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.warm(0x40);
  mem.warm(0x80);
  // Two reads + one write in one cycle: all proceed (1 write port free).
  EXPECT_EQ(mem.load_latency(0x0, 7), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.load_latency(0x40, 7), cfg.l1d.hit_latency);
  EXPECT_EQ(mem.store_latency(0x80, 7), cfg.l1d.hit_latency);
  // Second write in the same cycle slips.
  EXPECT_EQ(mem.store_latency(0x80, 7), cfg.l1d.hit_latency + 1);
}

TEST(Hierarchy, PortsFreeUpNextCycle) {
  MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x0);
  mem.load_latency(0x0, 1);
  mem.load_latency(0x0, 1);
  mem.load_latency(0x0, 2);  // new cycle: no wait
  EXPECT_EQ(mem.stats().port_wait_cycles, 0u);
}

TEST(Hierarchy, WarmInstallsWithoutStats) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.warm(0x2000);
  EXPECT_EQ(mem.stats().loads, 0u);
  EXPECT_EQ(mem.load_latency(0x2000, 5), cfg.l1d.hit_latency);
}

TEST(Hierarchy, ResetRestoresColdState) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x3000, 0);
  mem.reset();
  EXPECT_EQ(mem.stats().loads, 0u);
  EXPECT_EQ(mem.load_latency(0x3000, 0), cfg.memory_latency);
}

// adopt_warm_state() overwrites a used hierarchy's caches in place and
// clears its ports and stats: the result behaves exactly like a reset
// hierarchy warmed over the same addresses.
TEST(Hierarchy, AdoptWarmStateNeedsNoPriorReset) {
  const MachineConfig cfg;
  MemoryHierarchy snapshot(cfg);
  MemoryHierarchy reference(cfg);
  for (std::uint64_t a = 0; a < 64; ++a) {
    snapshot.warm(a * 4096);
    reference.warm(a * 4096);
  }
  MemoryHierarchy used(cfg);
  for (std::uint64_t a = 0; a < 64; ++a) used.load_latency(a * 64, 3);
  used.adopt_warm_state(snapshot);
  EXPECT_EQ(used.stats().loads, 0u);
  EXPECT_EQ(used.stats().l1_misses, 0u);
  for (std::uint64_t a = 0; a < 128; ++a) {
    EXPECT_EQ(used.load_latency(a * 2048, a), reference.load_latency(a * 2048, a))
        << "address " << a * 2048;
  }
  EXPECT_EQ(used.stats().port_wait_cycles, reference.stats().port_wait_cycles);
}

TEST(Hierarchy, StatsCountKinds) {
  const MachineConfig cfg;
  MemoryHierarchy mem(cfg);
  mem.load_latency(0x0, 0);
  mem.store_latency(0x40, 1);
  mem.store_latency(0x40, 2);
  EXPECT_EQ(mem.stats().loads, 1u);
  EXPECT_EQ(mem.stats().stores, 2u);
}

}  // namespace
}  // namespace vcsteer::mem
