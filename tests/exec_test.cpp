// Tests for the parallel experiment-execution engine: thread-pool
// correctness under load, bit-identical parallel vs serial sweeps, cache
// round-trips, and cache invalidation when any configuration field changes.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/cache.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "scratch_dir.hpp"
#include "steer/mod_policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::exec {
namespace {

// ---------------------------------------------------------------- helpers ---

using testing::ScratchDir;

void expect_stats_equal(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.dispatched_uops, b.dispatched_uops);
  EXPECT_EQ(a.copies_generated, b.copies_generated);
  EXPECT_EQ(a.alloc_stalls, b.alloc_stalls);
  EXPECT_EQ(a.policy_stalls, b.policy_stalls);
  EXPECT_EQ(a.rob_stalls, b.rob_stalls);
  EXPECT_EQ(a.lsq_stalls, b.lsq_stalls);
  EXPECT_EQ(a.copyq_stalls, b.copyq_stalls);
  EXPECT_EQ(a.copy_bandwidth_stalls, b.copy_bandwidth_stalls);
  EXPECT_EQ(a.regfile_stalls, b.regfile_stalls);
  EXPECT_EQ(a.frontend_empty, b.frontend_empty);
  EXPECT_EQ(a.dispatched_to, b.dispatched_to);
  EXPECT_EQ(a.occupancy_sum, b.occupancy_sum);
  EXPECT_EQ(a.copies_routed, b.copies_routed);
  EXPECT_EQ(a.copy_hops, b.copy_hops);
  EXPECT_EQ(a.link_busy_cycles, b.link_busy_cycles);
  EXPECT_EQ(a.link_contention_cycles, b.link_contention_cycles);
  EXPECT_EQ(a.copyq_occupancy_sum, b.copyq_occupancy_sum);
  EXPECT_EQ(a.memory.loads, b.memory.loads);
  EXPECT_EQ(a.memory.stores, b.memory.stores);
  EXPECT_EQ(a.memory.l1_hits, b.memory.l1_hits);
  EXPECT_EQ(a.memory.l1_misses, b.memory.l1_misses);
  EXPECT_EQ(a.memory.l2_hits, b.memory.l2_hits);
  EXPECT_EQ(a.memory.l2_misses, b.memory.l2_misses);
  EXPECT_EQ(a.memory.port_wait_cycles, b.memory.port_wait_cycles);
}

/// Exact (bit-level for doubles) equality — the determinism contract.
void expect_results_equal(const harness::RunResult& a,
                          const harness::RunResult& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.copies_per_kuop, b.copies_per_kuop);
  EXPECT_EQ(a.alloc_stalls_per_kuop, b.alloc_stalls_per_kuop);
  EXPECT_EQ(a.policy_stalls_per_kuop, b.policy_stalls_per_kuop);
  EXPECT_EQ(a.copy_hops_per_kuop, b.copy_hops_per_kuop);
  EXPECT_EQ(a.link_contention_per_kuop, b.link_contention_per_kuop);
  EXPECT_EQ(a.committed_uops, b.committed_uops);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.num_points, b.num_points);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.avg_iq_occupancy, b.avg_iq_occupancy);
  EXPECT_EQ(a.avg_copyq_occupancy, b.avg_copyq_occupancy);
  EXPECT_EQ(a.iq_occupancy_hist, b.iq_occupancy_hist);
  EXPECT_EQ(a.steered_with_copy, b.steered_with_copy);
  EXPECT_EQ(a.steered_local, b.steered_local);
  expect_stats_equal(a.last_interval, b.last_interval);
}

/// Tiny but real grid: 2 traces x 1 machine x 3 schemes (one custom).
SweepGrid small_grid() {
  SweepGrid grid;
  const auto profiles = workload::smoke_profiles();
  grid.profiles.assign(profiles.begin(), profiles.begin() + 2);
  grid.machines = {MachineConfig::two_cluster()};
  grid.schemes = {
      harness::SchemeSpec{steer::Scheme::kOp, 0},
      harness::SchemeSpec{steer::Scheme::kVc, 2},
  };
  grid.schemes.emplace_back("MOD3", [](const MachineConfig&) {
    return std::make_unique<steer::ModNPolicy>(3);
  });
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

// -------------------------------------------------------------- ThreadPool ---

TEST(ThreadPool, RunsEveryTaskUnderLoad) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    std::vector<std::future<void>> futures;
    futures.reserve(5000);
    for (int i = 0; i < 5000; ++i) {
      futures.push_back(pool.submit([&count] {
        count.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(count.load(), 5000);
  }
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No explicit wait: ~ThreadPool must run everything already queued.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ExceptionsReachTheFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto ok = pool.submit([] {});
  ok.get();
}

TEST(ThreadPool, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

// ------------------------------------------------------------- determinism ---

TEST(Sweep, ParallelBitIdenticalToSerial) {
  const SweepGrid grid = small_grid();
  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;

  const SweepResult a = run_sweep(grid, serial);
  const SweepResult b = run_sweep(grid, parallel);
  ASSERT_EQ(a.num_points(), b.num_points());
  EXPECT_EQ(a.simulated, a.num_points());
  EXPECT_EQ(b.simulated, b.num_points());
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      expect_results_equal(a.at(t, s), b.at(t, s));
    }
  }
}

TEST(Sweep, SeedSaltShiftsResults) {
  SweepGrid grid = small_grid();
  grid.schemes.resize(1);
  SweepOptions opt;
  SweepOptions salted;
  salted.seed_salt = 1;
  const SweepResult a = run_sweep(grid, opt);
  const SweepResult b = run_sweep(grid, salted);
  EXPECT_NE(a.at(0, 0).cycles, b.at(0, 0).cycles);
}

TEST(Sweep, ResultsIndexedByGridPosition) {
  const SweepGrid grid = small_grid();
  SweepOptions opt;
  opt.jobs = 4;
  const SweepResult result = run_sweep(grid, opt);
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      EXPECT_EQ(result.at(t, s).trace, grid.profiles[t].name);
    }
  }
  EXPECT_EQ(result.at(0, 0).scheme, "OP");
  EXPECT_EQ(result.at(0, 1).scheme, "VC(2->2)");
  EXPECT_EQ(result.at(0, 2).scheme, "MOD3");
}

TEST(Sweep, ProgressReportsEveryJob) {
  SweepGrid grid = small_grid();
  grid.schemes.resize(1);
  std::size_t calls = 0, last_done = 0, last_total = 0;
  SweepOptions opt;
  opt.jobs = 4;
  opt.progress = [&](std::size_t done, std::size_t total) {
    ++calls;
    last_done = done;
    last_total = total;
  };
  run_sweep(grid, opt);
  EXPECT_EQ(calls, grid.profiles.size());
  EXPECT_EQ(last_done, grid.profiles.size());
  EXPECT_EQ(last_total, grid.profiles.size());
}

// ------------------------------------------------------------------ cache ---

TEST(ResultCache, RoundTripsExactly) {
  ScratchDir dir;
  ResultCache cache(dir.path() + "/cache");

  harness::RunResult r;
  r.trace = "trace-x";
  r.scheme = "VC(2->2)";
  r.ipc = 1.0 / 3.0;  // not representable in decimal: %.17g must round-trip
  r.copies_per_kuop = 1e-17;
  r.alloc_stalls_per_kuop = 123.456789012345678;
  r.policy_stalls_per_kuop = 0.1 + 0.2;
  r.committed_uops = 123456789;
  r.cycles = 987654321;
  r.num_points = 3;
  r.num_clusters = 4;
  r.avg_iq_occupancy[0] = 2.0 / 3.0;
  r.avg_copyq_occupancy[3] = 1e-9;
  r.iq_occupancy_hist[1][7] = 4242;
  r.steered_with_copy[2] = 17;
  r.steered_local[0] = 99;
  r.last_interval.cycles = 42;
  r.last_interval.memory.l2_misses = 7;
  r.last_interval.dispatched_to[3] = 11;

  const std::string key = "k1=v1\nk2=v2\n";
  harness::RunResult loaded;
  EXPECT_FALSE(cache.load(key, &loaded));
  cache.store(key, r);
  ASSERT_TRUE(cache.load(key, &loaded));
  expect_results_equal(r, loaded);
}

/// Path of the single entry file inside a cache directory.
std::string only_entry(const std::string& cache_dir) {
  std::string found;
  for (const auto& e : std::filesystem::directory_iterator(cache_dir)) {
    if (e.path().extension() == ".result") {
      EXPECT_TRUE(found.empty()) << "expected exactly one cache entry";
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

// A shard killed mid-write must never poison later runs: store() is
// fsync-and-rename atomic, and even an entry truncated by other means
// (pre-atomic caches, disk faults) is detected and re-simulated instead of
// aborting the assembly run.
TEST(ResultCache, TruncatedEntryIsCorruptAndReplacedByStore) {
  ScratchDir dir;
  const std::string cache_dir = dir.path() + "/cache";
  ResultCache cache(cache_dir);
  harness::RunResult r;
  r.trace = "trace-x";
  r.scheme = "OP";
  r.ipc = 1.5;
  const std::string key = "k1=v1\nk2=v2\n";
  cache.store(key, r);

  const std::string entry = only_entry(cache_dir);
  const auto full_size = std::filesystem::file_size(entry);
  std::filesystem::resize_file(entry, full_size / 2);

  harness::RunResult loaded;
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);
  // The garbage is left in place (deleting could race a concurrent
  // re-publisher) and re-detected until a store() renames over it, after
  // which the entry round-trips again.
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);
  cache.store(key, r);
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kHit);
  expect_results_equal(r, loaded);
}

/// Rewrites the first `name=...` line of a cache entry to `name=<value>`.
void garble_field(const std::string& entry_path, const std::string& name,
                  const std::string& value) {
  std::ifstream in(entry_path);
  std::ostringstream rewritten;
  std::string line;
  bool replaced = false;
  while (std::getline(in, line)) {
    if (!replaced && line.rfind(name + "=", 0) == 0) {
      rewritten << name << '=' << value << '\n';
      replaced = true;
    } else {
      rewritten << line << '\n';
    }
  }
  ASSERT_TRUE(replaced) << "no field " << name << " in " << entry_path;
  std::ofstream out(entry_path, std::ios::trunc);
  out << rewritten.str();
}

// Regression: get_u64/get_double used a lenient strtoull/strtod with no
// endptr check, so "12x9" decoded as 12 and "" as 0 — a garbled value
// became a plausible result instead of kCorrupt.
TEST(ResultCache, TrailingGarbageValueIsCorruptNotSilentlyDecoded) {
  ScratchDir dir;
  const std::string cache_dir = dir.path() + "/cache";
  ResultCache cache(cache_dir);
  harness::RunResult r;
  r.trace = "trace-x";
  r.scheme = "OP";
  r.ipc = 1.5;
  r.cycles = 1290;
  const std::string key = "k1=v1\n";
  cache.store(key, r);

  garble_field(only_entry(cache_dir), "cycles", "12x9");
  harness::RunResult loaded;
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);

  // store() heals it, then a garbled double is detected the same way.
  cache.store(key, r);
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kHit);
  garble_field(only_entry(cache_dir), "ipc", "1.5garbage");
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);
}

TEST(ResultCache, TruncatedDigitsAndEmptyValuesAreCorrupt) {
  ScratchDir dir;
  const std::string cache_dir = dir.path() + "/cache";
  ResultCache cache(cache_dir);
  harness::RunResult r;
  r.trace = "trace-x";
  r.scheme = "OP";
  r.committed_uops = 123456;
  const std::string key = "k1=v1\n";
  cache.store(key, r);
  const std::string entry = only_entry(cache_dir);

  // An empty value must not decode as 0.
  garble_field(entry, "committed_uops", "");
  harness::RunResult loaded;
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);

  // A signed/whitespace-prefixed value is not canonical u64 text either
  // (strtoull would happily accept both).
  cache.store(key, r);
  garble_field(only_entry(cache_dir), "committed_uops", "-3");
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);
  cache.store(key, r);
  garble_field(only_entry(cache_dir), "committed_uops", " 7");
  EXPECT_EQ(cache.lookup(key, &loaded), CacheLookup::kCorrupt);
}

std::uint64_t colliding_hash(std::string_view) { return 0x1234; }

// Regression: path_for keyed files on the 64-bit hash only, so two keys
// with the same hash alternately overwrote each other's entry (each lookup
// a kMiss -> re-simulate -> store -> evict the other) forever. Colliding
// keys must coexist via the collision-suffixed probe chain.
TEST(ResultCache, HashCollisionKeysCoexistInsteadOfThrashing) {
  ScratchDir dir;
  ResultCache cache(dir.path() + "/cache", &colliding_hash);

  harness::RunResult ra;
  ra.trace = "trace-a";
  ra.scheme = "OP";
  ra.ipc = 1.0;
  harness::RunResult rb;
  rb.trace = "trace-b";
  rb.scheme = "VC(2->2)";
  rb.ipc = 2.0;
  const std::string key_a = "point=a\n";
  const std::string key_b = "point=b\n";

  cache.store(key_a, ra);
  cache.store(key_b, rb);  // same hash: must land on a suffixed sibling

  harness::RunResult loaded;
  ASSERT_EQ(cache.lookup(key_a, &loaded), CacheLookup::kHit);
  expect_results_equal(ra, loaded);
  ASSERT_EQ(cache.lookup(key_b, &loaded), CacheLookup::kHit);
  expect_results_equal(rb, loaded);

  // Re-storing either key updates its own slot without evicting the other.
  ra.ipc = 3.0;
  cache.store(key_a, ra);
  ASSERT_EQ(cache.lookup(key_a, &loaded), CacheLookup::kHit);
  EXPECT_EQ(loaded.ipc, 3.0);
  ASSERT_EQ(cache.lookup(key_b, &loaded), CacheLookup::kHit);
  expect_results_equal(rb, loaded);

  // Both entries share the hash-named base: base + one suffixed sibling.
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(key_a, 0)));
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(key_b, 1)));

  // A third colliding key never stored is a miss, not corrupt.
  EXPECT_EQ(cache.lookup("point=c\n", &loaded), CacheLookup::kMiss);
}

TEST(ResultCache, EncodeDecodeRoundTripsAndRejectsTruncation) {
  harness::RunResult r;
  r.trace = "t";
  r.scheme = "OP";
  r.ipc = 1.0 / 3.0;
  r.committed_uops = 42;
  const std::string text = encode_result(r);
  harness::RunResult back;
  ASSERT_TRUE(decode_result(text, &back));
  expect_results_equal(r, back);
  EXPECT_FALSE(decode_result(text.substr(0, text.size() / 2), &back));
  EXPECT_FALSE(decode_result("", &back));
}

// Regression: num_clusters was narrowed to 32 bits unchecked, so 9 decoded
// as a hit whose readers then indexed past the kMaxClusters-sized
// per-cluster arrays, and 2^32 + 1 silently became 1.
TEST(ResultCache, OutOfRangeClusterCountIsCorrupt) {
  harness::RunResult r;
  r.trace = "t";
  r.scheme = "OP";
  r.ipc = 1.5;
  r.num_clusters = sim::kMaxClusters;
  const std::string text = encode_result(r);
  const std::string field =
      "num_clusters=" + std::to_string(sim::kMaxClusters) + "\n";
  ASSERT_NE(text.find(field), std::string::npos);
  harness::RunResult back;
  ASSERT_TRUE(decode_result(text, &back));
  EXPECT_EQ(back.num_clusters, sim::kMaxClusters);

  ScratchDir dir;
  const std::string cache_dir = dir.path() + "/cache";
  ResultCache cache(cache_dir);
  const std::string key = "k1=v1\n";
  for (const std::string& bad :
       {std::to_string(sim::kMaxClusters + 1), std::string("4294967297")}) {
    SCOPED_TRACE(bad);
    std::string garbled = text;
    garbled.replace(garbled.find(field), field.size(),
                    "num_clusters=" + bad + "\n");
    EXPECT_FALSE(decode_result(garbled, &back));

    cache.store(key, r);
    garble_field(only_entry(cache_dir), "num_clusters", bad);
    EXPECT_EQ(cache.lookup(key, &back), CacheLookup::kCorrupt);
  }
}

TEST(ResultCache, KeyMismatchIsAMiss) {
  ScratchDir dir;
  ResultCache cache(dir.path() + "/cache");
  harness::RunResult r;
  r.trace = "t";
  cache.store("key-a\n", r);
  harness::RunResult loaded;
  EXPECT_FALSE(cache.load("key-b\n", &loaded));
}

TEST(CacheKey, SensitiveToEveryAxis) {
  const workload::WorkloadProfile profile = workload::smoke_profiles()[0];
  const MachineConfig machine = MachineConfig::two_cluster();
  const harness::SchemeSpec spec{steer::Scheme::kVc, 2};
  const harness::SimBudget budget;
  const std::string base = cache_key(profile, machine, spec, budget);

  // Stable across calls.
  EXPECT_EQ(base, cache_key(profile, machine, spec, budget));

  {
    workload::WorkloadProfile p2 = profile;
    p2.working_set_kb += 1;
    EXPECT_NE(base, cache_key(p2, machine, spec, budget));
  }
  {
    workload::WorkloadProfile p2 = profile;
    p2.seed_salt += 1;
    EXPECT_NE(base, cache_key(p2, machine, spec, budget));
  }
  {
    MachineConfig m2 = machine;
    m2.interconnect.link_latency += 1;
    EXPECT_NE(base, cache_key(profile, m2, spec, budget));
  }
  {
    MachineConfig m2 = machine;
    m2.op_occupancy_threshold += 0.01;
    EXPECT_NE(base, cache_key(profile, m2, spec, budget));
  }
  {
    harness::SchemeSpec s2 = spec;
    s2.num_vcs = 4;
    EXPECT_NE(base, cache_key(profile, machine, s2, budget));
  }
  {
    harness::SimBudget b2 = budget;
    b2.interval_uops /= 2;
    EXPECT_NE(base, cache_key(profile, machine, spec, b2));
  }
  EXPECT_NE(base, cache_key(profile, machine, spec, budget, "MOD3"));
}

// Every MachineConfig field must enter the cache key: a field the key misses
// would silently alias cached results across genuinely different machines.
// When adding a config field, extend both cache_key() and this list.
TEST(CacheKey, SensitiveToEveryMachineField) {
  const workload::WorkloadProfile profile = workload::smoke_profiles()[0];
  const MachineConfig machine = MachineConfig::two_cluster();
  const harness::SchemeSpec spec{steer::Scheme::kOp, 0};
  const harness::SimBudget budget;
  const std::string base = cache_key(profile, machine, spec, budget);

  using Mutation = std::pair<const char*, std::function<void(MachineConfig&)>>;
  const std::vector<Mutation> mutations = {
      {"fetch_width", [](MachineConfig& m) { m.fetch_width += 1; }},
      {"fetch_to_dispatch", [](MachineConfig& m) { m.fetch_to_dispatch += 1; }},
      {"decode_width_int", [](MachineConfig& m) { m.decode_width_int += 1; }},
      {"decode_width_fp", [](MachineConfig& m) { m.decode_width_fp += 1; }},
      {"rob_int_entries", [](MachineConfig& m) { m.rob_int_entries += 1; }},
      {"rob_fp_entries", [](MachineConfig& m) { m.rob_fp_entries += 1; }},
      {"commit_width_int", [](MachineConfig& m) { m.commit_width_int += 1; }},
      {"commit_width_fp", [](MachineConfig& m) { m.commit_width_fp += 1; }},
      {"num_clusters", [](MachineConfig& m) { m.num_clusters += 1; }},
      {"iq_int_entries", [](MachineConfig& m) { m.iq_int_entries += 1; }},
      {"iq_fp_entries", [](MachineConfig& m) { m.iq_fp_entries += 1; }},
      {"iq_copy_entries", [](MachineConfig& m) { m.iq_copy_entries += 1; }},
      {"issue_width_int", [](MachineConfig& m) { m.issue_width_int += 1; }},
      {"issue_width_fp", [](MachineConfig& m) { m.issue_width_fp += 1; }},
      {"issue_width_copy", [](MachineConfig& m) { m.issue_width_copy += 1; }},
      {"regfile_int", [](MachineConfig& m) { m.regfile_int += 1; }},
      {"regfile_fp", [](MachineConfig& m) { m.regfile_fp += 1; }},
      {"interconnect.kind",
       [](MachineConfig& m) { m.interconnect.kind = Topology::kRing; }},
      {"interconnect.link_latency",
       [](MachineConfig& m) { m.interconnect.link_latency += 1; }},
      {"interconnect.copies_per_link_cycle",
       [](MachineConfig& m) { m.interconnect.copies_per_link_cycle += 1; }},
      {"steer.topology_aware",
       [](MachineConfig& m) { m.steer.topology_aware = true; }},
      {"steer.contention_weight",
       [](MachineConfig& m) { m.steer.contention_weight += 0.5; }},
      {"l1d.size_bytes", [](MachineConfig& m) { m.l1d.size_bytes *= 2; }},
      {"l1d.associativity", [](MachineConfig& m) { m.l1d.associativity *= 2; }},
      {"l1d.line_bytes", [](MachineConfig& m) { m.l1d.line_bytes *= 2; }},
      {"l1d.hit_latency", [](MachineConfig& m) { m.l1d.hit_latency += 1; }},
      {"l2.size_bytes", [](MachineConfig& m) { m.l2.size_bytes *= 2; }},
      {"l2.associativity", [](MachineConfig& m) { m.l2.associativity *= 2; }},
      {"l2.line_bytes", [](MachineConfig& m) { m.l2.line_bytes *= 2; }},
      {"l2.hit_latency", [](MachineConfig& m) { m.l2.hit_latency += 1; }},
      {"memory_latency", [](MachineConfig& m) { m.memory_latency += 1; }},
      {"lsq_entries", [](MachineConfig& m) { m.lsq_entries += 1; }},
      {"l1_read_ports", [](MachineConfig& m) { m.l1_read_ports += 1; }},
      {"l1_write_ports", [](MachineConfig& m) { m.l1_write_ports += 1; }},
      {"op_occupancy_threshold",
       [](MachineConfig& m) { m.op_occupancy_threshold += 0.01; }},
  };
  for (const auto& [name, mutate] : mutations) {
    MachineConfig mutated = machine;
    mutate(mutated);
    EXPECT_NE(base, cache_key(profile, mutated, spec, budget))
        << "cache key is blind to MachineConfig field " << name;
  }
}

TEST(Sweep, WarmCacheSkipsAllSimulation) {
  ScratchDir dir;
  const SweepGrid grid = small_grid();
  SweepOptions opt;
  opt.jobs = 2;
  opt.cache_dir = dir.path() + "/cache";

  const SweepResult cold = run_sweep(grid, opt);
  EXPECT_EQ(cold.simulated, cold.num_points());
  EXPECT_EQ(cold.cache_hits, 0u);

  const SweepResult warm = run_sweep(grid, opt);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.cache_hits, warm.num_points());
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      expect_results_equal(cold.at(t, s), warm.at(t, s));
    }
  }
}

TEST(Sweep, ChangedConfigMissesCache) {
  ScratchDir dir;
  SweepGrid grid = small_grid();
  grid.schemes.resize(1);
  SweepOptions opt;
  opt.cache_dir = dir.path() + "/cache";

  const SweepResult cold = run_sweep(grid, opt);
  EXPECT_EQ(cold.simulated, cold.num_points());

  // A machine change invalidates every point...
  SweepGrid changed = grid;
  changed.machines[0].interconnect.link_latency += 1;
  const SweepResult miss = run_sweep(changed, opt);
  EXPECT_EQ(miss.simulated, miss.num_points());
  EXPECT_EQ(miss.cache_hits, 0u);

  // ...while the unchanged grid still hits, and a budget change misses again.
  const SweepResult warm = run_sweep(grid, opt);
  EXPECT_EQ(warm.cache_hits, warm.num_points());
  SweepGrid rebudget = grid;
  rebudget.budget.interval_uops /= 2;
  const SweepResult miss2 = run_sweep(rebudget, opt);
  EXPECT_EQ(miss2.cache_hits, 0u);
}

TEST(Sweep, ShardsPartitionJobsAndAssembleFromSharedCache) {
  ScratchDir dir;
  SweepGrid grid = small_grid();  // 2 traces x 1 machine x 3 schemes
  grid.machines.push_back(MachineConfig::four_cluster());  // -> 4 jobs

  // Reference: one unsharded, uncached sweep.
  const SweepResult full = run_sweep(grid, SweepOptions{});
  EXPECT_EQ(full.skipped, 0u);

  // Two shard "processes" sharing the cache dir split the 4 jobs exactly.
  SweepOptions shard;
  shard.cache_dir = dir.path() + "/cache";
  shard.shard_count = 2;
  std::size_t simulated = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    shard.shard_index = i;
    const SweepResult part = run_sweep(grid, shard);
    EXPECT_EQ(part.simulated + part.skipped, part.num_points());
    EXPECT_EQ(part.skipped, part.num_points() / 2);
    simulated += part.simulated;
    // The shard's own slots carry real results; other-shard slots are empty.
    for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
      for (std::size_t m = 0; m < grid.machines.size(); ++m) {
        const bool mine =
            (t * grid.machines.size() + m) % shard.shard_count == i;
        for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
          if (mine) {
            expect_results_equal(full.at(t, m, s), part.at(t, m, s));
          } else {
            EXPECT_TRUE(part.at(t, m, s).trace.empty());
          }
        }
      }
    }
  }
  EXPECT_EQ(simulated, full.num_points());

  // A final unsharded run assembles every point from the shared cache.
  SweepOptions assemble;
  assemble.cache_dir = shard.cache_dir;
  const SweepResult warm = run_sweep(grid, assemble);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.cache_hits, warm.num_points());
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        expect_results_equal(full.at(t, m, s), warm.at(t, m, s));
      }
    }
  }
}

TEST(Sweep, CorruptCacheEntryIsResimulatedNotFatal) {
  ScratchDir dir;
  SweepGrid grid = small_grid();
  grid.schemes.resize(1);  // one entry file per trace
  SweepOptions opt;
  opt.cache_dir = dir.path() + "/cache";
  const SweepResult cold = run_sweep(grid, opt);
  EXPECT_EQ(cold.cache_corrupt, 0u);

  // Truncate one entry as if a writer had died mid-write on a cache
  // without atomic stores.
  std::string victim;
  for (const auto& e : std::filesystem::directory_iterator(opt.cache_dir)) {
    victim = e.path().string();
    break;
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(victim,
                               std::filesystem::file_size(victim) / 2);

  const SweepResult warm = run_sweep(grid, opt);
  EXPECT_EQ(warm.cache_corrupt, 1u);
  EXPECT_EQ(warm.simulated, 1u);
  EXPECT_EQ(warm.cache_hits, warm.num_points() - 1);
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    expect_results_equal(cold.at(t, 0), warm.at(t, 0));
  }

  // The re-simulated point was stored back: the next run is pure hits.
  const SweepResult healed = run_sweep(grid, opt);
  EXPECT_EQ(healed.cache_corrupt, 0u);
  EXPECT_EQ(healed.simulated, 0u);
  EXPECT_EQ(healed.cache_hits, healed.num_points());
}

TEST(Sweep, PartialCacheSimulatesOnlyMissing) {
  ScratchDir dir;
  SweepGrid grid = small_grid();
  grid.schemes.resize(1);
  SweepOptions opt;
  opt.cache_dir = dir.path() + "/cache";
  run_sweep(grid, opt);

  // Add a second scheme: the OP points hit, the new points simulate.
  grid.schemes.push_back(harness::SchemeSpec{steer::Scheme::kVc, 2});
  const SweepResult mixed = run_sweep(grid, opt);
  EXPECT_EQ(mixed.cache_hits, grid.profiles.size());
  EXPECT_EQ(mixed.simulated, grid.profiles.size());
}

// ------------------------------------------------------ queue / pull mode ---

/// In-process JobQueue: a fixed list of job indices handed out in order.
/// `grant_limit` caps how many jobs this queue grants (simulating the rest
/// being stolen by other workers).
class VectorQueue final : public JobQueue {
 public:
  VectorQueue(std::size_t njobs, std::size_t grant_limit)
      : njobs_(njobs), grant_limit_(grant_limit) {}

  bool acquire(std::size_t* job) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (next_ >= njobs_ || next_ >= grant_limit_) return false;
    *job = next_++;
    return true;
  }
  void complete(std::size_t job) override {
    std::lock_guard<std::mutex> lock(mutex_);
    completed_.push_back(job);
  }
  std::vector<std::size_t> completed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t njobs_;
  std::size_t grant_limit_;
  std::size_t next_ = 0;
  std::vector<std::size_t> completed_;
};

TEST(Sweep, QueueModeBitIdenticalToStaticRun) {
  ScratchDir dir;
  const SweepGrid grid = small_grid();
  const std::size_t njobs = grid.profiles.size() * grid.machines.size();

  SweepOptions pull;
  pull.jobs = 4;
  pull.cache_dir = dir.path() + "/cache";
  VectorQueue queue(njobs, njobs);
  pull.queue = &queue;
  const SweepResult pulled = run_sweep(grid, pull);
  EXPECT_EQ(pulled.jobs_pulled, njobs);
  EXPECT_EQ(pulled.skipped, 0u);
  EXPECT_EQ(pulled.simulated, pulled.num_points());
  EXPECT_EQ(queue.completed().size(), njobs);

  const SweepResult serial = run_sweep(grid, SweepOptions{});
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      expect_results_equal(serial.at(t, s), pulled.at(t, s));
    }
  }
}

TEST(Sweep, QueueDrainLeavesUnpulledCellsForAssembly) {
  ScratchDir dir;
  const SweepGrid grid = small_grid();
  const std::size_t njobs = grid.profiles.size() * grid.machines.size();
  ASSERT_GE(njobs, 2u);

  // This worker is granted only the first job; the "other worker" runs the
  // rest into the same cache.
  SweepOptions opt;
  opt.cache_dir = dir.path() + "/cache";
  VectorQueue queue(njobs, 1);
  opt.queue = &queue;
  const SweepResult partial = run_sweep(grid, opt);
  EXPECT_EQ(partial.jobs_pulled, 1u);
  EXPECT_EQ(partial.skipped, (njobs - 1) * grid.schemes.size());
  EXPECT_EQ(partial.simulated, grid.schemes.size());

  // Assembly pass: no queue, same store — every missing cell must fill in,
  // simulating only what no worker published.
  SweepOptions assemble;
  assemble.cache_dir = opt.cache_dir;
  const SweepResult full = run_sweep(grid, assemble);
  EXPECT_EQ(full.cache_hits, grid.schemes.size());
  EXPECT_EQ(full.simulated, (njobs - 1) * grid.schemes.size());
  const SweepResult serial = run_sweep(grid, SweepOptions{});
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
      expect_results_equal(serial.at(t, s), full.at(t, s));
    }
  }
}

TEST(Sweep, GridFingerprintIdentifiesTheSweep) {
  const SweepGrid grid = small_grid();
  const std::uint64_t base = grid_fingerprint(grid, 0);
  EXPECT_EQ(base, grid_fingerprint(grid, 0));  // deterministic
  EXPECT_NE(base, grid_fingerprint(grid, 7));  // salt shifts the identity
  SweepGrid other = grid;
  other.machines = {MachineConfig::four_cluster()};
  EXPECT_NE(base, grid_fingerprint(other, 0));
  SweepGrid fewer = grid;
  fewer.schemes.resize(1);
  EXPECT_NE(base, grid_fingerprint(fewer, 0));
}

// ------------------------------------------------------------- ResultSink ---

TEST(ResultSink, JsonCarriesResultsAndTables) {
  const SweepGrid grid = small_grid();
  SweepOptions opt;
  const SweepResult sweep = run_sweep(grid, opt);

  ResultSink sink("exec_test");
  sink.add_sweep(sweep);
  stats::Table table = sink.raw_table("raw");
  EXPECT_EQ(table.num_rows(), sweep.num_points());
  sink.add_table(table);

  std::ostringstream os;
  sink.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"exec_test\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":["), std::string::npos);
  EXPECT_NE(json.find("\"tables\":[{\"title\":\"raw\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme\":\"MOD3\""), std::string::npos);
}


TEST(RunSummary, JsonCarriesSweepCountersAndShardStatus) {
  RunSummary s;
  s.bench = "fig7_fourcluster";
  s.ok = true;
  s.wall_seconds = 1.5;
  s.points = 25;
  s.simulated = 0;
  s.cache_hits = 25;
  s.uops = 1500000;
  s.trace_builds = 3;
  s.traces = 3;
  s.schemes["MOD3"] = {750000, 0.25};
  s.schemes["VC-STEER"] = {750000, 0.5};
  s.launch_workers = 2;
  s.launch_max_retries = 2;
  WorkerStatus w0;
  w0.index = 0;
  w0.attempts = 1;
  w0.ok = true;
  w0.exit_code = 0;
  WorkerStatus w1;
  w1.index = 1;
  w1.attempts = 2;
  w1.ok = true;
  w1.exit_code = 0;
  w1.term_signal = 0;
  s.shards = {w0, w1};

  std::ostringstream os;
  write_summary_json(os, s);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\":\"fig7_fourcluster\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"sweep\":{\"points\":25,\"simulated\":0,"
                      "\"cache_hits\":25,\"skipped\":0,"
                      "\"corrupt_recovered\":0,\"uops\":1500000}"),
            std::string::npos);
  EXPECT_NE(json.find("\"events\":{\"experiments\":0,\"trace_builds\":3,"
                      "\"traces\":3,\"cycles\":0}"),
            std::string::npos);
  // Per-scheme attribution: each label carries its own uop count and
  // simulate span so perf tooling stops dividing by one shared wall clock.
  EXPECT_NE(json.find("\"schemes\":{\"MOD3\":{\"uops\":750000,"
                      "\"simulate_s\":0.25}"),
            std::string::npos);
  EXPECT_NE(json.find("\"VC-STEER\":{\"uops\":750000,\"simulate_s\":0.5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"launch\":{\"workers\":2,\"max_retries\":2,"
                      "\"ok\":true,\"failed_shards\":0"),
            std::string::npos);
  EXPECT_NE(json.find("{\"shard\":1,\"attempts\":2,\"ok\":true"),
            std::string::npos);
  // No sweep service involved: the net field is explicitly null.
  EXPECT_NE(json.find("\"net\":null"), std::string::npos);
}

TEST(RunSummary, NetSectionCarriesServiceCountersAndWorkerTallies) {
  RunSummary s;
  s.bench = "fig5_twocluster";
  s.net.enabled = true;
  s.net.server = "unix:/tmp/sweep.sock";
  s.net.role = "serve";
  s.net.jobs_pulled = 4;
  s.net.gets = 30;
  s.net.puts = 12;
  s.net.reconnects = 1;
  s.net.workers = {{"w0", 4}, {"w1", 2}};

  std::ostringstream os;
  write_summary_json(os, s);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"net\":{\"server\":\"unix:/tmp/sweep.sock\","
                      "\"role\":\"serve\",\"jobs_pulled\":4,\"gets\":30,"
                      "\"puts\":12,\"reconnects\":1,"
                      "\"workers\":{\"w0\":4,\"w1\":2}}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"net\":null"), std::string::npos);
}

TEST(RunSummary, NoLaunchMeansNullLaunchField) {
  RunSummary s;
  s.bench = "fig5_twocluster";
  std::ostringstream os;
  write_summary_json(os, s);
  EXPECT_NE(os.str().find("\"launch\":null"), std::string::npos);
}

TEST(RunSummary, FailedShardSurfacesInJson) {
  RunSummary s;
  s.bench = "fig5_twocluster";
  s.ok = false;
  s.launch_workers = 2;
  s.launch_max_retries = 2;
  WorkerStatus dead;
  dead.index = 1;
  dead.attempts = 3;
  dead.ok = false;
  dead.exit_code = -1;
  dead.term_signal = 9;
  s.shards = {WorkerStatus{0, 1, true, 0, 0}, dead};

  std::ostringstream os;
  write_summary_json(os, s);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"failed_shards\":1"), std::string::npos);
  EXPECT_NE(json.find("{\"shard\":1,\"attempts\":3,\"ok\":false,"
                      "\"exit_code\":-1,\"signal\":9}"),
            std::string::npos);
}

}  // namespace
}  // namespace vcsteer::exec
