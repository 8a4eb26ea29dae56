// Tests for the Evaluator API (src/eval/) and the two-stage pruned sweep:
// the sim backend must be bit-identical to the historical direct path, the
// model backend must namespace its results away from simulation, and a
// pruned sweep's simulated frontier must carry the same bytes as the
// unpruned run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/model_evaluator.hpp"
#include "eval/sim_evaluator.hpp"
#include "exec/cache.hpp"
#include "exec/result_sink.hpp"
#include "exec/sweep.hpp"
#include "steer/mod_policy.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::eval {
namespace {

const workload::WorkloadProfile& smoke_profile() {
  const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
  EXPECT_NE(p, nullptr);
  return *p;
}

EvalRequest smoke_request() {
  EvalRequest req;
  req.profile = smoke_profile();
  req.machine = MachineConfig::two_cluster();
  req.budget = harness::SimBudget::smoke();
  req.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                 harness::SchemeSpec{steer::Scheme::kVc, 0}};
  return req;
}

TEST(Evaluator, SourceNames) {
  EXPECT_STREQ(source_name(Source::kSim), "sim");
  EXPECT_STREQ(source_name(Source::kModel), "model");
}

TEST(Evaluator, CacheKeyNamespacesBySource) {
  const harness::SchemeSpec spec{steer::Scheme::kOp, 0};
  const harness::SimBudget budget = harness::SimBudget::smoke();
  const MachineConfig machine = MachineConfig::two_cluster();
  const std::string plain =
      exec::cache_key(smoke_profile(), machine, spec, budget);
  // The default namespace is simulation: pre-existing call sites keep their
  // historical keys (warm caches stay warm across the API change).
  EXPECT_EQ(plain,
            exec::cache_key(smoke_profile(), machine, spec, budget, {}, "sim"));
  EXPECT_NE(plain, exec::cache_key(smoke_profile(), machine, spec, budget, {},
                                   "model"));
}

TEST(Evaluator, ResultRoundTripCarriesSource) {
  harness::RunResult r;
  r.trace = "t";
  r.scheme = "OP";
  r.source = "model";
  r.ipc = 1.5;
  r.committed_uops = 100;
  r.cycles = 66;
  const std::string text = exec::encode_result(r);
  harness::RunResult out;
  ASSERT_TRUE(exec::decode_result(text, &out));
  EXPECT_EQ(out.source, "model");

  // A pre-format-5 entry (no source field) must fail strict decode instead
  // of silently defaulting — the cache treats it as corrupt and
  // re-simulates.
  std::string legacy = text;
  const std::size_t pos = legacy.find("source=model\n");
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, std::string("source=model\n").size());
  EXPECT_FALSE(exec::decode_result(legacy, &out));
}

TEST(Evaluator, SimBackendIsBitIdenticalToDirectPath) {
  EvalRequest req = smoke_request();
  SimEvaluator sim;
  const EvalResponse resp = sim.evaluate(req);
  EXPECT_EQ(resp.trace_builds, 1u);

  harness::TraceExperiment direct(req.profile, req.machine, req.budget);
  const std::vector<harness::RunResult> expect =
      direct.evaluate(req.schemes);
  ASSERT_EQ(resp.results.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(exec::encode_result(resp.results[i]),
              exec::encode_result(expect[i]));
    EXPECT_EQ(resp.results[i].source, "sim");
  }
}

TEST(Evaluator, ModelBackendEstimatesAndMemoisesTraces) {
  EvalRequest req = smoke_request();
  ModelEvaluator model;
  const EvalResponse first = model.evaluate(req);
  ASSERT_EQ(first.results.size(), req.schemes.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    const harness::RunResult& r = first.results[i];
    EXPECT_EQ(r.source, "model");
    EXPECT_EQ(r.scheme, req.schemes[i].label(req.machine));
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.committed_uops, 0u);
    EXPECT_GT(r.cycles, 0u);
  }
  EXPECT_EQ(first.trace_builds, 1u);

  // Same trace under a different machine: the materialised trace is reused
  // (machine only shapes the estimate, not the trace).
  EvalRequest req2 = smoke_request();
  req2.machine = MachineConfig::four_cluster();
  const EvalResponse second = model.evaluate(req2);
  EXPECT_EQ(second.trace_builds, 0u);
  // And the estimates are deterministic.
  const EvalResponse again = model.evaluate(req);
  ASSERT_EQ(again.results.size(), first.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(exec::encode_result(again.results[i]),
              exec::encode_result(first.results[i]));
  }
}

// The memory replay is memoised per (trace, cache geometry): a machine that
// differs only outside the hierarchy reuses it and bills no warm-up time; a
// change to any hierarchy field replays again and estimates exactly what a
// fresh evaluator does.
TEST(Evaluator, ModelBackendMemoisesMemoryReplayPerCacheGeometry) {
  const EvalRequest req = smoke_request();
  ModelEvaluator model;
  EXPECT_GT(model.evaluate(req).phases.warmup_s, 0.0);

  EvalRequest wider = req;
  wider.machine.iq_int_entries *= 2;
  wider.machine.interconnect.link_latency += 1;
  EXPECT_EQ(model.evaluate(wider).phases.warmup_s, 0.0);

  const auto changes = {
      +[](MachineConfig& m) { m.l1d.size_bytes *= 2; },
      +[](MachineConfig& m) { m.l1d.associativity *= 2; },
      +[](MachineConfig& m) { m.l1d.line_bytes *= 2; },
      +[](MachineConfig& m) { m.l1d.hit_latency += 1; },
      +[](MachineConfig& m) { m.l2.size_bytes /= 2; },
      +[](MachineConfig& m) { m.l2.associativity /= 2; },
      +[](MachineConfig& m) { m.l2.line_bytes *= 2; },
      +[](MachineConfig& m) { m.l2.hit_latency += 1; },
      +[](MachineConfig& m) { m.memory_latency += 100; },
  };
  int field = 0;
  for (const auto change : changes) {
    SCOPED_TRACE(testing::Message() << "hierarchy field " << field++);
    EvalRequest other = req;
    change(other.machine);
    const EvalResponse memo = model.evaluate(other);
    EXPECT_GT(memo.phases.warmup_s, 0.0);
    ModelEvaluator fresh;
    const EvalResponse expect = fresh.evaluate(other);
    ASSERT_EQ(memo.results.size(), expect.results.size());
    for (std::size_t i = 0; i < expect.results.size(); ++i) {
      EXPECT_EQ(exec::encode_result(memo.results[i]),
                exec::encode_result(expect.results[i]));
    }
  }
}

// The walk-memo grid: 4 clusters on every topology at {link latency 1,
// unlimited bandwidth} and {latency 2, 1 copy per link-cycle}, the ring
// also topology-aware (same walk config, different OB/VC hints), the
// ideal fabric over a second L2 geometry (same walk config and hints,
// different memory replay), and ideal vs bus with a 2-wide copy select
// (where link bandwidth changes the estimate).
std::vector<MachineConfig> memo_machines() {
  std::vector<MachineConfig> machines;
  for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                              Topology::kRing, Topology::kCrossbar}) {
    for (const bool aware : {false, true}) {
      if (aware && topo != Topology::kRing) continue;
      for (const auto& [latency, bandwidth] :
           {std::pair{1u, ~0u}, std::pair{2u, 1u}}) {
        MachineConfig m = MachineConfig::four_cluster();
        m.interconnect.kind = topo;
        m.interconnect.link_latency = latency;
        m.interconnect.copies_per_link_cycle = bandwidth;
        m.steer.topology_aware = aware;
        machines.push_back(m);
      }
    }
  }
  // The smoke trace's working set fits a 64 KB L2; at 32 KB it misses.
  MachineConfig small_l2 = MachineConfig::four_cluster();
  small_l2.l2 = CacheConfig{32 * 1024, 4, 64, 13};
  machines.push_back(small_l2);
  // Behind a 1-wide copy select a link never sees two copies in a cycle;
  // at 2 wide, 1 copy per link-cycle binds off the ideal fabric.
  for (const Topology topo : {Topology::kIdeal, Topology::kBus}) {
    MachineConfig m = MachineConfig::four_cluster();
    m.interconnect.kind = topo;
    m.interconnect.link_latency = 2;
    m.interconnect.copies_per_link_cycle = 1;
    m.issue_width_copy = 2;
    machines.push_back(m);
  }
  return machines;
}

std::vector<harness::SchemeRequest> memo_schemes() {
  return {harness::SchemeSpec{steer::Scheme::kOp, 0},
          harness::SchemeSpec{steer::Scheme::kOb, 0},
          harness::SchemeSpec{steer::Scheme::kRhop, 0},
          harness::SchemeSpec{steer::Scheme::kVc, 2},
          harness::SchemeSpec{steer::Scheme::kParallelOp, 0},
          harness::SchemeRequest("MOD3", [](const MachineConfig&) {
            return std::make_unique<steer::ModNPolicy>(3);
          })};
}

// Distinct walks on the memo grid: 4 walk configs (one hop per pair for
// ideal/bus/crossbar, ring hops, each at the two link latencies, with link
// bandwidth folded away on the ideal fabric and behind the 1-wide copy
// select) x 4 steering classes (OP = OP-parallel = MOD3), plus OB and VC
// on the two topology-aware rings, plus 4 on the second L2 geometry, plus
// 4 on each 2-wide copy-select machine.
constexpr std::size_t kMemoGridWalks = 4 * 4 + 2 * 2 + 4 + 2 * 4;

// The walk memo is invisible: one evaluator serving the whole grid returns
// exactly what a fresh evaluator returns for each request, while walking
// only the distinct keys.
TEST(Evaluator, ModelWalkMemoMatchesFreshEvaluatorPerRequest) {
  ModelEvaluator shared;
  std::size_t walked = 0;
  std::size_t reused = 0;
  std::size_t points = 0;
  for (const MachineConfig& machine : memo_machines()) {
    EvalRequest req;
    req.profile = smoke_profile();
    req.machine = machine;
    req.budget = harness::SimBudget::smoke();
    req.schemes = memo_schemes();
    const EvalResponse memo = shared.evaluate(req);
    const EvalResponse expect = ModelEvaluator().evaluate(req);
    // OP, OB, RHOP and VC walk; OP-parallel and MOD3 reuse OP's walk.
    EXPECT_EQ(expect.walked, 4u);
    EXPECT_EQ(expect.walks_reused, 2u);
    ASSERT_EQ(memo.results.size(), expect.results.size());
    for (std::size_t i = 0; i < expect.results.size(); ++i) {
      SCOPED_TRACE(testing::Message() << machine.summary() << " aware "
                                      << machine.steer.topology_aware << " "
                                      << expect.results[i].scheme);
      EXPECT_EQ(exec::encode_result(memo.results[i]),
                exec::encode_result(expect.results[i]));
    }
    walked += memo.walked;
    reused += memo.walks_reused;
    points += req.schemes.size();
  }
  EXPECT_EQ(walked + reused, points);
  EXPECT_EQ(walked, kMemoGridWalks);
}

// The memo is shared by the sweep's worker threads: a pruned sweep of the
// memo grid writes the same bytes, and counts the same walks, at jobs = 4
// as at jobs = 1.
TEST(PrunedSweep, SharedWalkMemoIsThreadSafe) {
  exec::SweepGrid grid;
  grid.profiles = {smoke_profile()};
  grid.machines = memo_machines();
  grid.schemes = memo_schemes();
  grid.budget = harness::SimBudget::smoke();
  std::string bytes[2];
  std::size_t walked[2] = {};
  std::size_t reused[2] = {};
  for (const unsigned jobs : {1u, 4u}) {
    exec::SweepOptions opt;
    opt.jobs = jobs;
    opt.prune_top_k = 1;
    const exec::SweepResult sweep = exec::run_sweep(grid, opt);
    exec::ResultSink sink("memo");
    sink.add_sweep(sweep);
    std::ostringstream os;
    sink.write_json(os);
    const std::size_t i = jobs == 1 ? 0 : 1;
    bytes[i] = os.str();
    walked[i] = sweep.model.walked;
    reused[i] = sweep.model.walks_reused;
    EXPECT_EQ(sweep.model.walked + sweep.model.walks_reused,
              sweep.model.estimated);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(walked[0], kMemoGridWalks);
  EXPECT_EQ(walked[1], walked[0]);
  EXPECT_EQ(reused[1], reused[0]);
}

// The sweep builds each trace once and shares it across machines, cache
// geometries and both stages: over 2 traces x 4 machines of two L2
// geometries, pruned and unpruned, at jobs 1 and 4, every simulated slot
// encode_result-equals a fresh per-cell TraceExperiment, every model slot
// a fresh ModelEvaluator, and the sweep builds exactly one trace per grid
// trace.
TEST(SharedTraces, SweepBuildsEachTraceOnceAndMatchesFreshCells) {
  exec::SweepGrid grid;
  const auto smoke = workload::smoke_profiles();
  grid.profiles = {smoke[0], smoke[1]};
  MachineConfig ring = MachineConfig::four_cluster();
  ring.interconnect.kind = Topology::kRing;
  ring.interconnect.copies_per_link_cycle = 1;
  grid.machines = {MachineConfig::two_cluster(), ring};
  for (std::size_t m = 0; m < 2; ++m) {
    MachineConfig small_l2 = grid.machines[m];
    small_l2.l2 = CacheConfig{32 * 1024, 4, 64, 13};
    grid.machines.push_back(small_l2);
  }
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                  harness::SchemeSpec{steer::Scheme::kVc, 0}};
  grid.budget = {60'000, 15'000, 2};

  std::vector<std::string> sim_expect;
  std::vector<std::string> model_expect;
  for (const workload::WorkloadProfile& profile : grid.profiles) {
    for (const MachineConfig& machine : grid.machines) {
      harness::TraceExperiment cell(profile, machine, grid.budget);
      for (const harness::RunResult& r : cell.evaluate(grid.schemes)) {
        sim_expect.push_back(exec::encode_result(r));
      }
      const EvalRequest request{profile, machine, grid.budget, grid.schemes};
      for (const harness::RunResult& r :
           ModelEvaluator().evaluate(request).results) {
        model_expect.push_back(exec::encode_result(r));
      }
    }
  }
  for (const std::size_t top_k : {0u, 3u}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "top_k " << top_k << " jobs " << jobs);
      exec::SweepOptions opt;
      opt.jobs = jobs;
      opt.prune_top_k = top_k;
      const exec::SweepResult sweep = exec::run_sweep(grid, opt);
      EXPECT_EQ(sweep.trace_builds, grid.profiles.size());
      std::size_t simulated = 0;
      for (std::size_t i = 0; i < sweep.num_points(); ++i) {
        const harness::RunResult& r = sweep.points()[i];
        if (r.source == "sim") ++simulated;
        EXPECT_EQ(exec::encode_result(r),
                  r.source == "sim" ? sim_expect[i] : model_expect[i])
            << "point " << i;
      }
      EXPECT_EQ(simulated, top_k == 0 ? sweep.num_points()
                                      : top_k * grid.profiles.size());
    }
  }
}

exec::SweepGrid small_grid() {
  exec::SweepGrid grid;
  const auto smoke = workload::smoke_profiles();
  grid.profiles = {smoke[0], smoke[1]};
  MachineConfig narrow = MachineConfig::two_cluster();
  narrow.iq_int_entries = 16;
  narrow.iq_fp_entries = 16;
  grid.machines = {MachineConfig::two_cluster(), narrow};
  grid.schemes = {harness::SchemeSpec{steer::Scheme::kOp, 0},
                  harness::SchemeSpec{steer::Scheme::kVc, 0}};
  grid.budget = harness::SimBudget::smoke();
  return grid;
}

TEST(PrunedSweep, FrontierIsByteIdenticalAndRestIsModelTagged) {
  const exec::SweepGrid grid = small_grid();
  exec::SweepOptions plain;
  plain.jobs = 2;
  const exec::SweepResult full = exec::run_sweep(grid, plain);
  EXPECT_FALSE(full.model.enabled);

  exec::SweepOptions pruned_opt = plain;
  pruned_opt.prune_top_k = 2;
  const exec::SweepResult pruned = exec::run_sweep(grid, pruned_opt);
  EXPECT_TRUE(pruned.model.enabled);
  EXPECT_EQ(pruned.model.top_k, 2u);
  // Stage 1 scored the whole grid.
  EXPECT_EQ(pruned.model.estimated, grid.profiles.size() *
                                        grid.machines.size() *
                                        grid.schemes.size());

  std::size_t sim_slots = 0;
  std::size_t model_slots = 0;
  for (std::size_t t = 0; t < grid.profiles.size(); ++t) {
    for (std::size_t m = 0; m < grid.machines.size(); ++m) {
      for (std::size_t s = 0; s < grid.schemes.size(); ++s) {
        const harness::RunResult& r = pruned.at(t, m, s);
        if (r.source == "sim") {
          // Frontier points: the same bytes an unpruned run produces.
          EXPECT_EQ(exec::encode_result(r),
                    exec::encode_result(full.at(t, m, s)));
          ++sim_slots;
        } else {
          EXPECT_EQ(r.source, "model");
          EXPECT_GT(r.ipc, 0.0);
          ++model_slots;
        }
      }
    }
  }
  // top-2 of the 4 (machine, scheme) configs, each simulated on both traces.
  EXPECT_EQ(sim_slots, 2 * grid.profiles.size());
  EXPECT_EQ(model_slots, pruned.model.pruned);
  EXPECT_EQ(pruned.simulated, sim_slots);
  EXPECT_GE(pruned.model.spearman, -1.0);
  EXPECT_LE(pruned.model.spearman, 1.0);
  EXPECT_LE(pruned.model.top3_overlap, 3u);
}

TEST(PrunedSweep, FrontierCoveringWholeGridReproducesUnprunedBytes) {
  const exec::SweepGrid grid = small_grid();
  exec::SweepOptions plain;
  plain.jobs = 2;
  const exec::SweepResult full = exec::run_sweep(grid, plain);

  exec::SweepOptions all_opt = plain;
  all_opt.prune_top_k = 999;  // >= every config: nothing is pruned
  const exec::SweepResult pruned = exec::run_sweep(grid, all_opt);
  EXPECT_EQ(pruned.model.pruned, 0u);
  ASSERT_EQ(pruned.num_points(), full.num_points());
  for (std::size_t i = 0; i < full.num_points(); ++i) {
    EXPECT_EQ(exec::encode_result(pruned.points()[i]),
              exec::encode_result(full.points()[i]));
  }
}

}  // namespace
}  // namespace vcsteer::eval
