// Tests of the benchmark itself: its output checks, its span arithmetic,
// its knob self-check, and its agreement with BENCHMARK.json and the golden
// fixtures.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"
#include "exec/sweep.hpp"
#include "host_speed.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_ROOT
#error "perfbench_test requires -DPERFBENCH_ROOT=\"<vcsteer source tree>\""
#endif

namespace perfbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Runs one benchmark invocation; returns its exit code and stdout.
int run(const Args& args, std::string* out) {
  std::ostringstream os;
  const int code = run_benchmark(args, os);
  *out = os.str();
  return code;
}

/// Value of metric `name` in a result line, or NaN.
double metric(const std::string& out, const std::string& name) {
  const std::string tag = "\"" + name + "\":{\"value\":";
  const std::size_t at = out.rfind(tag);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(out.c_str() + at + tag.size(), nullptr);
}

Args small_args(const std::string& workload, bool trace) {
  Args args;
  args.workload = workload;
  args.seed = 3;
  args.seconds = 1;
  args.trace = trace;
  args.work_dir = "perfbench-test-run";
  return args;
}

// --------------------------------------------------------- output check --

TEST(OutputCheck, PerturbedPointFailsInvariants) {
  NamedGrid ng = fig5_grid();
  ng.grid.profiles.resize(1);
  ng.grid.schemes.resize(2);
  const vcsteer::exec::SweepResult sweep =
      vcsteer::exec::run_sweep(ng.grid, vcsteer::exec::SweepOptions{});
  const vcsteer::harness::TraceExperiment exp(
      ng.grid.profiles[0], ng.grid.machines[0], ng.grid.budget);
  TraceWork work{ng.grid.profiles[0].name, exp.simpoints().size(), 0};
  for (const auto& interval : exp.intervals()) work.uops += interval.size();

  const auto& ok = sweep.at(0, 1);
  const std::string label = ng.grid.schemes[1].label(ng.grid.machines[0]);
  ASSERT_EQ(check_point(ok, work, label, "sim"), "");

  auto perturbed = [&](auto mutate) {
    vcsteer::harness::RunResult r = ok;
    mutate(r);
    return check_point(r, work, label, "sim");
  };
  EXPECT_NE(perturbed([](auto& r) { r.committed_uops += 1; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.num_points -= 1; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.ipc = std::nan(""); }), "");
  EXPECT_NE(perturbed([](auto& r) { r.ipc = 0; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.cycles = 0; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.source = "model"; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.scheme = "OP"; }), "");
  EXPECT_NE(perturbed([](auto& r) { r.trace += "x"; }), "");
}

TEST(OutputCheck, WrongPinnedDigestFailsTheRun) {
  const std::string pins = "perfbench-test-pins.txt";
  Args args = small_args("sim-ideal", false);
  args.pins = pins;
  {
    std::ofstream f(pins, std::ios::trunc);
    f << "sim-ideal 3 0000000000000000+0000000000000000\n";
  }
  std::string out;
  EXPECT_EQ(run(args, &out), 1);
  EXPECT_NE(out.find("\"correct\":false"), std::string::npos) << out;

  // The digest the run reports, pinned, passes.
  const std::size_t at = out.find("\"digest\":\"");
  ASSERT_NE(at, std::string::npos);
  const std::string digest = out.substr(at + 10, out.find('"', at + 10) - at - 10);
  {
    std::ofstream f(pins, std::ios::trunc);
    f << "sim-ideal 3 " << digest << "\n";
  }
  EXPECT_EQ(run(args, &out), 0) << out;
  EXPECT_NE(out.find("\"correct\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"pinned\":true"), std::string::npos) << out;
}

TEST(OutputCheck, DigestIsAnchoredToTheGoldens) {
  // Seed 0 renders the Fig 5 / Fig 7 smoke grids byte for byte as the golden
  // fixtures, so their hashes are the pinned sim-ideal seed-0 digest.
  std::string joined;
  for (const NamedGrid& ng : {fig5_grid(), fig7_grid()}) {
    vcsteer::exec::SweepOptions opt;
    opt.jobs = 4;
    const std::string golden =
        read_file(std::string(PERFBENCH_ROOT) + "/tests/golden/" + ng.name + ".json");
    ASSERT_FALSE(golden.empty()) << ng.name;
    EXPECT_EQ(render_results(ng.name, vcsteer::exec::run_sweep(ng.grid, opt)), golden)
        << ng.name;
    joined += (joined.empty() ? "" : "+") + digest_hex(golden);
  }
  const std::string pins = read_file(std::string(PERFBENCH_ROOT) + "/perfbench/digests.txt");
  EXPECT_NE(pins.find("sim-ideal 0 " + joined + "\n"), std::string::npos) << joined;
}

TEST(OutputCheck, FigureErrorUsesThePrintedTable) {
  // fig5_twocluster / fig7_fourcluster --smoke (seed 0) print CPU2000 AVG
  // 17.04 6.53 2.70 0.57 and 6.51 2.14 2.24 1.91.
  vcsteer::exec::SweepOptions opt;
  opt.jobs = 4;
  const double fig5 = fig_c_mae_pp(vcsteer::exec::run_sweep(fig5_grid().grid, opt), kFig5cPaper);
  const double fig7 = fig_c_mae_pp(vcsteer::exec::run_sweep(fig7_grid().grid, opt), kFig7cPaper);
  EXPECT_NEAR(fig5, (4.85 + 0.03 + 2.70 + 2.05) / 4, 1e-9);
  EXPECT_NEAR(fig7, (5.94 + 10.55 + 10.72 + 1.73) / 4, 1e-9);
}

// ---------------------------------------------------------------- spans --

void busy_for(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Spans, SelfTimesSumToTheTracedTotal) {
  SpanRecorder rec;
  {
    ScopedSpan root(&rec, "bench.pass");
    for (int cell = 0; cell < 3; ++cell) {
      ScopedSpan c(&rec, "bench.cell", cell, 0);
      { ScopedSpan b(&rec, "workload.build"); busy_for(0.002); }
      ScopedSpan e(&rec, "eval.sim");
      busy_for(0.003);
      rec.add_measured_child(e.id(), "compiler.vc", 0.001);
      rec.add_measured_child(e.id(), "sim.run.vc", 0.0015);
      busy_for(0.001);
    }
  }
  std::thread other([&] {
    ScopedSpan client(&rec, "net.client");
    for (int i = 0; i < 4; ++i) {
      ScopedSpan get(&rec, "net.get", 1, 2);
      busy_for(0.0005);
    }
  });
  other.join();

  const std::vector<Span> spans = rec.spans();
  double self_sum = 0;
  for (const double s : self_times(spans)) self_sum += s;
  const double total = root_total(spans);
  ASSERT_GT(total, 0.015);
  // Stated tolerance: 0.1% of the traced total.
  EXPECT_NEAR(self_sum, total, 1e-3 * total);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("bench.cell").count, 3u);
  EXPECT_EQ(totals.at("net.get").count, 4u);
  EXPECT_NEAR(totals.at("compiler.vc").self_s, 0.003, 1e-9);
  for (const Span& s : spans) {
    if (s.name == "net.get") {
      EXPECT_EQ(s.trace, 1);
      EXPECT_EQ(s.machine, 2);
    }
    if (s.name == "sim.run.vc") EXPECT_GE(s.trace, 0);  // inherits the cell
  }
}

TEST(Spans, TracedRunSeparatesTheLayers) {
  std::string out;
  ASSERT_EQ(run(small_args("sim-ideal", true), &out), 0) << out;
  EXPECT_LT(metric(out, "bench.self_sum_err_pct"), 0.1);
  EXPECT_GT(metric(out, "sim.run_pct"), 50.0);
  EXPECT_GT(metric(out, "workload.build_s"), 0.0);
  EXPECT_GT(metric(out, "compiler.rhop_s"), 0.0);
  EXPECT_GT(metric(out, "mem.warm_s"), 0.0);
  EXPECT_EQ(metric(out, "model.walk_s"), 0.0);

  ASSERT_EQ(run(small_args("warm-service", true), &out), 0) << out;
  EXPECT_EQ(metric(out, "sim.run_s"), 0.0);
  EXPECT_EQ(metric(out, "model.walk_s"), 0.0);
  EXPECT_EQ(metric(out, "exec.hit_ratio"), 1.0);
  EXPECT_GT(metric(out, "net.gets"), 0.0);
  EXPECT_EQ(metric(out, "net.errors"), 0.0);
  std::filesystem::remove_all("perfbench-test-run");
}

// ----------------------------------------------------------- host speed --

TEST(HostSpeed, APieceIsScaledByTheSamplesAroundIt) {
  NominalCpuTimer one;
  busy_for(0.02);
  one.stop();
  ASSERT_EQ(one.samples(), 2);
  ASSERT_GT(one.raw_s(), 0.0);
  // One piece between two samples: raw x (nominal / their mean)^sensitivity.
  EXPECT_NEAR(one.nominal_s(),
              one.raw_s() * std::pow(2 * kReferenceNominalS / one.samples_s(),
                                     kHostSensitivity),
              1e-12 * one.nominal_s());

  // A checkpoint cuts a piece only once it is long enough.
  NominalCpuTimer cut;
  busy_for(0.01);
  cut.checkpoint(1e9);
  EXPECT_EQ(cut.samples(), 1);
  cut.checkpoint(0);
  EXPECT_EQ(cut.samples(), 2);
  busy_for(0.01);
  cut.stop();
  EXPECT_EQ(cut.samples(), 3);
  EXPECT_GT(cut.nominal_s(), 0.0);
}

// ------------------------------------------------------ knobs and names --

TEST(Knobs, AnInheritedKnobIsReported) {
  ASSERT_EQ(inherited_knob(), "");
  ::setenv("VCSTEER_BATCH", "off", 1);
  EXPECT_EQ(inherited_knob(), "VCSTEER_BATCH");
  ::unsetenv("VCSTEER_BATCH");
  ::setenv("VCSTEER_TEST_CRASH_SHARD", "1", 1);
  EXPECT_EQ(inherited_knob(), "VCSTEER_TEST_CRASH_SHARD");
  ::unsetenv("VCSTEER_TEST_CRASH_SHARD");
  EXPECT_EQ(inherited_knob(), "");
}

/// (name, unit) pairs of one metric list of BENCHMARK.json, in order.
std::vector<std::pair<std::string, std::string>> benchmark_json_metrics(
    const std::string& list) {
  const std::string text = read_file(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t at = text.find("\"" + list + "\"");
  if (at == std::string::npos) return out;
  const std::size_t end = text.find(']', at);
  auto string_after = [&](const std::string& key, std::size_t from) {
    const std::size_t k = text.find("\"" + key + "\"", from);
    const std::size_t open = text.find('"', text.find(':', k) + 1);
    return std::pair{text.substr(open + 1, text.find('"', open + 1) - open - 1), k};
  };
  while (true) {
    const std::size_t next = text.find("\"name\"", at);
    if (next == std::string::npos || next > end) break;
    const auto [name, k1] = string_after("name", next);
    const auto [unit, k2] = string_after("unit", k1);
    out.emplace_back(name, unit);
    at = k2 + 1;
  }
  return out;
}

TEST(Names, EmittedMetricsMatchBenchmarkJson) {
  for (const bool trace : {false, true}) {
    const auto expected = benchmark_json_metrics(trace ? "per_layer" : "end_to_end");
    const auto& defs = trace ? per_layer_metrics() : end_to_end_metrics();
    ASSERT_EQ(expected.size(), defs.size());
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(expected[i].first, defs[i].name);
      EXPECT_EQ(expected[i].second, defs[i].unit) << defs[i].name;
    }
  }
  // And a real result line carries exactly those, in that order.
  std::string out;
  ASSERT_EQ(run(small_args("sim-fabric", false), &out), 0) << out;
  const std::string line = out.substr(out.rfind("{\"correct\""));
  std::size_t at = 0;
  for (const MetricDef& def : end_to_end_metrics()) {
    at = line.find(std::string("\"") + def.name + "\":{\"value\":", at);
    ASSERT_NE(at, std::string::npos) << def.name;
    EXPECT_GT(metric(line, def.name), 0.0) << def.name;
  }
}

TEST(Names, EveryWorkloadIsListedInBenchmarkJson) {
  const std::string text = read_file(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
  for (const std::string& w : workload_names()) {
    EXPECT_NE(text.find("\"name\": \"" + w + "\""), std::string::npos) << w;
    Workload made;
    EXPECT_TRUE(make_workload(w, &made));
  }
}

}  // namespace
}  // namespace perfbench
