// Tests for the experiment harness: scheme labels, annotation dispatch and
// its per-trace memo, policy construction, and PinPoints-weighted
// aggregation.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "harness/experiment.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::harness {
namespace {

const workload::WorkloadProfile& smoke_profile() {
  const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
  EXPECT_NE(p, nullptr);
  return *p;
}

// One request through the evaluation entry point, singleton.
RunResult run_one(TraceExperiment& experiment, const SchemeRequest& request) {
  const std::vector<SchemeRequest> requests = {request};
  return experiment.evaluate(requests)[0];
}

TEST(SchemeSpec, Labels) {
  const MachineConfig m2 = MachineConfig::two_cluster();
  const MachineConfig m4 = MachineConfig::four_cluster();
  EXPECT_EQ((SchemeSpec{steer::Scheme::kOp, 0}).label(m2), "OP");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kOneCluster, 0}).label(m2),
            "one-cluster");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 0}).label(m2), "VC(2->2)");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 0}).label(m4), "VC(4->4)");
  EXPECT_EQ((SchemeSpec{steer::Scheme::kVc, 2}).label(m4), "VC(2->4)");
}

// Pins the communication-cost values annotate_for_scheme derives from each
// topology kind: the scalar fallback is the nearest-neighbour matrix entry
// (link_latency + 1 on every fabric — the pre-topology estimate, so flat
// runs stay bit-identical), and the per-pair matrix reflects the directed
// hop counts of the active topology.
TEST(Annotate, CommCostMatrixDerivesFromTopology) {
  auto vc_matrix = [](Topology kind, std::uint32_t link_latency,
                      std::uint32_t n) {
    MachineConfig m = MachineConfig::four_cluster();
    m.interconnect.kind = kind;
    m.interconnect.link_latency = link_latency;
    return comm_cost_matrix(
        m, n, /*per_hop=*/static_cast<double>(link_latency), /*fixed=*/1.0);
  };

  // Uniform single-hop fabrics: every off-diagonal pair costs latency + 1.
  for (const Topology kind :
       {Topology::kIdeal, Topology::kBus, Topology::kCrossbar}) {
    const std::vector<double> m = vc_matrix(kind, 2, 4);
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = 0; j < 4; ++j) {
        EXPECT_DOUBLE_EQ(m[i * 4 + j], i == j ? 0.0 : 3.0)
            << topology_name(kind);
      }
    }
    EXPECT_DOUBLE_EQ(min_comm_cost(m, 4), 3.0);
  }

  // Ring, latency 2: directed hops, 2 * hops + 1 per pair.
  const std::vector<double> ring = vc_matrix(Topology::kRing, 2, 4);
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 1], 3.0);   // 1 hop forward
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 2], 5.0);   // 2 hops
  EXPECT_DOUBLE_EQ(ring[0 * 4 + 3], 7.0);   // 3 hops
  EXPECT_DOUBLE_EQ(ring[3 * 4 + 0], 3.0);   // wrap-around is 1 hop
  EXPECT_DOUBLE_EQ(ring[1 * 4 + 0], 7.0);   // backwards = the long way
  EXPECT_DOUBLE_EQ(ring[2 * 4 + 2], 0.0);
  // The scalar the flat pass uses is the nearest-neighbour entry — exactly
  // the historical link_latency + 1, even on the non-uniform ring.
  EXPECT_DOUBLE_EQ(min_comm_cost(ring, 4), 3.0);

  // VC(2->4): two virtual clusters mapped onto clusters 0 and 1.
  const std::vector<double> vc24 = vc_matrix(Topology::kRing, 1, 2);
  EXPECT_DOUBLE_EQ(vc24[0 * 2 + 1], 2.0);  // d(0,1) = 1 hop
  EXPECT_DOUBLE_EQ(vc24[1 * 2 + 0], 4.0);  // d(1,0) = 3 hops
  EXPECT_DOUBLE_EQ(min_comm_cost(vc24, 2), 2.0);

  // More placement targets than clusters: aliased targets (0 and 4 both
  // map to cluster 0) are still estimated at least one hop apart.
  MachineConfig m = MachineConfig::four_cluster();
  const std::vector<double> wide = comm_cost_matrix(m, 5, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(wide[0 * 5 + 4], 2.0);
  EXPECT_DOUBLE_EQ(wide[4 * 5 + 0], 2.0);
}

TEST(Annotate, TopologyAwareKnobHandsThePassesTheMatrix) {
  // Flat and aware annotation agree on the ideal fabric (the matrix is the
  // scalar replicated), so the knob cannot perturb Table-2 results; on the
  // ring they may legitimately place differently.
  workload::GeneratedWorkload flat_wl = workload::generate(smoke_profile());
  workload::GeneratedWorkload aware_wl = workload::generate(smoke_profile());
  MachineConfig ideal = MachineConfig::four_cluster();
  MachineConfig aware_ideal = ideal;
  aware_ideal.steer.topology_aware = true;
  annotate_for_scheme(flat_wl.program, {steer::Scheme::kVc, 2}, ideal);
  annotate_for_scheme(aware_wl.program, {steer::Scheme::kVc, 2}, aware_ideal);
  for (prog::UopId u = 0; u < flat_wl.program.num_uops(); ++u) {
    ASSERT_EQ(flat_wl.program.uop(u).hint.vc_id,
              aware_wl.program.uop(u).hint.vc_id);
    ASSERT_EQ(flat_wl.program.uop(u).hint.chain_leader,
              aware_wl.program.uop(u).hint.chain_leader);
  }
}

TEST(Annotate, VcSchemeSetsVcHints) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  annotate_for_scheme(wl.program, {steer::Scheme::kVc, 2},
                      MachineConfig::two_cluster());
  bool any_leader = false;
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    EXPECT_TRUE(wl.program.uop(u).hint.has_vc());
    EXPECT_FALSE(wl.program.uop(u).hint.has_static_cluster());
    any_leader |= wl.program.uop(u).hint.chain_leader;
  }
  EXPECT_TRUE(any_leader);
}

TEST(Annotate, StaticSchemesSetClusters) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  for (const auto scheme : {steer::Scheme::kOb, steer::Scheme::kRhop}) {
    annotate_for_scheme(wl.program, {scheme, 0}, MachineConfig::two_cluster());
    for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
      EXPECT_TRUE(wl.program.uop(u).hint.has_static_cluster());
      EXPECT_FALSE(wl.program.uop(u).hint.has_vc());
    }
  }
}

TEST(Annotate, HardwareSchemesClearHints) {
  workload::GeneratedWorkload wl = workload::generate(smoke_profile());
  annotate_for_scheme(wl.program, {steer::Scheme::kVc, 2},
                      MachineConfig::two_cluster());
  annotate_for_scheme(wl.program, {steer::Scheme::kOp, 0},
                      MachineConfig::two_cluster());
  for (prog::UopId u = 0; u < wl.program.num_uops(); ++u) {
    EXPECT_FALSE(wl.program.uop(u).hint.has_vc());
    EXPECT_FALSE(wl.program.uop(u).hint.has_static_cluster());
  }
}

TEST(PolicyFactory, VcRespectsRequestedVcCount) {
  const MachineConfig m4 = MachineConfig::four_cluster();
  const auto p24 = policy_for_scheme({steer::Scheme::kVc, 2}, m4);
  EXPECT_EQ(p24->name(), "VC(2)");
  const auto p44 = policy_for_scheme({steer::Scheme::kVc, 0}, m4);
  EXPECT_EQ(p44->name(), "VC(4)");
}

TEST(Experiment, RunsAndAggregates) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  EXPECT_FALSE(experiment.simpoints().empty());
  double weight = 0;
  for (const auto& p : experiment.simpoints()) weight += p.weight;
  EXPECT_NEAR(weight, 1.0, 1e-9);

  const RunResult result = run_one(experiment, SchemeSpec{steer::Scheme::kOp, 0});
  EXPECT_EQ(result.trace, "186.crafty");
  EXPECT_EQ(result.scheme, "OP");
  EXPECT_GT(result.ipc, 0.1);
  EXPECT_LT(result.ipc, 6.0);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_GT(result.committed_uops, 0u);
}

TEST(Experiment, DeterministicAcrossInstances) {
  const SimBudget budget = SimBudget::smoke();
  const MachineConfig machine = MachineConfig::two_cluster();
  TraceExperiment a(smoke_profile(), machine, budget);
  TraceExperiment b(smoke_profile(), machine, budget);
  const RunResult ra = run_one(a, SchemeSpec{steer::Scheme::kVc, 2});
  const RunResult rb = run_one(b, SchemeSpec{steer::Scheme::kVc, 2});
  EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
  EXPECT_DOUBLE_EQ(ra.copies_per_kuop, rb.copies_per_kuop);
  EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(Experiment, RerunSameSchemeIsIdempotent) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const RunResult first = run_one(experiment, SchemeSpec{steer::Scheme::kRhop, 0});
  run_one(experiment, SchemeSpec{steer::Scheme::kOp, 0});  // interleave
  const RunResult second =
      run_one(experiment, SchemeSpec{steer::Scheme::kRhop, 0});
  EXPECT_DOUBLE_EQ(first.ipc, second.ipc);
  EXPECT_EQ(first.cycles, second.cycles);
}

TEST(Experiment, CustomPolicyRequestMatchesBuiltinPath) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  // kOneCluster needs no annotations, so routing its policy through the
  // custom-request path must reproduce the built-in path exactly.
  const RunResult builtin =
      run_one(experiment, SchemeSpec{steer::Scheme::kOneCluster, 0});
  const SchemeRequest custom_request(
      "custom-one", [](const MachineConfig& m) {
        return policy_for_scheme({steer::Scheme::kOneCluster, 0}, m);
      });
  const RunResult custom = run_one(experiment, custom_request);
  EXPECT_EQ(custom.scheme, "custom-one");
  EXPECT_EQ(custom.trace, builtin.trace);
  EXPECT_EQ(custom.cycles, builtin.cycles);
  EXPECT_DOUBLE_EQ(custom.ipc, builtin.ipc);
  EXPECT_EQ(custom.num_points, builtin.num_points);
}

TEST(Experiment, CustomPolicyRequestClearsHints) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const SchemeRequest one("one", [](const MachineConfig& m) {
    return policy_for_scheme({steer::Scheme::kOneCluster, 0}, m);
  });
  const RunResult clean = run_one(experiment, one);
  run_one(experiment, SchemeSpec{steer::Scheme::kVc, 2});  // leaves VC hints
  const RunResult after = run_one(experiment, one);
  EXPECT_EQ(clean.cycles, after.cycles);
  EXPECT_DOUBLE_EQ(clean.ipc, after.ipc);
}

TEST(Experiment, OneClusterUsesOnlyClusterZero) {
  TraceExperiment experiment(smoke_profile(), MachineConfig::two_cluster(),
                             SimBudget::smoke());
  const RunResult r =
      run_one(experiment, SchemeSpec{steer::Scheme::kOneCluster, 0});
  EXPECT_DOUBLE_EQ(r.copies_per_kuop, 0.0);
  EXPECT_EQ(r.last_interval.dispatched_to[1], 0u);
  EXPECT_GT(r.last_interval.dispatched_to[0], 0u);
}

std::vector<isa::SteerHint> hints_of(const prog::Program& program) {
  std::vector<isa::SteerHint> hints(program.num_uops());
  for (prog::UopId u = 0; u < program.num_uops(); ++u) {
    hints[u] = program.uop(u).hint;
  }
  return hints;
}

// 2 and 4 clusters on every topology, flat and topology-aware, at integer
// issue widths 2 and 3, over two link latencies.
std::vector<MachineConfig> annotation_machines() {
  std::vector<MachineConfig> machines;
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                                Topology::kRing, Topology::kCrossbar}) {
      for (const bool aware : {false, true}) {
        for (const std::uint32_t width : {2u, 3u}) {
          for (const std::uint32_t latency : {1u, 2u}) {
            MachineConfig m = clusters == 2 ? MachineConfig::two_cluster()
                                            : MachineConfig::four_cluster();
            m.interconnect.kind = topo;
            m.interconnect.link_latency = latency;
            m.steer.topology_aware = aware;
            m.issue_width_int = width;
            machines.push_back(m);
          }
        }
      }
    }
  }
  return machines;
}

// Every scheme, with VC at the machine's own cluster count (VC(2->2),
// VC(4->4)), at 2 and 4 virtual clusters (VC(2->4), VC(4->2)), and with a
// min_leader_chain override.
std::vector<SchemeSpec> annotation_schemes() {
  return {{steer::Scheme::kOp, 0},         {steer::Scheme::kOneCluster, 0},
          {steer::Scheme::kOb, 0},         {steer::Scheme::kRhop, 0},
          {steer::Scheme::kVc, 0},         {steer::Scheme::kVc, 2},
          {steer::Scheme::kVc, 4},         {steer::Scheme::kVc, 0, 5},
          {steer::Scheme::kParallelOp, 0}};
}

// The trace's annotation for a request's pass input carries exactly the
// hints a fresh pass over a program copy gives that request, on every
// machine and scheme: the key holds every field the pass reads. Each
// distinct pass input runs its pass once, and equal ids mean equal hints.
TEST(AnnotationMemo, MatchesAFreshPassOnEveryMachineAndScheme) {
  const TraceArtefact trace(smoke_profile(), SimBudget{60'000, 15'000, 2});
  std::set<PassOptions> pass_inputs;
  std::map<std::size_t, std::vector<isa::SteerHint>> by_id;
  std::size_t passes_run = 0;
  for (const MachineConfig& machine : annotation_machines()) {
    for (const SchemeSpec& spec : annotation_schemes()) {
      SCOPED_TRACE(testing::Message()
                   << machine.summary() << " aware "
                   << machine.steer.topology_aware << " width "
                   << machine.issue_width_int << " " << spec.label(machine));
      const PassOptions options = pass_options(spec, machine);
      double annotate_s = -1;
      std::size_t passes = 0;
      const TraceArtefact::Annotation& memo =
          trace.annotation(options, &annotate_s, &passes);
      EXPECT_GE(annotate_s, 0.0);
      passes_run += passes;
      if (!std::holds_alternative<std::monostate>(options)) {
        EXPECT_EQ(passes, pass_inputs.insert(options).second ? 1u : 0u);
      }

      prog::Program fresh = trace.workload().program;
      annotate_for_scheme(fresh, spec, machine);
      const std::vector<isa::SteerHint> hints = hints_of(fresh);
      EXPECT_EQ(hints_of(memo.program), hints);
      EXPECT_EQ(by_id.try_emplace(memo.id, hints).first->second, hints);
    }
  }
  EXPECT_EQ(passes_run, pass_inputs.size());
  for (auto a = by_id.begin(); a != by_id.end(); ++a) {
    for (auto b = std::next(a); b != by_id.end(); ++b) {
      EXPECT_NE(a->second, b->second) << "ids " << a->first << ", " << b->first;
    }
  }
}

// Machines that differ only in fields a pass ignores share its input:
// VC(2) on 2 and 4 clusters, and OB or flat VC across topologies (every
// flat estimate is the nearest-neighbour cost), but not across link
// latencies for VC, whose copy-cost estimate reads it.
TEST(AnnotationMemo, PassInputIgnoresFieldsThePassDoesNotRead) {
  const MachineConfig two = MachineConfig::two_cluster();
  MachineConfig four_ring = MachineConfig::four_cluster();
  four_ring.interconnect.kind = Topology::kRing;
  four_ring.interconnect.link_latency = two.interconnect.link_latency;
  four_ring.iq_int_entries *= 2;
  four_ring.issue_width_int = two.issue_width_int;
  const SchemeSpec vc2{steer::Scheme::kVc, 2};
  EXPECT_EQ(pass_options(vc2, two), pass_options(vc2, four_ring));

  MachineConfig slow_links = four_ring;
  slow_links.interconnect.link_latency += 1;
  const SchemeSpec ob{steer::Scheme::kOb, 0};
  EXPECT_EQ(pass_options(ob, four_ring), pass_options(ob, slow_links));
  EXPECT_NE(pass_options(vc2, four_ring), pass_options(vc2, slow_links));

  // Topology-aware passes read the per-pair matrix, so the ring separates.
  MachineConfig aware = four_ring;
  aware.steer.topology_aware = true;
  MachineConfig aware_bus = aware;
  aware_bus.interconnect.kind = Topology::kBus;
  EXPECT_NE(pass_options(ob, aware), pass_options(ob, aware_bus));
  EXPECT_TRUE(std::holds_alternative<std::monostate>(
      pass_options({steer::Scheme::kParallelOp, 0}, aware)));
}

// The autotune_search --smoke grid (bench/autotune_search.cpp: 576
// machines x 5 schemes) needs 12 distinct pass inputs per trace: OB per
// (cluster count, issue width), RHOP per cluster count, and VC(2) per
// (link latency, issue width). scripts/ci_gates.sh's model gate asserts the
// sweep runs 2 traces x 12 passes.
TEST(AnnotationMemo, AutotuneGridHasTwelvePassInputsPerTrace) {
  std::set<PassOptions> pass_inputs;
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                                Topology::kRing, Topology::kCrossbar}) {
      for (const std::uint32_t iq : {16u, 32u, 48u, 64u}) {
        for (const std::uint32_t link : {1u, 2u, 4u}) {
          for (const std::uint32_t bw : {1u, 2u, ~0u}) {
            for (const std::uint32_t width : {2u, 3u}) {
              MachineConfig machine = clusters == 2
                                          ? MachineConfig::two_cluster()
                                          : MachineConfig::four_cluster();
              machine.interconnect.kind = topo;
              machine.iq_int_entries = iq;
              machine.iq_fp_entries = iq;
              machine.interconnect.link_latency = link;
              machine.interconnect.copies_per_link_cycle = bw;
              machine.issue_width_int = width;
              machine.issue_width_fp = width;
              for (const SchemeSpec& spec :
                   {SchemeSpec{steer::Scheme::kOp, 0},
                    SchemeSpec{steer::Scheme::kOb, 0},
                    SchemeSpec{steer::Scheme::kRhop, 0},
                    SchemeSpec{steer::Scheme::kVc, 2},
                    SchemeSpec{steer::Scheme::kParallelOp, 0}}) {
                const PassOptions options = pass_options(spec, machine);
                if (!std::holds_alternative<std::monostate>(options)) {
                  pass_inputs.insert(options);
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(pass_inputs.size(), 4u + 2u + 6u);
}

}  // namespace
}  // namespace vcsteer::harness
