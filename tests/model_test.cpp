// Property tests for the analytical critical-path model (src/model/).
//
// The model's whole value proposition is that it is safe to *rank* design
// points with: widening any single resource must never increase the
// predicted cycles. In-order stages (k-back running maxima) and
// out-of-order windows (order statistics over free times) are monotone in
// their size by construction; rate resources (first-fit per-cycle
// placement) are not provably so. These tests pin that monotonicity over a
// real generated trace for every knob, plus the zero-cost-interconnect
// collapse that anchors the model's communication charges to zero when the
// fabric is free, the model's exact output on a search grid, and each
// constraint structure (model/pools.hpp) against a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "model/critpath.hpp"
#include "model/pools.hpp"
#include "workload/profiles.hpp"

namespace vcsteer::model {
namespace {

// One shared materialised trace: generation + PinPoints + interval replay
// dominate test time, and the trace is machine-independent (the machine
// passed to the constructor only shapes simulation, which never runs here).
const harness::TraceExperiment& shared_trace() {
  static const auto* exp = [] {
    const workload::WorkloadProfile* p = workload::find_profile("186.crafty");
    EXPECT_NE(p, nullptr);
    return new harness::TraceExperiment(*p, MachineConfig::two_cluster(),
                                        harness::SimBudget::smoke());
  }();
  return *exp;
}

// Total predicted cycles over every simulation point of the shared trace,
// annotated for `scheme` under `machine` (the same software passes the
// simulator would run).
std::uint64_t predicted_cycles(const MachineConfig& machine,
                               steer::Scheme scheme) {
  const harness::TraceExperiment& exp = shared_trace();
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, {scheme, 0}, machine);
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < exp.intervals().size(); ++i) {
    const auto extra = memory_latencies(program, exp.intervals()[i],
                                        exp.warm_addrs()[i], machine);
    cycles +=
        estimate_interval(program, exp.intervals()[i], extra, machine, scheme)
            .cycles;
  }
  return cycles;
}

TEST(CritPath, Deterministic) {
  const MachineConfig machine = MachineConfig::two_cluster();
  EXPECT_EQ(predicted_cycles(machine, steer::Scheme::kOp),
            predicted_cycles(machine, steer::Scheme::kOp));
}

TEST(CritPath, EstimateIsPlausible) {
  const harness::TraceExperiment& exp = shared_trace();
  const MachineConfig machine = MachineConfig::two_cluster();
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, {steer::Scheme::kOp, 0}, machine);
  const auto& interval = exp.intervals()[0];
  const auto extra =
      memory_latencies(program, interval, exp.warm_addrs()[0], machine);
  const IntervalEstimate est =
      estimate_interval(program, interval, extra, machine, steer::Scheme::kOp);
  EXPECT_EQ(est.committed_uops, interval.size());
  EXPECT_GT(est.cycles, 0u);
  // The machine cannot beat its fetch width: cycles >= uops / fetch_width.
  EXPECT_GE(est.cycles * machine.fetch_width, est.committed_uops);
}

TEST(CritPath, SingleClusterChargesNoCopies) {
  const harness::TraceExperiment& exp = shared_trace();
  MachineConfig machine = MachineConfig::two_cluster();
  machine.num_clusters = 1;
  prog::Program program = exp.workload().program;
  harness::annotate_for_scheme(program, {steer::Scheme::kOneCluster, 0},
                               machine);
  const auto extra = memory_latencies(program, exp.intervals()[0],
                                      exp.warm_addrs()[0], machine);
  const IntervalEstimate est =
      estimate_interval(program, exp.intervals()[0], extra, machine,
                        steer::Scheme::kOneCluster);
  EXPECT_EQ(est.copies, 0u);
  EXPECT_EQ(est.copy_hops, 0u);
}

// Widening any single resource never increases the predicted cycles — for
// every scheme whose steering the model approximates. Each lambda widens
// exactly one knob.
TEST(CritPath, WideningAnySingleResourceNeverIncreasesCycles) {
  const auto widenings = {
      +[](MachineConfig& m) { m.iq_int_entries *= 2; },
      +[](MachineConfig& m) { m.iq_fp_entries *= 2; },
      +[](MachineConfig& m) { m.iq_copy_entries *= 2; },
      +[](MachineConfig& m) { m.issue_width_int += 1; },
      +[](MachineConfig& m) { m.issue_width_fp += 1; },
      +[](MachineConfig& m) { m.issue_width_copy += 1; },
      +[](MachineConfig& m) { m.rob_int_entries *= 2; },
      +[](MachineConfig& m) { m.rob_fp_entries *= 2; },
      +[](MachineConfig& m) { m.lsq_entries *= 2; },
      +[](MachineConfig& m) { m.fetch_width += 2; },
      +[](MachineConfig& m) { m.decode_width_int += 1; },
      +[](MachineConfig& m) { m.commit_width_int += 1; },
      +[](MachineConfig& m) { m.interconnect.copies_per_link_cycle += 1; },
      +[](MachineConfig& m) { m.interconnect.copies_per_link_cycle = ~0u; },
  };
  for (const steer::Scheme scheme :
       {steer::Scheme::kOp, steer::Scheme::kOb, steer::Scheme::kVc}) {
    // A narrow ring machine, so every constraint above actually binds
    // somewhere (an ideal fabric would make the bandwidth knobs no-ops).
    MachineConfig base = MachineConfig::four_cluster();
    base.interconnect.kind = Topology::kRing;
    base.interconnect.link_latency = 2;
    base.interconnect.copies_per_link_cycle = 1;
    base.iq_int_entries = 16;
    base.iq_fp_entries = 16;
    base.lsq_entries = 64;
    const std::uint64_t baseline = predicted_cycles(base, scheme);
    int knob = 0;
    for (const auto widen : widenings) {
      MachineConfig wide = base;
      widen(wide);
      EXPECT_LE(predicted_cycles(wide, scheme), baseline)
          << "scheme " << static_cast<int>(scheme) << " knob " << knob;
      ++knob;
    }
  }
}

// A free fabric (zero link latency, unlimited bandwidth) with cluster and
// front-end resources too large to bind collapses a 4-cluster machine
// exactly onto the single-cluster bound: copies cost nothing, so clustering
// cannot be predicted slower than the unified core. This pins the model's
// copy charge to hops * link_latency with no fixed term. Decode must be
// oversized too: copies consume decode slots (in the simulator and the
// model alike) even when the fabric itself is free.
TEST(CritPath, ZeroCostInterconnectCollapsesToSingleClusterBound) {
  auto huge = [](MachineConfig m) {
    m.iq_int_entries = 1u << 20;
    m.iq_fp_entries = 1u << 20;
    m.iq_copy_entries = 1u << 20;
    m.issue_width_int = 1u << 10;
    m.issue_width_fp = 1u << 10;
    m.issue_width_copy = 1u << 10;
    m.decode_width_int = 1u << 10;
    m.decode_width_fp = 1u << 10;
    return m;
  };
  MachineConfig clustered = huge(MachineConfig::four_cluster());
  clustered.interconnect.link_latency = 0;
  clustered.interconnect.copies_per_link_cycle = ~0u;
  MachineConfig single = huge(MachineConfig::four_cluster());
  single.num_clusters = 1;
  EXPECT_EQ(predicted_cycles(clustered, steer::Scheme::kOp),
            predicted_cycles(single, steer::Scheme::kOneCluster));
}

// Pins the model's exact output: cycles, copies and copy_hops of every
// simulation point of the shared trace on the model-search machine grid
// (2 and 4 clusters x ideal/bus/ring/crossbar x {link latency 1 with
// unlimited bandwidth, link latency 2 with 1 copy per link-cycle} x
// OP/OB/RHOP/VC(2)/OP-parallel). The constraint structures inside the walk
// are a pure cost concern; replacing them must leave every estimate
// bit-identical, and these constants catch the first byte that moves.
struct PinnedPoint {
  std::uint64_t cycles, copies, copy_hops;
};

constexpr PinnedPoint kPinned[][3] = {
    // 2 clusters, ideal, link latency 1, unlimited bandwidth
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    {{48565, 824, 824}, {9591, 911, 911}, {9568, 1141, 1141}},
    {{44575, 1985, 1985}, {7842, 1508, 1508}, {8381, 1698, 1698}},
    {{44589, 4127, 4127}, {8141, 3132, 3132}, {8561, 3318, 3318}},
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    // 2 clusters, ideal, link latency 2, 1 copy per link-cycle
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    {{48631, 824, 824}, {9624, 911, 911}, {9666, 1141, 1141}},
    {{44810, 1985, 1985}, {7969, 1508, 1508}, {8628, 1698, 1698}},
    {{44422, 1138, 1138}, {7878, 1652, 1652}, {8681, 1720, 1720}},
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    // 2 clusters, bus, link latency 1, unlimited bandwidth
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    {{48565, 824, 824}, {9591, 911, 911}, {9568, 1141, 1141}},
    {{44575, 1985, 1985}, {7842, 1508, 1508}, {8381, 1698, 1698}},
    {{44589, 4127, 4127}, {8141, 3132, 3132}, {8561, 3318, 3318}},
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    // 2 clusters, bus, link latency 2, 1 copy per link-cycle
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    {{48631, 824, 824}, {9624, 911, 911}, {9666, 1141, 1141}},
    {{44810, 1985, 1985}, {7969, 1508, 1508}, {8628, 1698, 1698}},
    {{44422, 1138, 1138}, {7878, 1652, 1652}, {8681, 1720, 1720}},
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    // 2 clusters, ring, link latency 1, unlimited bandwidth
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    {{48565, 824, 824}, {9591, 911, 911}, {9568, 1141, 1141}},
    {{44575, 1985, 1985}, {7842, 1508, 1508}, {8381, 1698, 1698}},
    {{44589, 4127, 4127}, {8141, 3132, 3132}, {8561, 3318, 3318}},
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    // 2 clusters, ring, link latency 2, 1 copy per link-cycle
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    {{48631, 824, 824}, {9624, 911, 911}, {9666, 1141, 1141}},
    {{44810, 1985, 1985}, {7969, 1508, 1508}, {8628, 1698, 1698}},
    {{44422, 1138, 1138}, {7878, 1652, 1652}, {8681, 1720, 1720}},
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    // 2 clusters, crossbar, link latency 1, unlimited bandwidth
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    {{48565, 824, 824}, {9591, 911, 911}, {9568, 1141, 1141}},
    {{44575, 1985, 1985}, {7842, 1508, 1508}, {8381, 1698, 1698}},
    {{44589, 4127, 4127}, {8141, 3132, 3132}, {8561, 3318, 3318}},
    {{44232, 1534, 1534}, {7828, 1887, 1887}, {8401, 1780, 1780}},
    // 2 clusters, crossbar, link latency 2, 1 copy per link-cycle
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    {{48631, 824, 824}, {9624, 911, 911}, {9666, 1141, 1141}},
    {{44810, 1985, 1985}, {7969, 1508, 1508}, {8628, 1698, 1698}},
    {{44422, 1138, 1138}, {7878, 1652, 1652}, {8681, 1720, 1720}},
    {{44370, 1534, 1534}, {7924, 1887, 1887}, {8579, 1780, 1780}},
    // 4 clusters, ideal, link latency 1, unlimited bandwidth
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    {{47652, 1522, 1522}, {8219, 2150, 2150}, {8650, 2096, 2096}},
    {{44088, 3093, 3093}, {7959, 3238, 3238}, {8283, 3188, 3188}},
    {{44455, 5379, 5379}, {8271, 5347, 5347}, {8770, 5181, 5181}},
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    // 4 clusters, ideal, link latency 2, 1 copy per link-cycle
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
    {{47696, 1522, 1522}, {8289, 2150, 2150}, {8748, 2096, 2096}},
    {{44287, 3093, 3093}, {8160, 3238, 3238}, {8583, 3188, 3188}},
    {{44418, 3915, 3915}, {8177, 4424, 4424}, {9071, 4410, 4410}},
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
    // 4 clusters, bus, link latency 1, unlimited bandwidth
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    {{47652, 1522, 1522}, {8219, 2150, 2150}, {8650, 2096, 2096}},
    {{44088, 3093, 3093}, {7959, 3238, 3238}, {8283, 3188, 3188}},
    {{44455, 5379, 5379}, {8271, 5347, 5347}, {8770, 5181, 5181}},
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    // 4 clusters, bus, link latency 2, 1 copy per link-cycle
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
    {{47696, 1522, 1522}, {8289, 2150, 2150}, {8748, 2096, 2096}},
    {{44287, 3093, 3093}, {8160, 3238, 3238}, {8583, 3188, 3188}},
    {{44418, 3915, 3915}, {8177, 4424, 4424}, {9071, 4410, 4410}},
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
    // 4 clusters, ring, link latency 1, unlimited bandwidth
    {{44376, 3473, 7126}, {8082, 3574, 7123}, {8562, 3518, 7016}},
    {{47674, 1522, 2938}, {8296, 2150, 4139}, {8762, 2096, 4158}},
    {{44276, 3093, 5444}, {8170, 3238, 6964}, {8626, 3188, 6432}},
    {{44662, 5379, 10855}, {8466, 5347, 10745}, {9134, 5181, 10303}},
    {{44376, 3473, 7126}, {8082, 3574, 7123}, {8562, 3518, 7016}},
    // 4 clusters, ring, link latency 2, 1 copy per link-cycle
    {{45000, 3473, 7126}, {8450, 3574, 7123}, {9442, 3518, 7016}},
    {{47746, 1522, 2938}, {8465, 2150, 4139}, {8947, 2096, 4158}},
    {{44730, 3093, 5444}, {8667, 3238, 6964}, {9597, 3188, 6432}},
    {{44965, 3915, 7853}, {8704, 4424, 9212}, {10038, 4410, 8733}},
    {{45000, 3473, 7126}, {8450, 3574, 7123}, {9442, 3518, 7016}},
    // 4 clusters, crossbar, link latency 1, unlimited bandwidth
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    {{47652, 1522, 1522}, {8219, 2150, 2150}, {8650, 2096, 2096}},
    {{44088, 3093, 3093}, {7959, 3238, 3238}, {8283, 3188, 3188}},
    {{44455, 5379, 5379}, {8271, 5347, 5347}, {8770, 5181, 5181}},
    {{44161, 3473, 3473}, {7925, 3574, 3574}, {8304, 3518, 3518}},
    // 4 clusters, crossbar, link latency 2, 1 copy per link-cycle
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
    {{47696, 1522, 1522}, {8289, 2150, 2150}, {8748, 2096, 2096}},
    {{44287, 3093, 3093}, {8160, 3238, 3238}, {8583, 3188, 3188}},
    {{44418, 3915, 3915}, {8177, 4424, 4424}, {9071, 4410, 4410}},
    {{44342, 3473, 3473}, {8096, 3574, 3574}, {8564, 3518, 3518}},
};

TEST(CritPath, PinnedEstimatesOnSearchGrid) {
  const harness::TraceExperiment& exp = shared_trace();
  ASSERT_EQ(exp.intervals().size(), 3u);
  const harness::SchemeSpec schemes[] = {
      {steer::Scheme::kOp, 0},   {steer::Scheme::kOb, 0},
      {steer::Scheme::kRhop, 0}, {steer::Scheme::kVc, 2},
      {steer::Scheme::kParallelOp, 0},
  };
  std::size_t row = 0;
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                                Topology::kRing, Topology::kCrossbar}) {
      for (const auto& [latency, bandwidth] :
           {std::pair{1u, ~0u}, std::pair{2u, 1u}}) {
        MachineConfig m = clusters == 2 ? MachineConfig::two_cluster()
                                        : MachineConfig::four_cluster();
        m.interconnect.kind = topo;
        m.interconnect.link_latency = latency;
        m.interconnect.copies_per_link_cycle = bandwidth;
        for (const harness::SchemeSpec& spec : schemes) {
          prog::Program program = exp.workload().program;
          harness::annotate_for_scheme(program, spec, m);
          for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
            const auto extra = memory_latencies(program, exp.intervals()[p],
                                                exp.warm_addrs()[p], m);
            const IntervalEstimate est = estimate_interval(
                program, exp.intervals()[p], extra, m, spec.scheme);
            const PinnedPoint& want = kPinned[row][p];
            SCOPED_TRACE(testing::Message() << "row " << row << " point " << p);
            EXPECT_EQ(est.cycles, want.cycles);
            EXPECT_EQ(est.copies, want.copies);
            EXPECT_EQ(est.copy_hops, want.copy_hops);
          }
          ++row;
        }
      }
    }
  }
  EXPECT_EQ(row, std::size(kPinned));
}

// --- The walk's key (WalkConfig) ---

// The model-search machines of one cluster count, in kPinned's row order.
std::vector<MachineConfig> search_machines(std::uint32_t clusters) {
  std::vector<MachineConfig> machines;
  for (const Topology topo : {Topology::kIdeal, Topology::kBus,
                              Topology::kRing, Topology::kCrossbar}) {
    for (const auto& [latency, bandwidth] :
         {std::pair{1u, ~0u}, std::pair{2u, 1u}}) {
      MachineConfig m = clusters == 2 ? MachineConfig::two_cluster()
                                      : MachineConfig::four_cluster();
      m.interconnect.kind = topo;
      m.interconnect.link_latency = latency;
      m.interconnect.copies_per_link_cycle = bandwidth;
      machines.push_back(m);
    }
  }
  return machines;
}

std::size_t distinct_walk_configs(const std::vector<MachineConfig>& machines,
                                  steer::Scheme scheme) {
  std::vector<WalkConfig> seen;
  for (const MachineConfig& m : machines) {
    const WalkConfig w = walk_config(m, scheme);
    if (std::find(seen.begin(), seen.end(), w) == seen.end()) {
      seen.push_back(w);
    }
  }
  return seen.size();
}

// Pins the equivalence classes the walk memo merges on the search grid:
// ideal, bus and crossbar (and, at 2 clusters, the ring) are one hop per
// pair, and link bandwidth binds neither on the ideal fabric nor behind
// the search machines' 1-wide copy select at 1 copy per link-cycle, so the
// 8 machines give 2 distinct walks at 2 clusters (link latency 1 or 2) and
// 4 at 4 clusters (that times one hop or ring hops); OP-parallel steers as
// OP. kPinned was produced by a walk that read MachineConfig
// directly, so every pair of rows that shares a WalkConfig and the
// annotated hints must carry identical pinned estimates.
TEST(CritPath, SearchGridWalkConfigClasses) {
  for (const steer::Scheme scheme :
       {steer::Scheme::kOp, steer::Scheme::kOb, steer::Scheme::kVc}) {
    EXPECT_EQ(distinct_walk_configs(search_machines(2), scheme), 2u);
    EXPECT_EQ(distinct_walk_configs(search_machines(4), scheme), 4u);
  }
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const MachineConfig& m : search_machines(clusters)) {
      EXPECT_EQ(walk_config(m, steer::Scheme::kParallelOp),
                walk_config(m, steer::Scheme::kOp));
      EXPECT_NE(walk_config(m, steer::Scheme::kOb),
                walk_config(m, steer::Scheme::kRhop));
    }
  }

  const harness::TraceExperiment& exp = shared_trace();
  const harness::SchemeSpec schemes[] = {
      {steer::Scheme::kOp, 0},   {steer::Scheme::kOb, 0},
      {steer::Scheme::kRhop, 0}, {steer::Scheme::kVc, 2},
      {steer::Scheme::kParallelOp, 0},
  };
  struct Row {
    WalkConfig config;
    std::vector<isa::SteerHint> hints;
  };
  std::vector<Row> rows;
  for (const std::uint32_t clusters : {2u, 4u}) {
    for (const MachineConfig& m : search_machines(clusters)) {
      for (const harness::SchemeSpec& spec : schemes) {
        prog::Program program = exp.workload().program;
        harness::annotate_for_scheme(program, spec, m);
        Row row{walk_config(m, spec.scheme), {}};
        for (prog::UopId u = 0; u < program.num_uops(); ++u) {
          row.hints.push_back(program.uop(u).hint);
        }
        rows.push_back(std::move(row));
      }
    }
  }
  ASSERT_EQ(rows.size(), std::size(kPinned));
  std::size_t merged = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      if (rows[i].config != rows[j].config || rows[i].hints != rows[j].hints) {
        continue;
      }
      ++merged;
      for (std::size_t p = 0; p < 3; ++p) {
        SCOPED_TRACE(testing::Message()
                     << "rows " << i << ", " << j << " point " << p);
        EXPECT_EQ(kPinned[i][p].cycles, kPinned[j][p].cycles);
        EXPECT_EQ(kPinned[i][p].copies, kPinned[j][p].copies);
        EXPECT_EQ(kPinned[i][p].copy_hops, kPinned[j][p].copy_hops);
      }
    }
  }
  EXPECT_GT(merged, 0u);
}

// Every MachineConfig field, perturbed alone from two base machines
// (2-cluster ideal; 4-cluster ring at 1 copy per link-cycle): either the
// WalkConfig changes, or the walk returns the identical estimate on every
// simulation point. The program's hints and the memory latencies are held
// at the base machine's, since the walk memo keys those separately.
TEST(CritPath, EveryMachineFieldChangesTheWalkConfigOrNotTheEstimate) {
  using Perturb = void (*)(MachineConfig&);
  const Perturb perturbations[] = {
      [](MachineConfig& m) { m.fetch_width += 2; },
      [](MachineConfig& m) { m.fetch_to_dispatch += 3; },
      [](MachineConfig& m) { m.decode_width_int -= 1; },
      [](MachineConfig& m) { m.decode_width_fp -= 1; },
      [](MachineConfig& m) { m.rob_int_entries = 32; },
      [](MachineConfig& m) { m.rob_fp_entries = 32; },
      [](MachineConfig& m) { m.commit_width_int -= 1; },
      [](MachineConfig& m) { m.commit_width_fp -= 1; },
      [](MachineConfig& m) { m.num_clusters = 3; },
      [](MachineConfig& m) { m.iq_int_entries = 8; },
      [](MachineConfig& m) { m.iq_fp_entries = 8; },
      [](MachineConfig& m) { m.iq_copy_entries = 2; },
      [](MachineConfig& m) { m.issue_width_int = 1; },
      [](MachineConfig& m) { m.issue_width_fp = 1; },
      [](MachineConfig& m) { m.issue_width_copy = 2; },
      [](MachineConfig& m) { m.regfile_int = 64; },
      [](MachineConfig& m) { m.regfile_fp = 64; },
      [](MachineConfig& m) { m.interconnect.kind = Topology::kIdeal; },
      [](MachineConfig& m) { m.interconnect.kind = Topology::kBus; },
      [](MachineConfig& m) { m.interconnect.kind = Topology::kRing; },
      [](MachineConfig& m) { m.interconnect.kind = Topology::kCrossbar; },
      [](MachineConfig& m) { m.interconnect.link_latency += 1; },
      [](MachineConfig& m) { m.interconnect.copies_per_link_cycle = 2; },
      [](MachineConfig& m) { m.interconnect.copies_per_link_cycle = ~0u; },
      // A 2-wide copy select at 1 copy per link-cycle: off the ideal fabric
      // the link now binds, so the walk must keep its bandwidth.
      [](MachineConfig& m) {
        m.issue_width_copy = 2;
        m.interconnect.copies_per_link_cycle = 1;
      },
      [](MachineConfig& m) { m.steer.topology_aware = !m.steer.topology_aware; },
      [](MachineConfig& m) { m.steer.contention_weight *= 4; },
      [](MachineConfig& m) { m.l1d.size_bytes /= 4; },
      [](MachineConfig& m) { m.l1d.associativity = 1; },
      [](MachineConfig& m) { m.l1d.line_bytes = 32; },
      [](MachineConfig& m) { m.l1d.hit_latency += 2; },
      [](MachineConfig& m) { m.l2.size_bytes /= 16; },
      [](MachineConfig& m) { m.l2.associativity = 2; },
      [](MachineConfig& m) { m.l2.line_bytes = 128; },
      [](MachineConfig& m) { m.l2.hit_latency += 5; },
      [](MachineConfig& m) { m.memory_latency = 100; },
      [](MachineConfig& m) { m.lsq_entries = 8; },
      [](MachineConfig& m) { m.l1_read_ports = 1; },
      [](MachineConfig& m) { m.l1_write_ports = 2; },
      [](MachineConfig& m) { m.op_occupancy_threshold = 0.25; },
  };
  MachineConfig ring = MachineConfig::four_cluster();
  ring.interconnect.kind = Topology::kRing;
  ring.interconnect.copies_per_link_cycle = 1;
  const harness::TraceExperiment& exp = shared_trace();
  std::size_t changed = 0;
  std::size_t same = 0;
  for (const MachineConfig& base : {MachineConfig::two_cluster(), ring}) {
    for (const steer::Scheme scheme :
         {steer::Scheme::kOp, steer::Scheme::kOneCluster, steer::Scheme::kOb,
          steer::Scheme::kRhop, steer::Scheme::kVc,
          steer::Scheme::kParallelOp}) {
      prog::Program program = exp.workload().program;
      harness::annotate_for_scheme(program, {scheme, 0}, base);
      std::vector<std::vector<std::uint32_t>> extra;
      std::vector<IntervalEstimate> expect;
      for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
        extra.push_back(memory_latencies(program, exp.intervals()[p],
                                         exp.warm_addrs()[p], base));
        expect.push_back(estimate_interval(program, exp.intervals()[p],
                                           extra[p], base, scheme));
      }
      for (std::size_t f = 0; f < std::size(perturbations); ++f) {
        MachineConfig perturbed = base;
        perturbations[f](perturbed);
        if (walk_config(perturbed, scheme) != walk_config(base, scheme)) {
          ++changed;
          continue;
        }
        ++same;
        for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
          SCOPED_TRACE(testing::Message()
                       << "clusters " << base.num_clusters << " scheme "
                       << steer::scheme_name(scheme) << " perturbation " << f
                       << " point " << p);
          EXPECT_EQ(estimate_interval(program, exp.intervals()[p], extra[p],
                                      perturbed, scheme),
                    expect[p]);
        }
      }
    }
  }
  EXPECT_GT(changed, 0u);
  EXPECT_GT(same, 0u);
}

// The link-bandwidth fold is exact: behind a copy select of width W a
// per-pair link of W or more copies per cycle never defers a copy, so the
// folded walk (no link slots booked) estimates exactly what a walk booking
// that link does. Below W the fold must not apply, and there the link
// binds: the estimate moves on some point.
TEST(CritPath, LinkBandwidthFoldIsExact) {
  const harness::TraceExperiment& exp = shared_trace();
  std::size_t binding = 0;
  for (const Topology topo : {Topology::kBus, Topology::kRing}) {
    for (const steer::Scheme scheme : {steer::Scheme::kOp, steer::Scheme::kVc}) {
      MachineConfig m = MachineConfig::four_cluster();
      m.interconnect.kind = topo;
      m.interconnect.link_latency = 2;
      prog::Program program = exp.workload().program;
      harness::annotate_for_scheme(program, {scheme, 0}, m);
      std::vector<std::vector<std::uint32_t>> extra;
      for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
        extra.push_back(memory_latencies(program, exp.intervals()[p],
                                         exp.warm_addrs()[p], m));
      }
      auto walk = [&](const WalkConfig& config, std::size_t p) {
        return estimate_interval(program, exp.intervals()[p], extra[p],
                                 config);
      };
      for (const std::uint32_t width : {1u, 2u}) {
        m.issue_width_copy = width;
        for (const std::uint32_t bandwidth : {width, width + 1}) {
          SCOPED_TRACE(testing::Message()
                       << topology_name(topo) << " " << steer::scheme_name(scheme)
                       << " copy select " << width << " link " << bandwidth);
          m.interconnect.copies_per_link_cycle = bandwidth;
          const WalkConfig folded = walk_config(m, scheme);
          ASSERT_EQ(folded.copies_per_link_cycle, WalkConfig::kUnlimited);
          WalkConfig booked = folded;
          booked.copies_per_link_cycle = bandwidth;
          for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
            EXPECT_EQ(walk(booked, p), walk(folded, p)) << "point " << p;
          }
        }
      }
      m.issue_width_copy = 2;
      m.interconnect.copies_per_link_cycle = 1;
      const WalkConfig narrow = walk_config(m, scheme);
      ASSERT_EQ(narrow.copies_per_link_cycle, 1u);
      WalkConfig unlimited = narrow;
      unlimited.copies_per_link_cycle = WalkConfig::kUnlimited;
      for (std::size_t p = 0; p < exp.intervals().size(); ++p) {
        if (!(walk(narrow, p) == walk(unlimited, p))) ++binding;
      }
    }
  }
  EXPECT_GT(binding, 0u);
}

// --- Differential tests of the walk's constraint structures (pools.hpp) ---
//
// Each structure is checked against a brute-force oracle of its definition
// on seeded random request streams that obey the walk's contract: a floor
// that never decreases (the in-order dispatch time) and, for RatePool,
// every request at or above it. One request in 32 lands 500-1100 cycles
// past the floor (a dependent of a memory miss), which forces the rings to
// grow; small spreads make many requests tie.

// Next floor and a request time at or above it.
std::uint64_t next_request(Rng& rng, std::uint64_t* floor,
                           std::uint64_t spread) {
  *floor += rng.below(3);
  if (rng.below(32) == 0) return *floor + 500 + rng.below(600);
  return *floor + rng.below(spread);
}

void check_stream(std::uint64_t back, std::uint64_t spread) {
  SCOPED_TRACE(testing::Message() << "back " << back << " spread " << spread);
  Stream stream;
  stream.configure(back);
  const bool unlimited = back == 0 || back == ~0u;
  std::vector<std::uint64_t> prefix_max;  // oracle: every running maximum.
  Rng rng(back * 31 + spread);
  std::uint64_t floor = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool binds = !unlimited && prefix_max.size() >= back;
    const std::uint64_t want =
        binds ? prefix_max[prefix_max.size() - back] : 0;
    ASSERT_EQ(stream.window_bound(), want) << "push " << i;
    ASSERT_EQ(stream.rate_bound(), binds ? want + 1 : 0) << "push " << i;
    const std::uint64_t t = next_request(rng, &floor, spread);
    prefix_max.push_back(
        std::max(prefix_max.empty() ? 0 : prefix_max.back(), t));
    stream.push(t);
  }
}

void check_free_pool(std::uint64_t capacity, std::uint64_t spread) {
  SCOPED_TRACE(testing::Message() << "capacity " << capacity << " spread "
                                  << spread);
  FreePool pool;
  pool.configure(capacity);
  const bool unlimited = capacity == 0 || capacity == ~0u;
  std::multiset<std::uint64_t> free_times;  // oracle: every free time.
  Rng rng(capacity * 17 + spread);
  std::uint64_t floor = 0;
  for (int i = 0; i < 4000; ++i) {
    // The next acquirer waits for the (n-C+1)-th smallest free time.
    std::uint64_t want = 0;
    if (!unlimited && free_times.size() >= capacity) {
      want = *std::next(free_times.begin(), free_times.size() - capacity);
    }
    ASSERT_EQ(pool.window_bound(), want) << "push " << i;
    const std::uint64_t t = next_request(rng, &floor, spread);
    free_times.insert(t);
    pool.push(t);
  }
}

void check_rate_pool(std::uint64_t width, std::uint64_t spread) {
  SCOPED_TRACE(testing::Message() << "width " << width << " spread "
                                  << spread);
  RatePool pool;
  pool.configure(width);
  const bool unlimited = width == 0 || width == ~0u;
  std::map<std::uint64_t, std::uint64_t> booked;  // oracle: every cycle.
  Rng rng(width * 13 + spread);
  std::uint64_t floor = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t ready = next_request(rng, &floor, spread);
    std::uint64_t want = ready;
    if (!unlimited) {
      while (booked[want] >= width) ++want;
      ++booked[want];
    }
    ASSERT_EQ(pool.place(ready, floor), want) << "request " << i;
  }
}

TEST(ModelPools, StreamMatchesPrefixMaxOracle) {
  const std::uint64_t backs[] = {1, 3, 256, 1u << 20, 0, ~0u};
  for (const std::uint64_t back : backs) {
    for (const std::uint64_t spread : {2u, 64u}) check_stream(back, spread);
  }
}

TEST(ModelPools, FreePoolMatchesSortedMultisetOracle) {
  const std::uint64_t capacities[] = {1, 3, 48, 1u << 20, 0, ~0u};
  for (const std::uint64_t capacity : capacities) {
    for (const std::uint64_t spread : {2u, 64u}) {
      check_free_pool(capacity, spread);
    }
  }
}

TEST(ModelPools, RatePoolMatchesPerCycleMapOracle) {
  const std::uint64_t widths[] = {1, 2, 3, 0, ~0u};
  for (const std::uint64_t width : widths) {
    for (const std::uint64_t spread : {4u, 64u}) check_rate_pool(width, spread);
  }
}

TEST(ModelPoolsDeathTest, RatePoolRequestBelowFloorTrips) {
  RatePool pool;
  pool.configure(2);
  EXPECT_EQ(pool.place(10, 10), 10u);
  EXPECT_DEATH(pool.place(9, 10), "CHECK failed");
  // A later, lower floor does not lift the earlier one.
  EXPECT_DEATH(pool.place(9, 5), "CHECK failed");
}

}  // namespace
}  // namespace vcsteer::model
