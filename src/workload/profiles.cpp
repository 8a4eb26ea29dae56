#include "workload/profiles.hpp"

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vcsteer::workload {
namespace {

// The profile table is built once. Parameter choices encode the qualitative
// behaviour of each SPEC CPU2000 benchmark as characterised in the
// literature (memory-bound mcf/art, streaming FP swim/applu/lucas, ILP-rich
// galgel/sixtrack, branchy gcc/crafty, ...). Multiple "-N" traces of one
// benchmark model distinct PinPoints phases: same benchmark character,
// different seed and slightly perturbed intensity.

WorkloadProfile base_int(std::string name) {
  WorkloadProfile p;
  p.name = std::move(name);
  p.is_fp = false;
  return p;
}

WorkloadProfile base_fp(std::string name) {
  WorkloadProfile p;
  p.name = std::move(name);
  p.is_fp = true;
  p.fp_fraction = 0.55;
  p.ilp_chains = 3.24;
  p.chain_bias = 0.65;
  p.load_fraction = 0.26;
  p.store_fraction = 0.08;
  p.min_block_uops = 32;
  p.max_block_uops = 96;
  p.working_set_kb = 512;
  p.stride_fraction = 0.9;
  p.loop_carried_deps = 1;
  return p;
}

/// Derive trace variant `idx` (1-based) of a benchmark: different seed and a
/// mild, deterministic perturbation of ILP and memory intensity, standing in
/// for the different program phases PinPoints selects.
WorkloadProfile variant(WorkloadProfile p, std::uint32_t idx) {
  p.name += '-';
  p.name += std::to_string(idx);
  p.seed_salt = idx;
  std::uint64_t s = hash_seed(p.name, 77);
  Rng rng(s);
  p.ilp_chains *= 0.85 + 0.3 * rng.uniform();
  p.chain_bias = std::min(0.95, p.chain_bias * (0.9 + 0.2 * rng.uniform()));
  p.load_fraction = std::min(0.4, p.load_fraction * (0.85 + 0.3 * rng.uniform()));
  p.working_set_kb = static_cast<std::uint32_t>(
      p.working_set_kb * (0.75 + 0.5 * rng.uniform()));
  if (p.working_set_kb == 0) p.working_set_kb = 8;
  return p;
}

std::vector<WorkloadProfile> build_int_profiles() {
  std::vector<WorkloadProfile> out;
  auto push_variants = [&out](const WorkloadProfile& base, std::uint32_t n) {
    if (n == 1) {
      out.push_back(base);
    } else {
      for (std::uint32_t i = 1; i <= n; ++i) out.push_back(variant(base, i));
    }
  };

  {  // 164.gzip: compression, tight loops, moderate ILP, small working set.
    WorkloadProfile p = base_int("164.gzip");
    p.ilp_chains = 2.30;
    p.chain_bias = 0.72;
    p.working_set_kb = 192;
    p.min_block_uops = 20;
    p.max_block_uops = 72;
    push_variants(p, 5);
  }
  {  // 175.vpr: place & route, pointerish, medium blocks.
    WorkloadProfile p = base_int("175.vpr");
    p.ilp_chains = 1.87;
    p.chain_bias = 0.78;
    p.working_set_kb = 384;
    p.pointer_chase = 0.15;
    push_variants(p, 2);
  }
  {  // 176.gcc: large branchy code, short blocks, low ILP.
    WorkloadProfile p = base_int("176.gcc");
    p.ilp_chains = 1.58;
    p.chain_bias = 0.8;
    p.num_blocks = 48;
    p.min_block_uops = 10;
    p.max_block_uops = 36;
    p.working_set_kb = 256;
    p.loop_backedge_prob = 0.7;
    push_variants(p, 5);
  }
  {  // 181.mcf: memory bound, pointer chasing, tiny ILP.
    WorkloadProfile p = base_int("181.mcf");
    p.loop_carried_deps = 3;
    p.ilp_chains = 1.30;
    p.chain_bias = 0.85;
    p.load_fraction = 0.34;
    p.working_set_kb = 16 * 1024;
    p.stride_fraction = 0.2;
    p.pointer_chase = 0.45;
    push_variants(p, 1);
  }
  {  // 186.crafty: chess, integer logic heavy, good ILP, cache resident.
    WorkloadProfile p = base_int("186.crafty");
    p.ilp_chains = 2.74;
    p.chain_bias = 0.62;
    p.working_set_kb = 48;
    p.mul_fraction = 0.03;
    push_variants(p, 1);
  }
  {  // 197.parser: dictionary walks, serial chains.
    WorkloadProfile p = base_int("197.parser");
    p.loop_carried_deps = 3;
    p.ilp_chains = 1.44;
    p.chain_bias = 0.83;
    p.working_set_kb = 768;
    p.pointer_chase = 0.25;
    push_variants(p, 1);
  }
  {  // 252.eon: C++ ray tracer — the one SPECint with real FP content.
    WorkloadProfile p = base_int("252.eon");
    p.ilp_chains = 2.59;
    p.chain_bias = 0.6;
    p.fp_fraction = 0.3;
    p.mul_fraction = 0.12;
    p.working_set_kb = 64;
    push_variants(p, 3);
  }
  {  // 253.perlbmk: interpreter dispatch, branchy, dependent.
    WorkloadProfile p = base_int("253.perlbmk");
    p.loop_carried_deps = 3;
    p.ilp_chains = 1.73;
    p.chain_bias = 0.8;
    p.num_blocks = 40;
    p.min_block_uops = 12;
    p.max_block_uops = 40;
    p.working_set_kb = 320;
    push_variants(p, 1);
  }
  {  // 254.gap: group theory, integer multiply heavy, decent ILP.
    WorkloadProfile p = base_int("254.gap");
    p.ilp_chains = 2.45;
    p.chain_bias = 0.68;
    p.mul_fraction = 0.14;
    p.working_set_kb = 512;
    push_variants(p, 1);
  }
  {  // 255.vortex: OO database, lots of loads/stores, medium ILP.
    WorkloadProfile p = base_int("255.vortex");
    p.ilp_chains = 2.16;
    p.chain_bias = 0.7;
    p.load_fraction = 0.3;
    p.store_fraction = 0.16;
    p.working_set_kb = 1024;
    push_variants(p, 2);
  }
  {  // 256.bzip2: compression, high reuse, moderately parallel.
    WorkloadProfile p = base_int("256.bzip2");
    p.ilp_chains = 2.45;
    p.chain_bias = 0.7;
    p.working_set_kb = 2048;
    p.stride_fraction = 0.6;
    push_variants(p, 3);
  }
  {  // 300.twolf: placement, dependent address arithmetic.
    WorkloadProfile p = base_int("300.twolf");
    p.loop_carried_deps = 3;
    p.ilp_chains = 1.73;
    p.chain_bias = 0.8;
    p.working_set_kb = 96;
    p.pointer_chase = 0.2;
    push_variants(p, 1);
  }
  VCSTEER_CHECK(out.size() == 26);
  return out;
}

std::vector<WorkloadProfile> build_fp_profiles() {
  std::vector<WorkloadProfile> out;
  auto push_variants = [&out](const WorkloadProfile& base, std::uint32_t n) {
    if (n == 1) {
      out.push_back(base);
    } else {
      for (std::uint32_t i = 1; i <= n; ++i) out.push_back(variant(base, i));
    }
  };

  {  // 168.wupwise: QCD, dense FP multiply chains with wide ILP.
    WorkloadProfile p = base_fp("168.wupwise");
    p.ilp_chains = 3.60;
    p.mul_fraction = 0.3;
    p.working_set_kb = 1024;
    push_variants(p, 1);
  }
  {  // 171.swim: shallow-water stencil — streaming, very high ILP.
    WorkloadProfile p = base_fp("171.swim");
    p.loop_carried_deps = 0;
    p.ilp_chains = 4.32;
    p.chain_bias = 0.55;
    p.load_fraction = 0.32;
    p.store_fraction = 0.12;
    p.working_set_kb = 12 * 1024;
    p.stride_fraction = 0.97;
    push_variants(p, 1);
  }
  {  // 173.applu: PDE solver, streaming with longer recurrences.
    WorkloadProfile p = base_fp("173.applu");
    p.loop_carried_deps = 0;
    p.ilp_chains = 3.60;
    p.chain_bias = 0.62;
    p.working_set_kb = 4096;
    p.stride_fraction = 0.95;
    push_variants(p, 1);
  }
  {  // 177.mesa: software rendering — FP/INT mix, cache friendly.
    WorkloadProfile p = base_fp("177.mesa");
    p.fp_fraction = 0.4;
    p.ilp_chains = 2.20;
    p.working_set_kb = 128;
    push_variants(p, 1);
  }
  {  // 178.galgel: Galerkin FEM — very wide ILP, dense linear algebra;
     // the paper's best case for VC (up to 20% over software-only).
    WorkloadProfile p = base_fp("178.galgel");
    p.loop_carried_deps = 0;
    p.ilp_chains = 5.04;
    p.chain_bias = 0.5;
    p.mul_fraction = 0.26;
    p.working_set_kb = 256;
    push_variants(p, 1);
  }
  {  // 179.art: neural net — memory bound, small compute.
    WorkloadProfile p = base_fp("179.art");
    p.ilp_chains = 1.87;
    p.chain_bias = 0.75;
    p.load_fraction = 0.34;
    p.working_set_kb = 6 * 1024;
    p.stride_fraction = 0.85;
    push_variants(p, 2);
  }
  {  // 183.equake: sparse FEM — irregular memory, medium ILP.
    WorkloadProfile p = base_fp("183.equake");
    p.ilp_chains = 2.45;
    p.working_set_kb = 3072;
    p.stride_fraction = 0.7;
    p.pointer_chase = 0.12;
    push_variants(p, 1);
  }
  {  // 187.facerec: image correlation — strided FP, good ILP.
    WorkloadProfile p = base_fp("187.facerec");
    p.ilp_chains = 2.60;
    p.mul_fraction = 0.22;
    p.working_set_kb = 1024;
    push_variants(p, 1);
  }
  {  // 188.ammp: molecular dynamics — neighbour lists, mixed locality.
    WorkloadProfile p = base_fp("188.ammp");
    p.ilp_chains = 2.30;
    p.chain_bias = 0.72;
    p.working_set_kb = 1024;
    p.stride_fraction = 0.75;
    p.div_fraction = 0.03;
    push_variants(p, 1);
  }
  {  // 189.lucas: FFT-based primality — long FP chains + streams.
    WorkloadProfile p = base_fp("189.lucas");
    p.ilp_chains = 3.17;
    p.chain_bias = 0.68;
    p.mul_fraction = 0.22;
    p.working_set_kb = 2048;
    push_variants(p, 1);
  }
  {  // 191.fma3d: crash simulation — large code, mixed behaviour.
    WorkloadProfile p = base_fp("191.fma3d");
    p.ilp_chains = 2.59;
    p.num_blocks = 40;
    p.working_set_kb = 1024;
    push_variants(p, 1);
  }
  {  // 200.sixtrack: accelerator tracking — compute bound, high ILP,
     // small working set.
    WorkloadProfile p = base_fp("200.sixtrack");
    p.loop_carried_deps = 0;
    p.ilp_chains = 2.80;
    p.chain_bias = 0.55;
    p.mul_fraction = 0.28;
    p.working_set_kb = 64;
    push_variants(p, 1);
  }
  {  // 301.apsi: meteorology — stencils with moderate recurrences.
    WorkloadProfile p = base_fp("301.apsi");
    p.ilp_chains = 3.02;
    p.working_set_kb = 1024;
    p.div_fraction = 0.02;
    push_variants(p, 1);
  }
  VCSTEER_CHECK(out.size() == 14);
  return out;
}

struct ProfileTables {
  std::vector<WorkloadProfile> ints = build_int_profiles();
  std::vector<WorkloadProfile> fps = build_fp_profiles();
  std::vector<WorkloadProfile> all;
  std::vector<WorkloadProfile> smoke;

  ProfileTables() {
    all.reserve(ints.size() + fps.size());
    all.insert(all.end(), ints.begin(), ints.end());
    all.insert(all.end(), fps.begin(), fps.end());
    for (const char* name : {"164.gzip-1", "181.mcf", "186.crafty",
                             "178.galgel", "179.art-1", "171.swim"}) {
      for (const WorkloadProfile& p : all) {
        if (p.name == name) smoke.push_back(p);
      }
    }
    VCSTEER_CHECK(smoke.size() == 6);
  }
};

const ProfileTables& tables() {
  static const ProfileTables t;
  return t;
}

}  // namespace

std::uint64_t WorkloadProfile::seed(std::uint64_t stream) const {
  return hash_seed(name, seed_salt * 1315423911ULL + stream);
}

std::span<const WorkloadProfile> all_profiles() { return tables().all; }
std::span<const WorkloadProfile> int_profiles() { return tables().ints; }
std::span<const WorkloadProfile> fp_profiles() { return tables().fps; }
std::span<const WorkloadProfile> smoke_profiles() { return tables().smoke; }

const WorkloadProfile* find_profile(std::string_view name) {
  for (const WorkloadProfile& p : tables().all) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

}  // namespace vcsteer::workload
