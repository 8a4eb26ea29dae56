// Micro-op model.
//
// The paper's machine is a clustered x86 out-of-order processor whose
// front-end dispatches *micro-ops* (the paper's Table 2 is written entirely
// in micro-ops). We model a RISC-like micro-op ISA with the operational
// properties that matter to steering: opcode class (which decides the issue
// queue, functional unit and latency), up to two register sources, at most
// one register destination, and memory/branch behaviour flags.
//
// The paper extends the x86 ISA so the compiler can pass virtual-cluster
// information to the hardware ("the x86 instruction set is extended in our
// simulation framework"). Our stand-in is the SteerHint attached to every
// static micro-op: the software-side passes fill it in, and each hardware
// steering policy is only allowed to read the fields its scheme would have
// (enforced by the policy implementations, exercised by tests).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/check.hpp"

namespace vcsteer::isa {

/// Operation classes. Each class maps to one issue-queue kind, one functional
/// unit type and one latency (see latency()).
enum class OpClass : std::uint8_t {
  kIntAlu,    ///< add/sub/logic/shift/compare, 1 cycle
  kIntMul,    ///< integer multiply, 3 cycles
  kIntDiv,    ///< integer divide, 20 cycles, unpipelined
  kFpAdd,     ///< FP add/sub/convert, 3 cycles
  kFpMul,     ///< FP multiply, 5 cycles
  kFpDiv,     ///< FP divide/sqrt, 20 cycles, unpipelined
  kLoad,      ///< memory load: address computed in the cluster, data via LSQ
  kStore,     ///< memory store: address + data, retires via LSQ
  kBranch,    ///< conditional/unconditional branch, 1 cycle
  kCopy,      ///< inter-cluster register copy (generated by hardware only)
  kNop,       ///< no-op (consumes a slot, no dependences)
};
constexpr std::size_t kNumOpClasses = 11;

/// Which architectural register file an operand lives in.
enum class RegFile : std::uint8_t { kInt = 0, kFp = 1 };

/// Architectural register: file + index. The synthetic ISA exposes
/// kNumArchRegs registers per file (x86 integer + SSE register counts).
struct ArchReg {
  RegFile file = RegFile::kInt;
  std::uint8_t index = 0;

  bool operator==(const ArchReg&) const = default;
};

constexpr std::uint8_t kNumArchRegs = 16;

/// Flattened architectural register id in [0, 2*kNumArchRegs).
constexpr std::uint16_t flat_reg(ArchReg r) {
  return static_cast<std::uint16_t>(
      (r.file == RegFile::kFp ? kNumArchRegs : 0) + r.index);
}
constexpr std::uint16_t kNumFlatRegs = 2 * kNumArchRegs;

/// Steering metadata produced by the software-side passes. This models the
/// paper's ISA extension: vc_id + chain-leader mark for the hybrid scheme,
/// and a full static cluster assignment for the software-only schemes
/// (OB / RHOP encode the final cluster directly in the instruction).
struct SteerHint {
  static constexpr std::uint8_t kNoVc = 0xff;
  static constexpr std::int8_t kNoCluster = -1;

  std::uint8_t vc_id = kNoVc;          ///< virtual cluster id (VC scheme).
  bool chain_leader = false;           ///< paper's Figure 3 leader mark.
  std::int8_t static_cluster = kNoCluster;  ///< physical cluster (OB/RHOP).

  bool has_vc() const { return vc_id != kNoVc; }
  bool has_static_cluster() const { return static_cluster != kNoCluster; }

  bool operator==(const SteerHint&) const = default;
};

/// One static micro-op. Dynamic instances reference static micro-ops by id.
struct MicroOp {
  OpClass op = OpClass::kNop;
  std::uint8_t num_srcs = 0;
  std::array<ArchReg, 2> srcs{};
  bool has_dst = false;
  ArchReg dst{};
  SteerHint hint{};

  bool is_load() const { return op == OpClass::kLoad; }
  bool is_store() const { return op == OpClass::kStore; }
  bool is_mem() const { return is_load() || is_store(); }
  bool is_branch() const { return op == OpClass::kBranch; }
  bool is_fp() const {
    return op == OpClass::kFpAdd || op == OpClass::kFpMul ||
           op == OpClass::kFpDiv;
  }
};

/// Execution latency of an op class in cycles (load latency excludes the
/// cache access, which the memory model adds). Queried per issued micro-op
/// in the kernel's select loop, so it is constexpr-inline; the exhaustive
/// switch (no default) keeps -Wswitch honest when op classes are added.
constexpr std::uint32_t latency(OpClass op) {
  switch (op) {
    case OpClass::kIntAlu: return 1;
    case OpClass::kIntMul: return 3;
    case OpClass::kIntDiv: return 20;
    case OpClass::kFpAdd: return 3;
    case OpClass::kFpMul: return 5;
    case OpClass::kFpDiv: return 20;
    case OpClass::kLoad: return 1;  // address generation; cache adds the rest
    case OpClass::kStore: return 1;
    case OpClass::kBranch: return 1;
    case OpClass::kCopy: return 1;
    case OpClass::kNop: return 1;
  }
  check_failed("latency", __FILE__, __LINE__, "unknown op class");
}

/// True for op classes that occupy the FP issue queue; everything else
/// (including loads, stores, branches and copies of INT values) uses the INT
/// queue, and copies use the dedicated COPY queue. Hot in dispatch/select.
constexpr bool uses_fp_queue(OpClass op) {
  return op == OpClass::kFpAdd || op == OpClass::kFpMul ||
         op == OpClass::kFpDiv;
}

/// Short mnemonic for diagnostics ("iadd", "fmul", "ld", ...).
const char* mnemonic(OpClass op);

/// Render a micro-op as e.g. "iadd r3 <- r1, r2 [vc=1 L]".
std::string to_string(const MicroOp& uop);

}  // namespace vcsteer::isa
