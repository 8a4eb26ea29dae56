#include "program/program.hpp"

#include <cmath>
#include <cstdio>

namespace vcsteer::prog {

void Program::clear_hints() {
  for (isa::MicroOp& u : uops_) u.hint = isa::SteerHint{};
}

void Program::copy_hints(const Program& annotated) {
  VCSTEER_CHECK(annotated.uops_.size() == uops_.size());
  for (std::size_t u = 0; u < uops_.size(); ++u) {
    uops_[u].hint = annotated.uops_[u].hint;
  }
}

std::string Program::validate() const {
  if (blocks_.empty()) return "program has no blocks";
  if (entry_ >= blocks_.size()) return "entry block out of range";
  if (block_of_uop_.size() != uops_.size()) return "block_of map out of sync";

  UopId expected_first = 0;
  for (const BasicBlock& bb : blocks_) {
    if (bb.first_uop != expected_first) return "blocks not contiguous";
    if (bb.num_uops == 0) return "empty basic block";
    expected_first = bb.end_uop();
    if (!bb.succs.empty()) {
      double total = 0.0;
      for (const CfgEdge& e : bb.succs) {
        if (e.target >= blocks_.size()) return "CFG edge target out of range";
        if (e.probability < 0.0 || e.probability > 1.0)
          return "CFG edge probability out of [0,1]";
        total += e.probability;
      }
      if (std::abs(total - 1.0) > 1e-6)
        return "CFG successor probabilities do not sum to 1";
    }
    for (UopId u = bb.first_uop; u < bb.end_uop(); ++u) {
      if (block_of_uop_[u] != bb.id) return "block_of map inconsistent";
    }
  }
  if (expected_first != uops_.size()) return "trailing uops outside any block";

  for (const isa::MicroOp& u : uops_) {
    if (u.num_srcs > 2) return "micro-op with more than 2 sources";
    for (std::uint8_t i = 0; i < u.num_srcs; ++i) {
      if (u.srcs[i].index >= isa::kNumArchRegs) return "source register out of range";
    }
    if (u.has_dst && u.dst.index >= isa::kNumArchRegs)
      return "destination register out of range";
    if (u.op == isa::OpClass::kCopy)
      return "static program must not contain copy micro-ops";
  }
  return "";
}

}  // namespace vcsteer::prog
