// Static program representation.
//
// A Program is the unit the software-side steering passes operate on:
// basic blocks of micro-ops connected by a control-flow graph with edge
// probabilities. Each basic block is one *scheduling region* for the
// compiler passes (the generator emits large, superblock-sized blocks, so a
// region gives the compiler the "bigger window of instructions" the paper
// credits software-only schemes with). Dynamic traces reference static
// micro-ops by UopId; runtime register dependences may cross block
// boundaries even though the compiler's view is per-region, mirroring the
// real compiler-scope limitation the paper discusses in §3.2/§4.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "isa/uop.hpp"

namespace vcsteer::prog {

using UopId = std::uint32_t;
using BlockId = std::uint32_t;
constexpr UopId kInvalidUop = ~0u;
constexpr BlockId kInvalidBlock = ~0u;

/// Control-flow successor with a static branch probability. A block's
/// successor probabilities sum to 1 (validated); a block with no successors
/// is an exit.
struct CfgEdge {
  BlockId target = kInvalidBlock;
  double probability = 1.0;
};

struct BasicBlock {
  BlockId id = kInvalidBlock;
  UopId first_uop = 0;           ///< contiguous range [first_uop, first_uop+n)
  std::uint32_t num_uops = 0;
  std::vector<CfgEdge> succs;

  UopId uop_at(std::uint32_t i) const {
    VCSTEER_DCHECK(i < num_uops);
    return first_uop + i;
  }
  UopId end_uop() const { return first_uop + num_uops; }
  bool contains(UopId u) const { return u >= first_uop && u < end_uop(); }
};

class Program {
 public:
  explicit Program(std::string name = "program") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  std::size_t num_uops() const { return uops_.size(); }
  std::size_t num_blocks() const { return blocks_.size(); }
  BlockId entry() const { return entry_; }

  const isa::MicroOp& uop(UopId id) const {
    VCSTEER_DCHECK(id < uops_.size());
    return uops_[id];
  }
  /// Mutable access for the steering passes, which annotate SteerHints.
  isa::MicroOp& mutable_uop(UopId id) {
    VCSTEER_DCHECK(id < uops_.size());
    return uops_[id];
  }

  const BasicBlock& block(BlockId id) const {
    VCSTEER_DCHECK(id < blocks_.size());
    return blocks_[id];
  }
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  /// Block containing a given uop (blocks hold contiguous uop ranges).
  BlockId block_of(UopId u) const {
    VCSTEER_DCHECK(u < uops_.size());
    return block_of_uop_[u];
  }

  /// Clear all steering hints (between runs of different software passes).
  void clear_hints();
  /// Copy every micro-op's steering hint from `annotated`, a copy of this
  /// program that a software pass annotated.
  void copy_hints(const Program& annotated);

  /// Structural validation: blocks contiguous, probabilities sum to ~1,
  /// entry valid, register indices in range. Empty string when valid.
  std::string validate() const;

 private:
  friend class ProgramBuilder;

  std::string name_;
  std::vector<isa::MicroOp> uops_;
  std::vector<BasicBlock> blocks_;
  std::vector<BlockId> block_of_uop_;
  BlockId entry_ = 0;
};

/// Incremental builder used by the workload generator, tests and examples.
///
///   ProgramBuilder b("demo");
///   auto bb = b.begin_block();
///   b.add(OpClass::kIntAlu, /*dst=*/r(1), {r(1), r(2)});
///   ...
///   b.end_block({{next_bb, 1.0}});
///   Program p = std::move(b).finish();
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name) : program_(std::move(name)) {}

  /// Starts a new basic block and returns its id. Blocks must be ended
  /// before a new one begins.
  BlockId begin_block();

  /// Appends a micro-op to the open block, returns its id.
  UopId add(const isa::MicroOp& uop);
  UopId add(isa::OpClass op, isa::ArchReg dst,
            std::initializer_list<isa::ArchReg> srcs);
  /// Op with no destination (store data/addr srcs, branch condition src).
  UopId add_void(isa::OpClass op, std::initializer_list<isa::ArchReg> srcs);

  /// Closes the open block with the given successor edges.
  void end_block(std::vector<CfgEdge> succs);

  void set_entry(BlockId b) { program_.entry_ = b; }

  /// Validates and returns the program. CHECK-fails on invalid structure —
  /// builders are driven by code, not user input.
  Program finish() &&;

 private:
  Program program_;
  bool block_open_ = false;
  BlockId open_block_ = kInvalidBlock;
};

}  // namespace vcsteer::prog
