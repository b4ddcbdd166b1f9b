// Hierarchical interconnect circuit models (Beattie et al. [16];
// Section 4): "The concept of global circuit node is introduced to separate
// the electrical interaction into local and global interaction."
//
// Implementation: the MNA unknowns are partitioned into blocks; any unknown
// that interacts across blocks (or carries an input/output) is promoted to a
// *global* unknown and kept exactly. Each block's internal unknowns are
// compressed with a per-block Krylov basis (local PRIMA) whose inputs are
// the block's couplings to the global unknowns. The overall projection
//   V = diag(I_global, V_block1, V_block2, ...)
// is a congruence, so the passivity structure of G and C is preserved while
// the interaction is split exactly as the paper describes: local detail in
// the block bases, global detail untouched.
#pragma once

#include <vector>

#include "mor/prima.hpp"

namespace ind::mor {

struct HierarchicalOptions {
  std::size_t order_per_block = 8;            ///< Krylov columns per block
  double s0 = 2.0 * 3.141592653589793 * 1e9;  ///< expansion point (rad/s)
  double deflation_tol = 1e-10;
};

struct HierarchicalResult {
  ReducedModel model;
  std::size_t global_unknowns = 0;  ///< kept exactly
  std::vector<std::size_t> block_orders;
};

/// Reduces (g, c, b, l) given a block id per unknown (entries < 0 are
/// forced global). Unknowns with nonzero rows in b or l, and unknowns
/// coupling to a different block, are promoted to global automatically.
HierarchicalResult hierarchical_reduce(const la::CscMatrix& g,
                                       const la::CscMatrix& c,
                                       const la::Matrix& b,
                                       const la::Matrix& l,
                                       std::vector<int> block_of,
                                       const HierarchicalOptions& opts = {});

}  // namespace ind::mor
