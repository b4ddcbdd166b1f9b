#include "mor/hierarchical.hpp"

#include <algorithm>
#include <stdexcept>

#include "la/qr.hpp"

namespace ind::mor {

HierarchicalResult hierarchical_reduce(const la::CscMatrix& g,
                                       const la::CscMatrix& c,
                                       const la::Matrix& b,
                                       const la::Matrix& l,
                                       std::vector<int> block_of,
                                       const HierarchicalOptions& opts) {
  const std::size_t n = g.rows();
  if (g.cols() != n || c.rows() != n || c.cols() != n || b.rows() != n ||
      l.rows() != n || block_of.size() != n)
    throw std::invalid_argument("hierarchical_reduce: dimension mismatch");

  // --- Promote to global: input/output rows, then (iteratively) unknowns
  // that couple to a different block. After this loop no G/C entry connects
  // internals of two different blocks.
  for (std::size_t i = 0; i < n; ++i) {
    bool io = false;
    for (std::size_t j = 0; j < b.cols(); ++j) io |= b(i, j) != 0.0;
    for (std::size_t j = 0; j < l.cols(); ++j) io |= l(i, j) != 0.0;
    if (io) block_of[i] = -1;
  }
  // Coupling partners of each unknown: j with a nonzero G or C entry at
  // (i, j) or (j, i), ascending. One pass over both CSC patterns instead of
  // an n^2 scan per promotion sweep.
  std::vector<std::vector<std::size_t>> partners(n);
  for (const la::CscMatrix* m : {&g, &c}) {
    const auto& cp = m->col_ptr();
    const auto& ri = m->row_idx();
    const auto& mv = m->values();
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
        if (mv[p] == 0.0 || ri[p] == j) continue;
        partners[ri[p]].push_back(j);
        partners[j].push_back(ri[p]);
      }
  }
  for (auto& list : partners) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (block_of[i] < 0) continue;
      for (std::size_t j : partners[i]) {
        if (block_of[j] < 0 || block_of[j] == block_of[i]) continue;
        // Promote the unknown with the weaker block claim (higher index).
        block_of[std::max(i, j)] = -1;
        changed = true;
        break;
      }
    }
  }

  // --- Index sets.
  std::vector<std::size_t> globals;
  int max_block = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (block_of[i] < 0)
      globals.push_back(i);
    else
      max_block = std::max(max_block, block_of[i]);
  }
  std::vector<std::vector<std::size_t>> blocks(
      static_cast<std::size_t>(max_block + 1));
  for (std::size_t i = 0; i < n; ++i)
    if (block_of[i] >= 0)
      blocks[static_cast<std::size_t>(block_of[i])].push_back(i);

  HierarchicalResult result;
  result.global_unknowns = globals.size();

  // --- Block bases by basis splitting (BSMOR-style): run one global Krylov
  // recursion, then restrict and re-orthonormalise its columns per block.
  // Any global Krylov vector is exactly representable in the assembled
  // structured basis (up to the per-block truncation), so the hierarchical
  // model is at least as accurate as a flat reduction of the same depth
  // while keeping the paper's local/global separation.
  const std::size_t n_blocks = blocks.size();
  const std::size_t global_order = std::min(
      n, opts.order_per_block * std::max<std::size_t>(1, n_blocks));
  PrimaOptions popts;
  popts.max_order = global_order;
  popts.s0 = opts.s0;
  popts.deflation_tol = opts.deflation_tol;
  const ReducedModel flat = prima_reduce(g, c, b, l, popts);

  struct BlockBasis {
    std::vector<std::size_t> rows;
    la::Matrix v;  // |rows| x q_k
  };
  std::vector<BlockBasis> bases;
  for (const auto& rows : blocks) {
    if (rows.empty()) continue;
    // Restrict the global basis to this block's rows.
    la::Matrix restricted(rows.size(), flat.v.cols());
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t j = 0; j < flat.v.cols(); ++j)
        restricted(i, j) = flat.v(rows[i], j);
    const la::QrResult qr = la::orthonormalize(restricted, opts.deflation_tol);
    // Keep the leading columns: the Krylov recursion orders them by moment,
    // so truncation drops the highest moments first.
    const std::size_t keep =
        std::min<std::size_t>(qr.rank, opts.order_per_block);
    la::Matrix v_k(rows.size(), keep);
    for (std::size_t j = 0; j < keep; ++j)
      for (std::size_t i = 0; i < rows.size(); ++i) v_k(i, j) = qr.q(i, j);
    result.block_orders.push_back(keep);
    bases.push_back({rows, std::move(v_k)});
  }

  // --- Assemble V = diag(I_global, V_1, V_2, ...).
  std::size_t q = globals.size();
  for (const BlockBasis& bb : bases) q += bb.v.cols();
  la::Matrix v(n, q);
  for (std::size_t k = 0; k < globals.size(); ++k) v(globals[k], k) = 1.0;
  std::size_t col = globals.size();
  for (const BlockBasis& bb : bases) {
    for (std::size_t j = 0; j < bb.v.cols(); ++j, ++col)
      for (std::size_t i = 0; i < bb.rows.size(); ++i)
        v(bb.rows[i], col) = bb.v(i, j);
  }

  ReducedModel& r = result.model;
  r.v = v;
  const la::Matrix vt = v.transposed();
  r.g = vt * (g * v);
  r.c = vt * (c * v);
  r.b = vt * b;
  r.l = vt * l;
  return result;
}

}  // namespace ind::mor
