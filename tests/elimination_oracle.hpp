// Fill oracle for the AMD tests: exact minimum degree on the elimination
// graph, kept in plain sets. It shares no code with la/amd.cpp's quotient
// graph, so it bounds AMD's approximate degrees from outside.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "la/sparse.hpp"

namespace ind::test {

/// Adjacency of A + Aᵀ without self-loops.
inline std::vector<std::set<std::size_t>> symmetric_graph(
    const la::CscMatrix& a) {
  std::vector<std::set<std::size_t>> g(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p)
      if (a.row_idx()[p] != j) {
        g[j].insert(a.row_idx()[p]);
        g[a.row_idx()[p]].insert(j);
      }
  return g;
}

/// Off-diagonal entries of the Cholesky factor L of the pattern eliminated
/// in `order` (`order` empty: exact minimum degree, smallest index first).
/// Each elimination joins the pivot's neighbours into a clique.
inline std::size_t elimination_fill(
    std::vector<std::set<std::size_t>> g,
    const std::vector<std::size_t>& order = {}) {
  const std::size_t n = g.size();
  std::vector<bool> done(n, false);
  std::size_t fill = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = order.empty() ? n : order[k];
    for (std::size_t v = 0; order.empty() && v < n; ++v)
      if (!done[v] && (p == n || g[v].size() < g[p].size())) p = v;
    done[p] = true;
    fill += g[p].size();
    for (const std::size_t u : g[p]) {
      g[u].erase(p);
      for (const std::size_t v : g[p])
        if (v != u) g[u].insert(v);
    }
    g[p].clear();
  }
  return fill;
}

}  // namespace ind::test
