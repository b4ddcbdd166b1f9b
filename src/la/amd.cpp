#include "la/amd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ind::la {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

enum class State : unsigned char {
  Variable,  // principal variable still in the graph
  Merged,    // eliminated with parent[i]: a supervariable or pivot it joined
  Element,   // eliminated pivot whose element is alive
  Absorbed,  // eliminated pivot whose element was absorbed into parent[i]
  HeldOut,   // dense row or `last` node, ordered after the graph
};

// Variables bucketed by approximate degree, each bucket a doubly linked
// list. Insertion is at the head, and the pivot is the head of the lowest
// non-empty bucket, so among equal degrees the newest variable goes first.
// (Taking the oldest instead filled the Table-1 block-diagonal companion
// 6 % less but the Fig. 3 AC system 20 % more, with more pivot drift.)
class DegreeLists {
 public:
  explicit DegreeLists(std::size_t n)
      : head_(n + 1, kNone), next_(n, kNone), prev_(n, kNone), min_(n) {}

  void insert(std::size_t i, std::size_t d) {
    next_[i] = head_[d];
    prev_[i] = kNone;
    if (head_[d] != kNone) prev_[head_[d]] = i;
    head_[d] = i;
    min_ = std::min(min_, d);
  }

  void remove(std::size_t i, std::size_t d) {
    if (prev_[i] != kNone)
      next_[prev_[i]] = next_[i];
    else
      head_[d] = next_[i];
    if (next_[i] != kNone) prev_[next_[i]] = prev_[i];
  }

  /// Removes and returns a variable of minimum degree; requires one.
  std::size_t pop_min(const std::vector<std::size_t>& degree) {
    while (head_[min_] == kNone) ++min_;
    const std::size_t p = head_[min_];
    remove(p, degree[p]);
    return p;
  }

 private:
  std::vector<std::size_t> head_, next_, prev_;
  std::size_t min_;
};

}  // namespace

std::vector<std::size_t> amd_order(const CscMatrix& a,
                                   const std::vector<std::size_t>& last) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("amd_order: matrix must be square");
  const std::size_t n = a.rows();
  std::vector<State> state(n, State::Variable);
  for (const std::size_t v : last) {
    if (v >= n)
      throw std::invalid_argument("amd_order: last node out of range");
    if (state[v] == State::HeldOut)
      throw std::invalid_argument("amd_order: repeated last node");
    state[v] = State::HeldOut;
  }

  // vars[i]: for a variable, its adjacent variables; for an element, the
  // variables of its pattern. Starts as A + Aᵀ without self-loops.
  std::vector<std::vector<std::size_t>> vars(n);
  {
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
        const std::size_t i = ri[p];
        if (i == j) continue;
        vars[i].push_back(j);
        vars[j].push_back(i);
      }
    }
    for (auto& nb : vars) {
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
  }

  // Dense rows would make every degree update expensive and say little
  // about fill: they are held out, with `last`, and ordered at the end.
  const double dense = std::max(16.0, 10.0 * std::sqrt(static_cast<double>(n)));
  std::vector<std::size_t> dense_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == State::Variable &&
        static_cast<double>(vars[i].size()) > dense) {
      state[i] = State::HeldOut;
      dense_rows.push_back(i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& nb = vars[i];
    if (state[i] == State::HeldOut) {
      nb = {};
      continue;
    }
    nb.erase(std::remove_if(nb.begin(), nb.end(),
                            [&](std::size_t j) {
                              return state[j] == State::HeldOut;
                            }),
             nb.end());
  }

  // elems[i]: elements adjacent to variable i. nv[i]: original nodes in
  // supervariable i. esize[e]: weighted size of element e's pattern.
  std::vector<std::vector<std::size_t>> elems(n);
  std::vector<std::size_t> nv(n, 1), degree(n, 0), esize(n, 0);
  std::vector<std::size_t> parent(n, kNone), ext_degree(n, 0);
  DegreeLists lists(n);
  std::size_t remaining = 0;  // original nodes still in the graph
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != State::Variable) continue;
    degree[i] = vars[i].size();
    lists.insert(i, degree[i]);
    ++remaining;
  }

  std::vector<std::size_t> pivots;  // in elimination order
  std::vector<std::size_t> lp;
  std::vector<std::size_t> in_lp(n, kNone), w(n, 0), w_step(n, kNone);
  std::vector<std::size_t> seen(n, kNone);
  std::size_t seen_stamp = 0;
  std::vector<std::pair<std::size_t, std::size_t>> by_hash;

  while (remaining > 0) {
    const std::size_t p = lists.pop_min(degree);
    const std::size_t step = pivots.size();
    pivots.push_back(p);
    std::size_t eliminated = nv[p];

    // Lp = (Ap ∪ the patterns of p's elements) \ {p}; those elements are
    // absorbed into the new element p.
    lp.clear();
    in_lp[p] = step;
    auto collect = [&](const std::vector<std::size_t>& from) {
      for (const std::size_t i : from) {
        if (state[i] != State::Variable || in_lp[i] == step) continue;
        in_lp[i] = step;
        lp.push_back(i);
      }
    };
    for (const std::size_t e : elems[p]) {
      collect(vars[e]);
      state[e] = State::Absorbed;
      parent[e] = p;
      vars[e] = {};
    }
    collect(vars[p]);
    elems[p] = {};
    state[p] = State::Element;
    for (const std::size_t i : lp) lists.remove(i, degree[i]);

    // w[e] = |Le \ Lp| for every live element adjacent to Lp.
    for (const std::size_t i : lp) {
      for (const std::size_t e : elems[i]) {
        if (state[e] != State::Element) continue;  // absorbed just above
        if (w_step[e] != step) {
          w_step[e] = step;
          w[e] = esize[e];
        }
        w[e] -= nv[i];
      }
    }

    // Prune each list of Lp and take its external degree: the elements'
    // |Le \ Lp| plus the variables outside Lp. An element with Le ⊆ Lp
    // adds nothing new and is absorbed (aggressive absorption). A variable
    // left with no external degree is adjacent to element p only, so it
    // is eliminated together with p (mass elimination).
    by_hash.clear();
    for (const std::size_t i : lp) {
      std::size_t deg = 0, hash = 0, kept = 0;
      auto& ei = elems[i];
      for (const std::size_t e : ei) {
        if (state[e] != State::Element) continue;
        if (w[e] == 0) {
          state[e] = State::Absorbed;
          parent[e] = p;
          vars[e] = {};
          continue;
        }
        deg += w[e];
        hash += e;
        ei[kept++] = e;
      }
      ei.resize(kept);
      ei.push_back(p);
      auto& ai = vars[i];
      kept = 0;
      for (const std::size_t j : ai) {
        if (state[j] != State::Variable || in_lp[j] == step) continue;
        deg += nv[j];
        hash += j;
        ai[kept++] = j;
      }
      ai.resize(kept);
      if (deg == 0) {
        state[i] = State::Merged;
        parent[i] = p;
        eliminated += nv[i];
        ai = {};
        ei = {};
        continue;
      }
      ext_degree[i] = deg;
      by_hash.emplace_back(hash, i);
    }

    // Supervariables: variables of Lp with equal adjacency (same elements,
    // same outside variables) are indistinguishable from here on; merge
    // them into the first of their hash group.
    std::sort(by_hash.begin(), by_hash.end());
    for (std::size_t g = 0; g < by_hash.size();) {
      std::size_t end = g;
      while (end < by_hash.size() && by_hash[end].first == by_hash[g].first)
        ++end;
      for (std::size_t x = g; x < end; ++x) {
        const std::size_t i = by_hash[x].second;
        if (state[i] != State::Variable) continue;
        ++seen_stamp;
        for (const std::size_t e : elems[i]) seen[e] = seen_stamp;
        for (const std::size_t j : vars[i]) seen[j] = seen_stamp;
        auto all_seen = [&](const std::vector<std::size_t>& list) {
          return std::all_of(list.begin(), list.end(), [&](std::size_t v) {
            return seen[v] == seen_stamp;
          });
        };
        for (std::size_t y = x + 1; y < end; ++y) {
          const std::size_t j = by_hash[y].second;
          if (state[j] != State::Variable ||
              elems[j].size() != elems[i].size() ||
              vars[j].size() != vars[i].size() || !all_seen(elems[j]) ||
              !all_seen(vars[j]))
            continue;
          nv[i] += nv[j];
          state[j] = State::Merged;
          parent[j] = i;
          vars[j] = {};
          elems[j] = {};
        }
      }
      g = end;
    }

    // The new element's pattern, and the approximate degree of each of its
    // variables: min(n - k, old degree + |Lp \ i|, external + |Lp \ i|).
    remaining -= eliminated;
    auto& le = vars[p];
    le.clear();
    std::size_t lp_weight = 0;
    for (const std::size_t i : lp) {
      if (state[i] != State::Variable) continue;
      le.push_back(i);
      lp_weight += nv[i];
    }
    esize[p] = lp_weight;
    for (const std::size_t i : le) {
      const std::size_t d =
          std::min(std::min(degree[i], ext_degree[i]) + lp_weight - nv[i],
                   remaining - nv[i]);
      degree[i] = d;
      lists.insert(i, d);
    }
  }

  // Postorder of the assembly tree (element -> the element that absorbed
  // it). Each pivot's block is the pivot plus every node merged into it,
  // in index order; children are visited in elimination order.
  std::vector<std::size_t> pivot_of(n, kNone), path;
  for (const std::size_t p : pivots) pivot_of[p] = p;
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] != State::Merged || pivot_of[i] != kNone) continue;
    std::size_t r = i;
    for (; pivot_of[r] == kNone; r = parent[r]) path.push_back(r);
    for (const std::size_t s : path) pivot_of[s] = pivot_of[r];
    path.clear();
  }
  std::vector<std::size_t> block_head(n, kNone), block_next(n, kNone);
  for (std::size_t i = n; i-- > 0;) {
    if (pivot_of[i] == kNone) continue;  // held out
    block_next[i] = block_head[pivot_of[i]];
    block_head[pivot_of[i]] = i;
  }
  std::vector<std::size_t> child_head(n, kNone), sibling(n, kNone);
  for (std::size_t k = pivots.size(); k-- > 0;) {
    const std::size_t e = pivots[k];
    if (state[e] != State::Absorbed) continue;
    sibling[e] = child_head[parent[e]];
    child_head[parent[e]] = e;
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> stack;
  for (const std::size_t root : pivots) {
    if (state[root] != State::Element) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::size_t e = stack.back();
      if (child_head[e] != kNone) {
        const std::size_t c = child_head[e];
        child_head[e] = sibling[c];
        stack.push_back(c);
        continue;
      }
      stack.pop_back();
      for (std::size_t i = block_head[e]; i != kNone; i = block_next[i])
        order.push_back(i);
    }
  }
  order.insert(order.end(), dense_rows.begin(), dense_rows.end());
  order.insert(order.end(), last.begin(), last.end());
  return order;
}

}  // namespace ind::la
