#include "loop/mqs_solver.hpp"

#include "runtime/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "extract/partial_inductance.hpp"
#include "la/lu.hpp"
#include "robust/diagnostics.hpp"
#include "robust/recovery.hpp"

namespace ind::loop {
namespace {

std::uint64_t key_of(const geom::Point& p, int layer, double snap) {
  const auto qx = static_cast<std::int64_t>(std::llround(p.x / snap));
  const auto qy = static_cast<std::int64_t>(std::llround(p.y / snap));
  const std::uint64_t ux = static_cast<std::uint64_t>(qx + (1LL << 27));
  const std::uint64_t uy = static_cast<std::uint64_t>(qy + (1LL << 27));
  return (static_cast<std::uint64_t>(layer) << 56) | (ux << 28) | uy;
}

/// Port impedance of a branch network (node_a[k] -> node_b[k], canonical
/// ids below node_count, Z = R + jwL) in FastHenry's mesh formulation. A BFS
/// spanning forest rooted at ref first keeps the fundamental cycles short;
/// each non-tree branch k is a mesh, +k plus the tree path from b back to a.
/// The port's 1 A runs on the tree path s from plus to ref, so
/// M Z M^T I_m = rhs = -M Z s and Z_port = s^T Z s - rhs^T I_m. Floating
/// groups need no pins. With `ladder` the mesh matrix is factored through
/// the dense recovery ladder (nullopt when exhausted); else la::CLU throws.
std::optional<la::Complex> mesh_port_impedance(
    const std::vector<std::size_t>& node_a,
    const std::vector<std::size_t>& node_b, std::size_t node_count,
    const std::vector<double>& r, const la::Matrix& l, double omega,
    std::size_t plus, std::size_t ref, robust::SolveReport* ladder) {
  const std::size_t nb = node_a.size();
  const auto other = [&](std::size_t k, std::size_t v) {
    return node_a[k] == v ? node_b[k] : node_a[k];
  };
  std::vector<std::vector<std::size_t>> adj(node_count);  // no self-loops
  for (std::size_t k = 0; k < nb; ++k)
    if (node_a[k] != node_b[k])
      adj[node_a[k]].push_back(k), adj[node_b[k]].push_back(k);

  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> depth(node_count, kNone), up(node_count, kNone);
  std::vector<std::size_t> queue;
  const auto grow = [&](std::size_t root) {
    depth[root] = 0;
    queue.assign(1, root);
    for (std::size_t h = 0; h < queue.size(); ++h)
      for (const std::size_t k : adj[queue[h]])
        if (const std::size_t v = other(k, queue[h]); depth[v] == kNone) {
          depth[v] = depth[queue[h]] + 1;
          up[v] = k;
          queue.push_back(v);
        }
  };
  grow(ref);
  if (depth[plus] == kNone)  // includes a plus node with no filament
    throw std::invalid_argument(
        "port_impedance: plus and minus are in different conductor groups");
  for (std::size_t v = 0; v < node_count; ++v)
    if (depth[v] == kNone && !adj[v].empty()) grow(v);

  // Signed branch walks (+1 where a walk runs a -> b): walk i < nm is mesh
  // i, walk nm is the port path s.
  std::vector<std::pair<std::size_t, double>> walks, down;
  const auto tree_path = [&](std::size_t u, std::size_t v) {
    for (down.clear(); u != v;) {
      if (depth[u] >= depth[v]) {
        walks.push_back({up[u], node_a[up[u]] == u ? 1.0 : -1.0});
        u = other(up[u], u);
      } else {
        down.push_back({up[v], node_b[up[v]] == v ? 1.0 : -1.0});
        v = other(up[v], v);
      }
    }
    walks.insert(walks.end(), down.rbegin(), down.rend());
  };
  std::vector<std::size_t> ptr{0};
  for (std::size_t k = 0; k < nb; ++k) {
    if (up[node_a[k]] == k || up[node_b[k]] == k) continue;  // tree branch
    walks.push_back({k, 1.0});
    tree_path(node_b[k], node_a[k]);
    ptr.push_back(walks.size());
  }
  tree_path(plus, ref);
  ptr.push_back(walks.size());
  const std::size_t nm = ptr.size() - 2;
  runtime::MetricsRegistry::instance().max_count(
      "solve.mqs_port.max_meshes", static_cast<std::int64_t>(nm));

  // W = [M; s^T] Z [M; s^T]^T by columns (L's rows stand in for columns).
  la::CMatrix w(nm + 1, nm + 1);
  std::vector<double> lw(nb);
  la::CVector zw(nb);
  for (std::size_t j = 0; j <= nm; ++j) {
    std::fill(lw.begin(), lw.end(), 0.0);
    for (std::size_t p = ptr[j]; p < ptr[j + 1]; ++p)
      for (std::size_t e = 0; e < nb; ++e)
        lw[e] += walks[p].second * l(walks[p].first, e);
    for (std::size_t e = 0; e < nb; ++e) zw[e] = {0.0, omega * lw[e]};
    for (std::size_t p = ptr[j]; p < ptr[j + 1]; ++p)
      zw[walks[p].first] += walks[p].second * r[walks[p].first];
    for (std::size_t i = 0; i <= nm; ++i)
      for (std::size_t p = ptr[i]; p < ptr[i + 1]; ++p)
        w(i, j) += walks[p].second * zw[walks[p].first];
  }
  la::Complex z = w(nm, nm);
  if (nm == 0) return z;
  la::CMatrix zm(nm, nm);
  la::CVector rhs(nm), im;
  for (std::size_t i = 0; i < nm; ++i) {
    rhs[i] = -w(i, nm);
    for (std::size_t j = 0; j < nm; ++j) zm(i, j) = w(i, j);
  }
  if (ladder) {
    la::CLU lu = robust::factor_dense_with_recovery(zm, *ladder, "mqs_gmres");
    if (lu.size() == 0) return std::nullopt;
    im = lu.solve(rhs);
  } else {
    im = la::CLU(std::move(zm)).solve(rhs);
  }
  for (std::size_t i = 0; i < nm; ++i) z -= rhs[i] * im[i];
  return z;
}

}  // namespace

const char* to_string(ExtractionMethod method) {
  switch (method) {
    case ExtractionMethod::Dense: return "dense";
    case ExtractionMethod::FftGmres: return "fft_gmres";
    case ExtractionMethod::Auto: return "auto";
  }
  return "unknown";
}

MqsSolver::MqsSolver(const std::vector<geom::Segment>& segments,
                     const std::vector<geom::Via>& vias,
                     const geom::Technology& tech, const MqsOptions& opts)
    : snap_(opts.snap), opts_(opts) {
  std::vector<std::size_t> parent_of;
  filaments_ = extract::split_all(segments, parent_of, opts.skin);

  // Parent-endpoint nodes: filaments of one parent share its two nodes, so
  // current can redistribute laterally only at segment boundaries (volume
  // filament discretisation).
  auto get_node = [&](const geom::Point& p, int layer, geom::NetKind kind) {
    const std::uint64_t key = key_of(p, layer, snap_);
    const auto it = std::lower_bound(
        node_keys_.begin(), node_keys_.end(), key,
        [](const auto& e, std::uint64_t k) { return e.first < k; });
    if (it != node_keys_.end() && it->first == key) return it->second;
    const std::size_t id = node_count_++;
    node_keys_.insert(it, {key, id});
    node_info_.push_back({p, layer, kind});
    alias_.push_back(id);
    return id;
  };

  fil_a_.reserve(filaments_.size());
  fil_b_.reserve(filaments_.size());
  fil_resistance_.reserve(filaments_.size());
  for (std::size_t k = 0; k < filaments_.size(); ++k) {
    const geom::Segment& parent = segments[parent_of[k]];
    fil_a_.push_back(get_node(parent.a, parent.layer, parent.kind));
    fil_b_.push_back(get_node(parent.b, parent.layer, parent.kind));
    const geom::Segment& f = filaments_[k];
    const geom::Layer& layer = tech.layer(f.layer);
    // Volumetric resistivity recovered from the sheet model: rho = Rs * t.
    const double rho = layer.sheet_resistance * layer.thickness;
    fil_resistance_.push_back(
        std::max(rho * f.length() / (f.width * f.thickness), 1e-9));
  }

  method_ = opts.method;
  if (method_ == ExtractionMethod::Auto)
    method_ = filaments_.size() >= opts.fast.auto_threshold
                  ? ExtractionMethod::FftGmres
                  : ExtractionMethod::Dense;

  if (method_ == ExtractionMethod::FftGmres && !filaments_.empty()) {
    fast::VoxelGrid grid = fast::voxelize(filaments_, tech, opts.fast.voxel);
    if (grid.cells.empty()) {
      // Every filament is shorter than half a pitch: nothing to model on
      // the lattice — fall back to the dense path rather than fail.
      method_ = ExtractionMethod::Dense;
    } else {
      runtime::MetricsRegistry::instance().max_count(
          "fast.snap_error_ppm",
          static_cast<std::int64_t>(
              grid.stats.relative_error(grid.pitch) * 1e6));
      toeplitz_ = std::make_shared<const fast::ToeplitzLOperator>(std::move(grid));
      precond_l_ = fast::voxel_sparsified_l(*toeplitz_, opts.fast.precond);
    }
  }
  if (method_ != ExtractionMethod::FftGmres) {
    method_ = ExtractionMethod::Dense;
    fil_l_ = extract::build_partial_inductance_matrix(
        filaments_, {.window = opts.mutual_window});
  }

  for (const geom::Via& v : vias) {
    const auto lo = node_at(v.at, v.lower_layer);
    const auto hi = node_at(v.at, v.upper_layer);
    if (lo && hi) short_nodes(*lo, *hi);
  }
}

const fast::VoxelGrid* MqsSolver::voxel_grid() const {
  return toeplitz_ ? &toeplitz_->grid() : nullptr;
}

std::size_t MqsSolver::canonical(std::size_t node) const {
  while (alias_[node] != node) node = alias_[node];
  return node;
}

void MqsSolver::short_nodes(std::size_t a, std::size_t b) {
  const std::size_t ra = canonical(a), rb = canonical(b);
  if (ra != rb) alias_[std::max(ra, rb)] = std::min(ra, rb);
}

std::optional<std::size_t> MqsSolver::node_at(geom::Point p, int layer) const {
  const std::uint64_t key = key_of(p, layer, snap_);
  const auto it = std::lower_bound(
      node_keys_.begin(), node_keys_.end(), key,
      [](const auto& e, std::uint64_t k) { return e.first < k; });
  if (it == node_keys_.end() || it->first != key) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> MqsSolver::nearest_node(geom::Point p,
                                                   geom::NetKind kind) const {
  std::optional<std::size_t> best;
  double best_d = 1e300;
  for (std::size_t i = 0; i < node_info_.size(); ++i) {
    if (node_info_[i].kind != kind) continue;
    const double d = geom::distance(node_info_[i].at, p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

LoopImpedance MqsSolver::port_impedance(std::size_t plus, std::size_t minus,
                                        double frequency) const {
  if (frequency <= 0.0)
    throw std::invalid_argument("port_impedance: frequency must be positive");
  runtime::ScopedTimer timer("solve.mqs_port");
  runtime::MetricsRegistry::instance().max_count(
      "solve.mqs_port.max_filaments",
      static_cast<std::int64_t>(filaments_.size()));
  if (canonical(plus) == canonical(minus))
    throw std::invalid_argument("port_impedance: port nodes are shorted");
  if (method_ == ExtractionMethod::FftGmres)
    return port_impedance_fft(plus, minus, frequency);
  std::vector<std::size_t> a(filaments_.size()), b(filaments_.size());
  for (std::size_t k = 0; k < filaments_.size(); ++k)
    a[k] = canonical(fil_a_[k]), b[k] = canonical(fil_b_[k]);
  const double omega = 2.0 * M_PI * frequency;
  const la::Complex z =
      *mesh_port_impedance(a, b, node_count_, fil_resistance_, fil_l_, omega,
                           canonical(plus), canonical(minus), nullptr);
  return {frequency, z.real(), z.imag() / omega};
}

LoopImpedance MqsSolver::port_impedance_fft(std::size_t plus,
                                            std::size_t minus,
                                            double frequency) const {
  const fast::VoxelGrid& grid = toeplitz_->grid();
  const std::size_t p_solver = canonical(plus);
  const std::size_t ref_solver = canonical(minus);

  // Combined node space: union-find over the lattice nodes, seeded with the
  // solver-level topology — filaments of one parent tie their row ends
  // together, and shorts/vias recorded at the solver level merge through
  // the shared solver-canonical node. This reproduces the dense path's node
  // sharing exactly on aligned layouts.
  std::vector<std::size_t> lat(grid.node_count);
  for (std::size_t i = 0; i < grid.node_count; ++i) lat[i] = i;
  std::function<std::size_t(std::size_t)> lfind = [&](std::size_t x) {
    while (lat[x] != x) x = lat[x] = lat[lat[x]];
    return x;
  };
  auto lunion = [&](std::size_t a, std::size_t b) {
    const std::size_t ra = lfind(a), rb = lfind(b);
    if (ra != rb) lat[std::max(ra, rb)] = std::min(ra, rb);
  };
  // Representative lattice node per solver-canonical node.
  std::vector<std::ptrdiff_t> solver_rep(node_count_, -1);
  for (std::size_t k = 0; k < filaments_.size(); ++k) {
    for (const auto& [solver_node, lat_node] :
         {std::pair{canonical(fil_a_[k]), grid.fil_node_a[k]},
          std::pair{canonical(fil_b_[k]), grid.fil_node_b[k]}}) {
      if (solver_rep[solver_node] < 0) {
        solver_rep[solver_node] = static_cast<std::ptrdiff_t>(lat_node);
      } else {
        lunion(static_cast<std::size_t>(solver_rep[solver_node]), lat_node);
      }
    }
  }
  if (solver_rep[p_solver] < 0)
    throw std::invalid_argument("port_impedance: plus node is floating");
  if (solver_rep[ref_solver] < 0)
    throw std::invalid_argument("port_impedance: minus node is floating");
  const std::size_t ref =
      lfind(static_cast<std::size_t>(solver_rep[ref_solver]));

  const std::size_t nc = grid.cells.size();
  std::vector<std::size_t> cell_a(nc), cell_b(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    cell_a[c] = lfind(grid.node_a[c]);
    cell_b[c] = lfind(grid.node_b[c]);
  }

  // Compact indices for canonical lattice nodes, reference removed.
  std::vector<std::ptrdiff_t> compact(grid.node_count, -1);
  std::size_t n_active = 0;
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t node : {cell_a[c], cell_b[c]}) {
      if (node == ref || compact[node] >= 0) continue;
      compact[node] = static_cast<std::ptrdiff_t>(n_active++);
    }
  }
  const std::size_t p_lat =
      lfind(static_cast<std::size_t>(solver_rep[p_solver]));
  if (compact[p_lat] < 0)
    throw std::invalid_argument("port_impedance: plus node is floating");

  // Pin one node of every conductor group not connected to the reference
  // with a unit conductance: no current flows through it, so it is exact.
  std::vector<std::size_t> comp(grid.node_count);
  for (std::size_t i = 0; i < grid.node_count; ++i) comp[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (comp[x] != x) x = comp[x] = comp[comp[x]];
    return x;
  };
  for (std::size_t c = 0; c < nc; ++c) {
    const std::size_t ra = find(cell_a[c]);
    const std::size_t rb = find(cell_b[c]);
    if (ra != rb) comp[ra] = rb;
  }
  if (find(p_lat) != find(ref))
    throw std::invalid_argument(
        "port_impedance: plus and minus are in different conductor groups");
  std::vector<std::size_t> pin_nodes;
  {
    std::vector<char> seen(grid.node_count, 0);
    const std::size_t ref_comp = find(ref);
    for (std::size_t i = 0; i < grid.node_count; ++i) {
      if (lfind(i) != i || compact[i] < 0) continue;
      const std::size_t c = find(i);
      if (c == ref_comp || seen[c]) continue;
      seen[c] = 1;
      pin_nodes.push_back(i);
    }
  }

  const std::size_t size = n_active + nc;
  const double omega = 2.0 * M_PI * frequency;
  const la::Complex jw{0.0, omega};
  const bool use_fft = opts_.fast.use_fft;
  const fast::ToeplitzLOperator& op = *toeplitz_;

  // Matrix-free MQS operator: [KCL; branch] x [v; i].
  la::CApplyFn apply = [&](const la::CVector& x, la::CVector& y) {
    la::CVector xi(nc), li(nc);
    for (std::size_t c = 0; c < nc; ++c) xi[c] = x[n_active + c];
    if (use_fft)
      op.apply(xi, li);
    else
      op.apply_dense(xi, li);
    y.assign(size, la::Complex{});
    for (std::size_t c = 0; c < nc; ++c) {
      const std::ptrdiff_t na = compact[cell_a[c]];
      const std::ptrdiff_t nb = compact[cell_b[c]];
      const la::Complex ic = x[n_active + c];
      la::Complex vdrop{};
      if (na >= 0) {
        y[static_cast<std::size_t>(na)] += ic;
        vdrop += x[static_cast<std::size_t>(na)];
      }
      if (nb >= 0) {
        y[static_cast<std::size_t>(nb)] -= ic;
        vdrop -= x[static_cast<std::size_t>(nb)];
      }
      y[n_active + c] =
          vdrop - la::Complex{grid.resistance[c], 0.0} * ic - jw * li[c];
    }
    for (std::size_t node : pin_nodes) {
      const auto idx = static_cast<std::size_t>(compact[node]);
      y[idx] += x[idx];
    }
  };

  la::CVector b(size, la::Complex{});
  b[static_cast<std::size_t>(compact[p_lat])] = 1.0;

  // Preconditioner: the same MQS structure with the sparsified L', factored
  // as a real-equivalent sparse system through the recovery ladder.
  robust::SolveReport report;
  std::unique_ptr<fast::ComplexSparseFactor> pre;
  la::CApplyFn pre_apply;
  std::vector<la::Complex> y_cell;
  if (opts_.fast.precond.kind != fast::PrecondKind::None &&
      precond_l_.terms.empty()) {
    // Diagonal L': the branch rows are decoupled, so eliminate the branch
    // currents exactly, i_c = y_c (v_a - v_b - r_i,c) with
    // y_c = 1 / (R_c + jw L'_cc), and factor the nodal admittance
    // Y = A diag(y) A^T + pins. Y has a non-zero diagonal, so the AMD order
    // holds without the off-diagonal pivots the saddle form forces; the
    // preconditioner is the same operator in exact arithmetic.
    y_cell.resize(nc);
    std::vector<fast::ComplexTriplet> entries;
    entries.reserve(4 * nc + pin_nodes.size());
    for (std::size_t c = 0; c < nc; ++c) {
      y_cell[c] = 1.0 / (la::Complex{grid.resistance[c], 0.0} +
                         jw * precond_l_.diag[c]);
      const std::ptrdiff_t na = compact[cell_a[c]];
      const std::ptrdiff_t nb = compact[cell_b[c]];
      if (na >= 0)
        entries.push_back({static_cast<std::size_t>(na),
                           static_cast<std::size_t>(na), y_cell[c]});
      if (nb >= 0)
        entries.push_back({static_cast<std::size_t>(nb),
                           static_cast<std::size_t>(nb), y_cell[c]});
      if (na >= 0 && nb >= 0) {
        entries.push_back({static_cast<std::size_t>(na),
                           static_cast<std::size_t>(nb), -y_cell[c]});
        entries.push_back({static_cast<std::size_t>(nb),
                           static_cast<std::size_t>(na), -y_cell[c]});
      }
    }
    for (std::size_t node : pin_nodes)
      entries.push_back({static_cast<std::size_t>(compact[node]),
                         static_cast<std::size_t>(compact[node]), 1.0});
    pre = std::make_unique<fast::ComplexSparseFactor>(
        n_active, entries, report, "mqs_precond",
        opts_.fast.dense_fallback_limit);
    // Incidence A: v_a - v_b across cell c, and s scattered into a and -s
    // into b (the reference node has no row).
    const auto drop = [&](const la::CVector& v, std::size_t c) {
      la::Complex d{};
      if (const std::ptrdiff_t na = compact[cell_a[c]]; na >= 0)
        d += v[static_cast<std::size_t>(na)];
      if (const std::ptrdiff_t nb = compact[cell_b[c]]; nb >= 0)
        d -= v[static_cast<std::size_t>(nb)];
      return d;
    };
    const auto scatter = [&](la::CVector& out, std::size_t c, la::Complex s) {
      if (const std::ptrdiff_t na = compact[cell_a[c]]; na >= 0)
        out[static_cast<std::size_t>(na)] += s;
      if (const std::ptrdiff_t nb = compact[cell_b[c]]; nb >= 0)
        out[static_cast<std::size_t>(nb)] -= s;
    };
    pre_apply = [&, drop, scatter](const la::CVector& r, la::CVector& z) {
      // rhs = r_v + A (y o r_i); solve Y v = rhs; recover the currents.
      la::CVector rhs(r.begin(), r.begin() + n_active);
      for (std::size_t c = 0; c < nc; ++c)
        scatter(rhs, c, y_cell[c] * r[n_active + c]);
      la::CVector v = pre->solve(rhs);
      // One step of iterative refinement: along long series chains Y's
      // condition grows like the chain length squared, and the currents
      // y_c (v_a - v_b) difference away v's leading digits. Unrefined, a
      // 3072-cell series loop needs one more GMRES iteration than the
      // saddle factor did.
      la::CVector res = std::move(rhs);
      for (std::size_t c = 0; c < nc; ++c)
        scatter(res, c, -y_cell[c] * drop(v, c));
      for (std::size_t node : pin_nodes) {
        const auto idx = static_cast<std::size_t>(compact[node]);
        res[idx] -= v[idx];
      }
      const la::CVector dv = pre->solve(res);
      z.assign(size, la::Complex{});
      for (std::size_t k = 0; k < n_active; ++k) z[k] = v[k] + dv[k];
      for (std::size_t c = 0; c < nc; ++c)
        z[n_active + c] = y_cell[c] * (drop(z, c) - r[n_active + c]);
    };
    if (!pre->usable()) {
      pre.reset();  // unpreconditioned GMRES is still well-defined
      pre_apply = nullptr;
    }
  } else if (opts_.fast.precond.kind != fast::PrecondKind::None) {
    std::vector<fast::ComplexTriplet> entries;
    entries.reserve(4 * nc + 2 * precond_l_.terms.size() + pin_nodes.size());
    for (std::size_t c = 0; c < nc; ++c) {
      const std::ptrdiff_t na = compact[cell_a[c]];
      const std::ptrdiff_t nb = compact[cell_b[c]];
      const std::size_t br = n_active + c;
      if (na >= 0) {
        entries.push_back({static_cast<std::size_t>(na), br, 1.0});
        entries.push_back({br, static_cast<std::size_t>(na), 1.0});
      }
      if (nb >= 0) {
        entries.push_back({static_cast<std::size_t>(nb), br, -1.0});
        entries.push_back({br, static_cast<std::size_t>(nb), -1.0});
      }
      entries.push_back(
          {br, br,
           -(la::Complex{grid.resistance[c], 0.0} + jw * precond_l_.diag[c])});
    }
    for (const sparsify::MutualTerm& t : precond_l_.terms) {
      entries.push_back(
          {n_active + t.i, n_active + t.j, -jw * la::Complex{t.value}});
      entries.push_back(
          {n_active + t.j, n_active + t.i, -jw * la::Complex{t.value}});
    }
    for (std::size_t node : pin_nodes)
      entries.push_back({static_cast<std::size_t>(compact[node]),
                         static_cast<std::size_t>(compact[node]), 1.0});
    pre = std::make_unique<fast::ComplexSparseFactor>(
        size, entries, report, "mqs_precond", opts_.fast.dense_fallback_limit);
    if (pre->usable()) {
      pre_apply = [&pre](const la::CVector& r, la::CVector& z) {
        z = pre->solve(r);
      };
    } else {
      pre.reset();  // unpreconditioned GMRES is still well-defined
    }
  }

  auto& metrics = runtime::MetricsRegistry::instance();
  la::CVector x(size, la::Complex{});
  const la::CApplyFn* pre_ptr = pre_apply ? &pre_apply : nullptr;

  // Ladder: GMRES → retry → larger restart → dense fallback.
  la::GmresResult gr = la::gmres(apply, b, x, pre_ptr, opts_.fast.gmres);
  if (!gr.converged) {
    report.add_action(robust::RecoveryKind::Retry, 0, 0.0, "mqs_gmres");
    x.assign(size, la::Complex{});
    gr = la::gmres(apply, b, x, pre_ptr, opts_.fast.gmres);
  }
  if (!gr.converged) {
    la::GmresOptions boosted = opts_.fast.gmres;
    boosted.restart *= 2;
    boosted.max_restarts *= 2;
    report.add_action(robust::RecoveryKind::GmresRestart, 1,
                      static_cast<double>(boosted.restart), "mqs_gmres");
    x.assign(size, la::Complex{});
    gr = la::gmres(apply, b, x, pre_ptr, boosted);
  }
  metrics.add_count("fast.gmres_restarts",
                    static_cast<std::int64_t>(gr.restarts));
  la::Complex z = x[static_cast<std::size_t>(compact[p_lat])];
  if (!gr.converged && nc <= opts_.fast.dense_fallback_limit) {
    // Dense fallback: materialise L from the bitwise kernel table and solve
    // the cell network directly, in the mesh formulation of the Dense path.
    report.add_action(robust::RecoveryKind::DenseFallback, 2,
                      static_cast<double>(nc), "mqs_gmres");
    metrics.add_count("fast.dense_fallbacks", 1);
    if (const auto zd = mesh_port_impedance(cell_a, cell_b, grid.node_count,
                                            grid.resistance, op.to_dense(),
                                            omega, p_lat, ref, &report)) {
      z = *zd;
      gr.converged = true;
    }
  }
  if (!gr.converged) report.raise_status(robust::SolveStatus::NonConverged);
  report.residual_norm = gr.relative_residual;
  report.record("mqs_gmres");
  return {frequency, z.real(), z.imag() / omega};
}

}  // namespace ind::loop
