#include "fast/toeplitz_op.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "extract/partial_inductance.hpp"
#include "fast/fft.hpp"
#include "govern/budget.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace ind::fast {
namespace {

/// Offset encoded by circulant slot t for a dimension of extent c embedded
/// in e slots: [0, c) holds +t, (e-c, e) holds t-e, the middle is unused
/// padding. Returns false for padding slots.
bool slot_offset(std::size_t t, std::size_t c, std::size_t e,
                 std::int64_t& d) {
  if (t < c) {
    d = static_cast<std::int64_t>(t);
    return true;
  }
  if (t + c > e) {
    d = static_cast<std::int64_t>(t) - static_cast<std::int64_t>(e);
    return true;
  }
  return false;
}

/// Two representative cells at the lattice offset (dx, dy, dz); same
/// formulas (and the same GMD clamp) as the dense extractor, so the
/// voxelized system on an aligned layout is the dense system, exactly.
/// Canonical offset sign first: K is even in the offset mathematically, but
/// the +d and -d segment placements round differently at the ULP level —
/// evaluating only the lexicographically positive representative makes the
/// operator (and to_dense()) exactly symmetric.
void offset_segments(const VoxelGrid& grid, geom::Axis axis, std::int64_t dx,
                     std::int64_t dy, std::int64_t dz, geom::Segment& s0,
                     geom::Segment& s1) {
  if (dx < 0 || (dx == 0 && (dy < 0 || (dy == 0 && dz < 0)))) {
    dx = -dx;
    dy = -dy;
    dz = -dz;
  }
  const double p = grid.pitch;
  s0.width = s1.width = grid.width;
  s0.thickness = s1.thickness = grid.thickness;
  s0.z = 0.0;
  s1.z = static_cast<double>(dz) * grid.pitch_z;
  const double ox = static_cast<double>(dx) * p;
  const double oy = static_cast<double>(dy) * p;
  if (axis == geom::Axis::X) {
    s0.a = {0.0, 0.0};
    s0.b = {p, 0.0};
    s1.a = {ox, oy};
    s1.b = {ox + p, oy};
  } else {
    s0.a = {0.0, 0.0};
    s0.b = {0.0, p};
    s1.a = {ox, oy};
    s1.b = {ox, oy + p};
  }
}

}  // namespace

double ToeplitzLOperator::kernel(geom::Axis axis, std::int64_t dx,
                                 std::int64_t dy, std::int64_t dz) const {
  if (dx == 0 && dy == 0 && dz == 0)
    return extract::self_partial_inductance(grid_.pitch, grid_.width,
                                            grid_.thickness);
  geom::Segment s0, s1;
  offset_segments(grid_, axis, dx, dy, dz, s0, s1);
  return extract::mutual_between(s0, s1);
}

ToeplitzLOperator::ToeplitzLOperator(VoxelGrid grid) : grid_(std::move(grid)) {
  runtime::ScopedTimer timer("fast.kernel");
  for (const geom::Axis axis : {geom::Axis::X, geom::Axis::Y}) {
    Block block;
    block.axis = axis;
    for (std::uint32_t i = 0; i < grid_.cells.size(); ++i)
      if (grid_.cells[i].axis == axis) block.cells.push_back(i);
    if (block.cells.empty()) continue;
    build_block(block);
    blocks_.push_back(std::move(block));
  }
}

void ToeplitzLOperator::build_block(Block& block) {
  std::array<std::int64_t, 3> mx{};
  block.mn = {INT64_MAX, INT64_MAX, INT64_MAX};
  mx = {INT64_MIN, INT64_MIN, INT64_MIN};
  for (const std::uint32_t ci : block.cells) {
    const VoxelCell& c = grid_.cells[ci];
    const std::array<std::int64_t, 3> pos = {c.ix, c.iy, c.iz};
    for (int a = 0; a < 3; ++a) {
      block.mn[a] = std::min(block.mn[a], pos[a]);
      mx[a] = std::max(mx[a], pos[a]);
    }
  }
  std::size_t total = 1;
  for (int a = 0; a < 3; ++a) {
    block.dims[a] = static_cast<std::size_t>(mx[a] - block.mn[a]) + 1;
    block.embed[a] =
        block.dims[a] == 1 ? 1 : good_fft_size(2 * block.dims[a] - 1);
    total *= block.embed[a];
  }
  const std::size_t e1 = block.embed[1], e2 = block.embed[2];
  block.slot.resize(block.cells.size());
  for (std::size_t k = 0; k < block.cells.size(); ++k) {
    const VoxelCell& c = grid_.cells[block.cells[k]];
    const std::array<std::int64_t, 3> pos = {c.ix, c.iy, c.iz};
    std::array<std::size_t, 3> idx{};
    for (int a = 0; a < 3; ++a) {
      idx[a] = static_cast<std::size_t>(pos[a] - block.mn[a]);
      block.support[a].push_back(idx[a]);
    }
    block.slot[k] = (idx[0] * e1 + idx[1]) * e2 + idx[2];
  }
  for (int a = 0; a < 3; ++a) {
    std::vector<std::size_t>& s = block.support[a];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    block.plans[a] = FftPlan(block.embed[a]);
  }

  // Kernel tensor over the circulant: slot (t0,t1,t2) holds the mutual at
  // lattice offset (d0,d1,d2); padding slots stay zero (they are never hit
  // by offsets between two in-grid cells). Parallel over t0 slices; each
  // slot is written by exactly one chunk, so the tensor — and everything
  // downstream of it — is bitwise-reproducible at any thread count.
  std::vector<la::Complex> kernel_grid(total, la::Complex{});
  const geom::Axis axis = block.axis;
  runtime::parallel_for(
      block.embed[0],
      [&](std::size_t begin, std::size_t end) {
        if (govern::checkpoint((end - begin) * e1 * e2 / 64 + 1)) return;
        // Per (t0, t1) row: gather the Grover arguments of every valid t2
        // slot, evaluate them in one batch sweep, scatter back. Geometry and
        // sign come from the same mutual_args the scalar kernel() uses and
        // the batch kernel's per-element arithmetic matches the scalar call,
        // so this path stays bitwise-identical to filling each slot with
        // kernel() — the Toeplitz-vs-dense exactness test pins that down.
        std::vector<std::size_t> slots;
        std::vector<double> bl1, bl2, bgap, bgmd, bsign, bval;
        for (std::size_t t0 = begin; t0 < end; ++t0) {
          std::int64_t d0;
          if (!slot_offset(t0, block.dims[0], block.embed[0], d0)) continue;
          for (std::size_t t1 = 0; t1 < e1; ++t1) {
            std::int64_t d1;
            if (!slot_offset(t1, block.dims[1], e1, d1)) continue;
            slots.clear();
            bl1.clear();
            bl2.clear();
            bgap.clear();
            bgmd.clear();
            bsign.clear();
            for (std::size_t t2 = 0; t2 < e2; ++t2) {
              std::int64_t d2;
              if (!slot_offset(t2, block.dims[2], e2, d2)) continue;
              const std::size_t slot = (t0 * e1 + t1) * e2 + t2;
              if (d0 == 0 && d1 == 0 && d2 == 0) {
                kernel_grid[slot] = extract::self_partial_inductance(
                    grid_.pitch, grid_.width, grid_.thickness);
                continue;
              }
              geom::Segment s0, s1;
              offset_segments(grid_, axis, d0, d1, d2, s0, s1);
              const auto g = geom::parallel_geometry(s0, s1);
              if (!g) {  // unreachable: lattice cells of one axis are parallel
                kernel_grid[slot] = la::Complex{};
                continue;
              }
              const extract::MutualArgs a = extract::mutual_args(s0, s1, *g);
              slots.push_back(slot);
              bl1.push_back(a.l1);
              bl2.push_back(a.l2);
              bgap.push_back(a.axial_gap);
              bgmd.push_back(a.gmd);
              bsign.push_back(a.sign);
            }
            bval.resize(slots.size());
            extract::mutual_partial_inductance_batch(slots.size(), bl1.data(),
                                                     bl2.data(), bgap.data(),
                                                     bgmd.data(), bval.data());
            for (std::size_t k = 0; k < slots.size(); ++k)
              kernel_grid[slots[k]] = bsign[k] * bval[k];
          }
        }
      },
      {.cancel = govern::cancel_token()});
  govern::throw_if_cancelled("fast.kernel");
  fft_3d(block.embed, kernel_grid, false);
  block.kernel_fft = std::move(kernel_grid);
}

void ToeplitzLOperator::apply(const la::CVector& x, la::CVector& y) const {
  if (x.size() != size())
    throw std::invalid_argument("ToeplitzLOperator::apply: size mismatch");
  runtime::ScopedTimer timer("fast.apply");
  y.assign(size(), la::Complex{});
  for (const Block& block : blocks_) {
    const std::size_t total = block.kernel_fft.size();
    std::vector<la::Complex> buf(total, la::Complex{});
    // Scatter accumulates: colocated cells (collapsed filament rows) sum
    // their currents into one slot, exactly as the dense kernel matrix
    // would couple them.
    for (std::size_t k = 0; k < block.cells.size(); ++k)
      buf[block.slot[k]] += x[block.cells[k]];
    fft_3d(block.plans, block.support, buf, false);
    runtime::parallel_for(
        total,
        [&](std::size_t begin, std::size_t end) {
          if (govern::checkpoint((end - begin) / 256 + 1)) return;
          for (std::size_t i = begin; i < end; ++i)
            buf[i] *= block.kernel_fft[i];
        },
        {.cancel = govern::cancel_token()});
    govern::throw_if_cancelled("fast.apply");
    fft_3d(block.plans, block.support, buf, true);
    for (std::size_t k = 0; k < block.cells.size(); ++k)
      y[block.cells[k]] = buf[block.slot[k]];
  }
}

void ToeplitzLOperator::apply_dense(const la::CVector& x,
                                    la::CVector& y) const {
  if (x.size() != size())
    throw std::invalid_argument("ToeplitzLOperator::apply_dense: size mismatch");
  y.assign(size(), la::Complex{});
  for (const Block& block : blocks_) {
    for (std::size_t a = 0; a < block.cells.size(); ++a) {
      const VoxelCell& ca = grid_.cells[block.cells[a]];
      la::Complex acc{};
      for (std::size_t b = 0; b < block.cells.size(); ++b) {
        const VoxelCell& cb = grid_.cells[block.cells[b]];
        acc += kernel(block.axis, ca.ix - cb.ix, ca.iy - cb.iy,
                      ca.iz - cb.iz) *
               x[block.cells[b]];
      }
      y[block.cells[a]] = acc;
    }
  }
}

la::Matrix ToeplitzLOperator::to_dense() const {
  const std::size_t n = size();
  la::Matrix l(n, n);
  runtime::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        if (govern::checkpoint((end - begin) * n / 64 + 1)) return;
        for (std::size_t i = begin; i < end; ++i) {
          const VoxelCell& ci = grid_.cells[i];
          for (std::size_t j = 0; j < n; ++j) {
            const VoxelCell& cj = grid_.cells[j];
            if (ci.axis != cj.axis) continue;
            l(i, j) = kernel(ci.axis, ci.ix - cj.ix, ci.iy - cj.iy,
                             ci.iz - cj.iz);
          }
        }
      },
      {.cancel = govern::cancel_token()});
  govern::throw_if_cancelled("fast.to_dense");
  return l;
}

}  // namespace ind::fast
