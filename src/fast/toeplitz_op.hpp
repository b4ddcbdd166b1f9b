// Matrix-free partial-inductance operator over a voxel grid.
//
// Because every cell of a VoxelGrid is an identical axis-aligned bar on a
// regular lattice, the mutual partial inductance of two same-orientation
// cells depends only on their lattice offset (dx, dy, dz) — the L block is
// block-Toeplitz — and orthogonal cells do not couple at all (Grover).
// ToeplitzLOperator precomputes one kernel tensor per orientation from the
// *same* analytic Grover/GMD formulas the dense extractor uses
// (extract/partial_inductance.hpp), embeds it in a circulant of 5-smooth
// dimensions, and caches its forward 3-D FFT. Applying L·x is then
// scatter → FFT → pointwise multiply → inverse FFT → gather per
// orientation: O(n log n) instead of the dense O(n²). Both transforms are
// pruned to the block's support (fft.hpp): the forward skips the lines the
// scatter left zero, the inverse the lines no cell gathers from.
//
// Cross-check contract: to_dense() materialises L from the *identical*
// kernel evaluations the FFT path multiplies with (one table, two consumers)
// — entries agree bitwise with kernel(), and the FFT apply matches the dense
// multiply to ~1e-12 relative (roundoff of the transforms only). The dense
// form doubles as the small-n oracle in tests and as the ladder's
// dense-fallback system when GMRES cannot converge.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fast/fft.hpp"
#include "fast/voxelize.hpp"
#include "la/dense_matrix.hpp"

namespace ind::fast {

class ToeplitzLOperator {
 public:
  /// Builds the per-orientation kernel tensors and their FFTs. Timed under
  /// "fast.kernel"; charges the governor per kernel slice.
  explicit ToeplitzLOperator(VoxelGrid grid);

  std::size_t size() const { return grid_.cells.size(); }
  const VoxelGrid& grid() const { return grid_; }

  /// Kernel entry: mutual partial inductance (henries) of two cells of the
  /// given orientation at lattice offset (dx, dy, dz); the (0,0,0) entry is
  /// the cell self inductance. Even in every component.
  double kernel(geom::Axis axis, std::int64_t dx, std::int64_t dy,
                std::int64_t dz) const;

  /// y = L x via the circulant FFT path. Bitwise deterministic at any
  /// thread count. Timed under "fast.apply".
  void apply(const la::CVector& x, la::CVector& y) const;

  /// y = L x by direct O(n²) kernel summation — the bitwise-exact dense
  /// cross-check mode (identical kernel values, no transform roundoff).
  void apply_dense(const la::CVector& x, la::CVector& y) const;

  /// Dense L over the cells, from the same kernel table (small-n oracle and
  /// the ladder's dense-fallback operator).
  la::Matrix to_dense() const;

 private:
  struct Block {
    geom::Axis axis = geom::Axis::X;
    std::vector<std::uint32_t> cells;      ///< indices into grid_.cells
    std::array<std::int64_t, 3> mn{};      ///< min lattice coords
    std::array<std::size_t, 3> dims{};     ///< lattice extent per axis
    std::array<std::size_t, 3> embed{};    ///< circulant (FFT) dims
    std::vector<std::size_t> slot;         ///< per block cell: embed index
    FftSupport support;                    ///< per axis: embed indices in use
    std::array<FftPlan, 3> plans;          ///< one per embed axis
    std::vector<la::Complex> kernel_fft;   ///< DFT of the embedded kernel
  };

  void build_block(Block& block);

  VoxelGrid grid_;
  std::vector<Block> blocks_;
};

}  // namespace ind::fast
