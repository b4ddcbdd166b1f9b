// Magnetoquasistatic field solver in the FastHenry [7] style.
//
// Conductors are discretised into volume filaments that share nodes at the
// parent-segment boundaries; each filament carries R + jwL self impedance
// and full mutual coupling to every parallel filament. Driving a 1 A port
// through the filament network yields the frequency-dependent loop
// impedance Z(f) = R(f) + jw L(f): current crowds into low-impedance return
// paths as frequency rises, producing the R-up / L-down behaviour of
// Fig. 3(b) without any explicit skin-effect model.
//
// Two extraction methods share the port/node interface:
//   * Dense — dense partial-L matrix, solved in FastHenry's mesh (loop)
//     formulation: one unknown per independent current loop of the
//     filament graph, M (R + jwL) M^T I_m = V_m, factored by complex LU.
//     Exact for arbitrary geometry; O(n²) memory, O(n · meshes) assembly
//     plus an O(meshes³) solve.
//   * FftGmres — the src/fast/ path: filaments voxelized onto a regular
//     lattice, L applied matrix-free through the circulant-embedded FFT
//     operator, the system solved by restarted GMRES with a sparsified-L
//     preconditioner factored by the real-equivalent SparseLu. O(n log n)
//     per iteration; accuracy governed by the voxel pitch (exact on
//     lattice-aligned layouts — see fast/voxelize.hpp).
//   * Auto — Dense below fast.auto_threshold filaments, FftGmres above.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "extract/skin.hpp"
#include "fast/precond.hpp"
#include "fast/toeplitz_op.hpp"
#include "fast/voxelize.hpp"
#include "geom/layout.hpp"
#include "la/dense_matrix.hpp"
#include "la/gmres.hpp"

namespace ind::loop {

enum class ExtractionMethod {
  Dense,     ///< dense partial-L + mesh-current LU (small-n oracle)
  FftGmres,  ///< voxelized Toeplitz operator + preconditioned GMRES
  Auto,      ///< FftGmres at/above fast.auto_threshold filaments, else Dense
};

const char* to_string(ExtractionMethod method);

/// Knobs of the FftGmres path (ignored by Dense).
struct FastSolveOptions {
  fast::VoxelOptions voxel{};
  fast::PrecondOptions precond{};
  la::GmresOptions gmres{};
  /// Auto method switches to FftGmres at this many filaments.
  std::size_t auto_threshold = 1024;
  /// The ladder's dense-fallback rung is attempted only at or below this
  /// many voxel cells.
  std::size_t dense_fallback_limit = 4096;
  /// false: apply L by direct kernel summation instead of the FFT — the
  /// bitwise dense cross-check mode (slow; tests and A/B oracles only).
  bool use_fft = true;
};

struct MqsOptions {
  extract::SkinSplitOptions skin{};
  double mutual_window = 1e9;  ///< metres; limits the dense coupling range
  double snap = 1e-9;          ///< node coordinate snapping
  ExtractionMethod method = ExtractionMethod::Dense;
  FastSolveOptions fast{};
};

/// Loop impedance decomposed at one frequency.
struct LoopImpedance {
  double frequency = 0.0;   ///< Hz
  double resistance = 0.0;  ///< Re Z, ohms
  double inductance = 0.0;  ///< Im Z / w, henries
};

class MqsSolver {
 public:
  /// Builds the filament system over `segments` (already refined so that
  /// connection points are endpoints). Vias short their end nodes together
  /// (their impedance is negligible at MQS frequencies of interest).
  MqsSolver(const std::vector<geom::Segment>& segments,
            const std::vector<geom::Via>& vias, const geom::Technology& tech,
            const MqsOptions& opts = {});

  std::size_t num_filaments() const { return filaments_.size(); }
  std::size_t num_nodes() const { return node_count_; }

  /// The method actually in effect after Auto resolution (and after the
  /// empty-voxel-grid fallback to Dense).
  ExtractionMethod method() const { return method_; }

  /// Voxel grid of the FftGmres path (snapping-error stats live in
  /// grid()->stats); nullptr on the dense path.
  const fast::VoxelGrid* voxel_grid() const;

  /// Node at a segment-endpoint coordinate; nullopt if no conductor ends
  /// there.
  std::optional<std::size_t> node_at(geom::Point p, int layer) const;

  /// Electrically shorts two nodes (used to tie the receiver end of the
  /// signal to the local ground per the Section-5 extraction setup).
  void short_nodes(std::size_t a, std::size_t b);

  /// Nearest node belonging to a conductor of the given kind.
  std::optional<std::size_t> nearest_node(geom::Point p,
                                          geom::NetKind kind) const;

  /// Loop impedance seen by a 1 A source driven between `plus` and `minus`.
  LoopImpedance port_impedance(std::size_t plus, std::size_t minus,
                               double frequency) const;

 private:
  std::size_t canonical(std::size_t node) const;

  LoopImpedance port_impedance_fft(std::size_t plus, std::size_t minus,
                                   double frequency) const;

  std::vector<geom::Segment> filaments_;
  std::vector<double> fil_resistance_;
  la::Matrix fil_l_;  // filament partial-inductance matrix (Dense only)
  std::vector<std::size_t> fil_a_, fil_b_;
  std::size_t node_count_ = 0;
  std::vector<std::size_t> alias_;  // union-find parent per node
  struct NodeRec {
    geom::Point at;
    int layer;
    geom::NetKind kind;
  };
  std::vector<NodeRec> node_info_;
  std::vector<std::pair<std::uint64_t, std::size_t>> node_keys_;  // sorted
  double snap_ = 1e-9;

  MqsOptions opts_;
  ExtractionMethod method_ = ExtractionMethod::Dense;
  // Shared, immutable after construction — keeps MqsSolver copyable.
  std::shared_ptr<const fast::ToeplitzLOperator> toeplitz_;  // FftGmres only
  sparsify::SparsifiedL precond_l_;  // frequency-independent sparsified L
};

}  // namespace ind::loop
