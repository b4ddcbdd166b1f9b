// Modified Nodal Analysis assembly, and the descriptor system the transient
// integrates.
//
// Unknown ordering: node voltages [0, N), inductor branch currents
// [N, N+NL), voltage-source branch currents [N+NL, N+NL+NV). The switched
// drivers contribute *time-varying* conductances and are kept out of the
// static G so the engines can detect when a refactorisation is needed.
//
// Passive sign convention: every branch row (inductor, K-group and
// voltage-source equations) is stamped negated, so an inductor's or a
// voltage source's KCL column and its branch row are antisymmetric. Then
// G + Gᵀ is twice the conductance stamps (⪰ 0) and C = diag(capacitances,
// L) ⪰ 0, which is what lets a congruence (PRIMA) preserve passivity. A
// K-group row takes the same sign, though its K entries have no
// antisymmetric partner.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "circuit/netlist.hpp"
#include "la/dense_matrix.hpp"
#include "la/sparse.hpp"

namespace ind::circuit {

enum class ProbeKind {
  NodeVoltage,
  InductorCurrent,
  VSourceCurrent,
  DriverPullUpCurrent,   ///< current from vdd rail into the output
  DriverPullDownCurrent  ///< current from the output into the gnd rail
};

struct Probe {
  ProbeKind kind = ProbeKind::NodeVoltage;
  std::size_t index = 0;  ///< node id / inductor idx / vsource idx / driver idx
  std::string name;
};

/// One recorded waveform: the sum of weight × x[index] over `terms`,
/// multiplied by a driver's pull-up or pull-down conductance at t when
/// `gain` says so (a rail current: linear in x, but time-varying).
struct Output {
  enum class Gain { One, PullUp, PullDown };
  std::string name;
  std::vector<std::pair<std::size_t, double>> terms;
  Gain gain = Gain::One;
  std::size_t driver = 0;  ///< index into DescriptorSystem::drivers
};

/// A linear descriptor system  G x + C x' + G_d(t) x = B u(t),  y = outputs,
/// where G_d(t) stamps each switched driver's pull-up and pull-down
/// conductances (stamp_drivers) onto the unknowns its out/vdd/gnd name
/// (kGround = the reference). Mna::system produces one from a netlist and
/// mor::reduced_system one from a reduced model; circuit::transient
/// integrates either.
struct DescriptorSystem {
  la::TripletMatrix g;                  ///< static G, n x n (drivers excluded)
  la::TripletMatrix c;                  ///< C, n x n
  la::TripletMatrix b;                  ///< B, n x inputs.size()
  std::vector<Pwl> inputs;              ///< u(t), one per column of B
  std::vector<SwitchedDriver> drivers;  ///< node fields index unknowns
  std::vector<Output> outputs;

  std::size_t size() const { return g.rows(); }
};

/// Appends the drivers' pull-up/pull-down conductances evaluated at time t.
void stamp_drivers(const std::vector<SwitchedDriver>& drivers,
                   la::TripletMatrix& g, double t);

class Mna {
 public:
  explicit Mna(const Netlist& netlist);

  const Netlist& netlist() const { return *netlist_; }
  std::size_t size() const { return size_; }
  std::size_t num_nodes() const { return n_nodes_; }
  std::size_t inductor_branch(std::size_t k) const { return n_nodes_ + k; }
  std::size_t vsource_branch(std::size_t k) const {
    return n_nodes_ + n_inductors_ + k;
  }

  /// The netlist as a descriptor system: every time-invariant element in G
  /// (conductance/incidence) and C (capacitance/inductance); one column of
  /// B per source, voltage sources first, then current sources, each with
  /// its waveform; the netlist's drivers; one output per probe. Throws
  /// std::out_of_range on a probe whose index names no element of its kind.
  DescriptorSystem system(const std::vector<Probe>& probes = {}) const;

  /// Minimum conductance added from every node to ground for numerical
  /// robustness (also stamped by system()).
  double gmin = 1e-12;

 private:
  Output output(const Probe& p) const;

  const Netlist* netlist_;
  std::size_t n_nodes_ = 0, n_inductors_ = 0, n_vsources_ = 0, size_ = 0;
};

}  // namespace ind::circuit
