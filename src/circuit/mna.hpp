// Modified Nodal Analysis assembly.
//
// Unknown ordering: node voltages [0, N), inductor branch currents
// [N, N+NL), voltage-source branch currents [N+NL, N+NL+NV). The switched
// drivers contribute *time-varying* conductances and are stamped separately
// so the engines can detect when a refactorisation is actually needed.
#pragma once

#include "circuit/netlist.hpp"
#include "la/dense_matrix.hpp"
#include "la/sparse.hpp"

namespace ind::circuit {

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

  /// Stamps every *time-invariant* element into G (conductance/incidence)
  /// and C (capacitance/inductance), i.e. the system G x + C x' = b(t)
  /// before driver conductances are added.
  void stamp_static(la::TripletMatrix& g, la::TripletMatrix& c) const;

  /// Appends the driver pull-up/pull-down conductances evaluated at time t.
  void stamp_drivers(la::TripletMatrix& g, double t) const;

  /// Source vector b(t).
  void rhs(double t, la::Vector& out) const;

  /// y += G(t) x where G(t) = static G + driver conductances at time t.
  /// `g_static` must be the CSC compression of the static stamps.
  void apply_g(const la::CscMatrix& g_static, double t, const la::Vector& x,
               la::Vector& y) const;

  /// Minimum conductance added from every node to ground for numerical
  /// robustness (also stamped by stamp_static).
  double gmin = 1e-12;

 private:
  const Netlist* netlist_;
  std::size_t n_nodes_ = 0, n_inductors_ = 0, n_vsources_ = 0, size_ = 0;
};

}  // namespace ind::circuit
