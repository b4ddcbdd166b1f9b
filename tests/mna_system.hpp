// Test helper: the static MNA stamps of a netlist (drivers excluded), in the
// sparse form mor:: consumes and in the dense form the oracles use.
#pragma once

#include "circuit/mna.hpp"
#include "la/sparse.hpp"

namespace ind::test {

struct MnaSystem {
  la::CscMatrix g, c;  ///< compressed stamps (what prima_reduce takes)
  la::Matrix g_dense;  ///< TripletMatrix::to_dense() of the same stamps
  la::Matrix c_dense;
};

inline MnaSystem stamp_mna(const circuit::Netlist& nl) {
  const circuit::DescriptorSystem sys = circuit::Mna(nl).system();
  return {la::CscMatrix(sys.g), la::CscMatrix(sys.c), sys.g.to_dense(),
          sys.c.to_dense()};
}

}  // namespace ind::test
