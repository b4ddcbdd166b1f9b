// Sparse matrix support: triplet assembly (natural for MNA stamping) with
// conversion to compressed row/column storage.
//
// The paper's Table 1 workloads are grid-sized (10^5 resistors); the detailed
// PEEC L-block is dense but the rest of the MNA system is very sparse, so the
// circuit engine assembles into triplets and factors with the sparse LU in
// sparse_lu.hpp whenever the dense coupling footprint allows it.
#pragma once

#include <cstddef>
#include <vector>

#include "govern/memory.hpp"
#include "la/dense_matrix.hpp"

namespace ind::la {

/// Triplet (COO) accumulator: duplicate entries are summed on compression,
/// matching the "stamp" idiom of circuit simulators.
class TripletMatrix {
 public:
  TripletMatrix() = default;
  TripletMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
  }

  void add(std::size_t i, std::size_t j, double v) {
    entries_.push_back({i, j, v});
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t entry_count() const { return entries_.size(); }

  struct Entry {
    std::size_t row, col;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

  Matrix to_dense() const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<Entry> entries_;
};

/// Compressed sparse column matrix (duplicates summed, zeros kept if stamped).
class CscMatrix {
 public:
  CscMatrix() = default;
  explicit CscMatrix(const TripletMatrix& t);
  /// Direct construction from compressed arrays (already summed/sorted) —
  /// the artifact store restores serialized matrices through this.
  CscMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> col_ptr, std::vector<std::size_t> row_idx,
            std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
  const std::vector<std::size_t>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// y = A x
  Vector apply(const Vector& x) const;

  Matrix to_dense() const;

 private:
  void recharge() {
    charge_.set((col_ptr_.size() + row_idx_.size()) * sizeof(std::size_t) +
                values_.size() * sizeof(double));
  }

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> col_ptr_;  // size cols+1
  std::vector<std::size_t> row_idx_;  // size nnz
  std::vector<double> values_;        // size nnz
  // The accessors above expose plain std::vector references, so the memory
  // governor accounts these arrays via an RAII charge instead of a tracked
  // allocator (copying charges again; moving transfers the charge).
  govern::MemCharge charge_;
};

/// A X for a dense block of columns (X has a.cols() rows).
Matrix operator*(const CscMatrix& a, const Matrix& x);

/// a + beta * b over the union of both patterns (same dimensions). Entries
/// present in only one operand keep that operand's (scaled) value.
CscMatrix add_scaled(const CscMatrix& a, double beta, const CscMatrix& b);

/// ||A||_1: the largest absolute column sum (the condition estimates'
/// matrix factor).
double norm1(const CscMatrix& a);

}  // namespace ind::la
