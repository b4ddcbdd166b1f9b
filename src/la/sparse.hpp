// Sparse matrix support: triplet assembly (natural for MNA stamping) with
// conversion to compressed column storage.
//
// The paper's Table 1 workloads are grid-sized (10^5 resistors); the detailed
// PEEC L-block is dense but the rest of the MNA system is very sparse, so the
// circuit engine assembles into triplets and factors with the sparse LU in
// sparse_lu.hpp whenever the dense coupling footprint allows it.
//
// Two pieces serve the transient's per-step cost:
//   * CscAssembly records how one triplet sequence compresses (which
//     triplets each slot sums, in which order), so a matrix restamped with
//     new values but the same (row, col) sequence is refilled in place with
//     no sort. CscMatrix(const TripletMatrix&) compresses through it, so the
//     tree has one duplicate-summing order.
//   * ColumnRuns splits each column into singletons and runs of consecutive
//     indices; CscMatrix::apply and the sparse LU's solves hand a run to a
//     plain contiguous loop, which GCC vectorises.
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
  /// Drops every entry, keeping the capacity (restamping reuses it).
  void clear() { entries_.clear(); }

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

/// The singleton/run split of a compressed-column pattern. In each column, a
/// run is a maximal stretch of at least kMinRun consecutive entries whose
/// indices ascend by one; every other entry is a singleton. walk() visits a
/// column's entries in stored order, handing each run to one contiguous
/// loop. A kernel that updates each index of a column once does exactly the
/// arithmetic of the all-singleton loop, so its results are bitwise equal.
class ColumnRuns {
 public:
  static constexpr std::size_t kMinRun = 4;

  /// Splits columns `from`.. of the pattern (ptr, idx), where column j's
  /// entries are [ptr[j], ptr[j+1]); the runs of earlier columns are kept.
  void split(const std::vector<std::size_t>& ptr,
             const std::vector<std::size_t>& idx, std::size_t from = 0);

  /// single(p) for each singleton p and run(p, q) for each run [p, q) of
  /// column j, whose entries are [begin, end), in stored order.
  template <class Single, class Run>
  void walk(std::size_t j, std::size_t begin, std::size_t end, Single&& single,
            Run&& run) const {
    std::size_t p = begin;
    for (std::size_t r = ptr_[j]; r < ptr_[j + 1]; ++r) {
      for (; p < runs_[r].begin; ++p) single(p);
      run(runs_[r].begin, runs_[r].end);
      p = runs_[r].end;
    }
    for (; p < end; ++p) single(p);
  }

  std::size_t bytes() const {
    return ptr_.size() * sizeof(std::size_t) + runs_.size() * sizeof(Run);
  }

 private:
  struct Run {
    std::size_t begin, end;
  };
  std::vector<std::size_t> ptr_;  // column j's runs: [ptr_[j], ptr_[j+1])
  std::vector<Run> runs_;
};

class CscAssembly;

/// Compressed sparse column matrix (duplicates summed, zeros kept if stamped).
class CscMatrix {
 public:
  CscMatrix() = default;
  /// Compresses through CscAssembly(t): each slot sums its triplets in the
  /// plan's order.
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
  /// y = A x into the caller's `y` (resized to rows(); no allocation when it
  /// already has that size). `y` must not alias `x`.
  void apply(const Vector& x, Vector& y) const;

  Matrix to_dense() const;

 private:
  friend class CscAssembly;
  void finish() {
    runs_.split(col_ptr_, row_idx_);
    charge_.set((col_ptr_.size() + row_idx_.size()) * sizeof(std::size_t) +
                values_.size() * sizeof(double) + runs_.bytes());
  }

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> col_ptr_;  // size cols+1
  std::vector<std::size_t> row_idx_;  // size nnz
  std::vector<double> values_;        // size nnz
  ColumnRuns runs_;                   // apply()'s split of the pattern
  // The accessors above expose plain std::vector references, so the memory
  // governor accounts these arrays via an RAII charge instead of a tracked
  // allocator (copying charges again; moving transfers the charge).
  govern::MemCharge charge_;
};

/// How one triplet sequence compresses. Slot s of the compressed pattern
/// sums its triplets in the order the plan lists them: a column's triplets
/// in stamping order, then std::sort by row. The sort's permutation depends
/// only on the rows, so the order is a pure function of the (row, col)
/// sequence, and equal rows keep whatever order the sort leaves them in.
/// A matrix restamped with new values but the same sequence is refilled in
/// place, with no sort or compress.
class CscAssembly {
 public:
  CscAssembly() = default;
  /// Plans the compression of t's (row, col) sequence. Throws
  /// std::out_of_range for a triplet outside t's dimensions.
  explicit CscAssembly(const TripletMatrix& t);

  /// The compressed matrix whose triplet i has the value value_of(i).
  template <class ValueOf>
  CscMatrix matrix(ValueOf&& value_of) const {
    std::vector<double> values(row_idx_.size());
    sum(values.data(), value_of);
    return CscMatrix(rows_, cols_, col_ptr_, row_idx_, std::move(values));
  }
  /// Rewrites the values of `a`, which this plan compressed, in place.
  /// Throws std::invalid_argument when `a` has another shape or nnz.
  template <class ValueOf>
  void refill(CscMatrix& a, ValueOf&& value_of) const {
    check_refill(a);
    sum(a.values_.data(), value_of);
  }

 private:
  friend class CscMatrix;
  template <class ValueOf>
  void sum(double* out, ValueOf& value_of) const {
    for (std::size_t s = 0; s + 1 < slot_ptr_.size(); ++s) {
      std::size_t p = slot_ptr_[s];
      double acc = value_of(src_[p]);
      for (++p; p < slot_ptr_[s + 1]; ++p) acc += value_of(src_[p]);
      out[s] = acc;
    }
  }
  void check_refill(const CscMatrix& a) const;

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> col_ptr_, row_idx_;  // the compressed pattern
  std::vector<std::size_t> slot_ptr_;  // slot s sums src_[slot_ptr_[s]..[s+1])
  std::vector<std::size_t> src_;       // triplet indices, in summing order
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
