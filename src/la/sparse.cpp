#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ind::la {

Matrix TripletMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (const Entry& e : entries_) m(e.row, e.col) += e.value;
  return m;
}

CscMatrix::CscMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> col_ptr,
                     std::vector<std::size_t> row_idx,
                     std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  if (col_ptr_.size() != cols_ + 1 || row_idx_.size() != values_.size() ||
      (cols_ > 0 && col_ptr_.back() != values_.size()))
    throw std::invalid_argument("CscMatrix: inconsistent compressed arrays");
  for (std::size_t r : row_idx_)
    if (r >= rows_) throw std::invalid_argument("CscMatrix: row out of range");
  recharge();
}

CscMatrix::CscMatrix(const TripletMatrix& t) : rows_(t.rows()), cols_(t.cols()) {
  // Count entries per column.
  std::vector<std::size_t> count(cols_ + 1, 0);
  for (const auto& e : t.entries()) {
    if (e.row >= rows_ || e.col >= cols_)
      throw std::out_of_range("CscMatrix: triplet out of range");
    ++count[e.col + 1];
  }
  col_ptr_.assign(cols_ + 1, 0);
  for (std::size_t j = 0; j < cols_; ++j) col_ptr_[j + 1] = col_ptr_[j] + count[j + 1];

  std::vector<std::size_t> cursor(col_ptr_.begin(), col_ptr_.end() - 1);
  std::vector<std::size_t> raw_rows(t.entry_count());
  std::vector<double> raw_vals(t.entry_count());
  for (const auto& e : t.entries()) {
    const std::size_t pos = cursor[e.col]++;
    raw_rows[pos] = e.row;
    raw_vals[pos] = e.value;
  }

  // Sort each column by row and merge duplicates.
  row_idx_.reserve(raw_rows.size());
  values_.reserve(raw_vals.size());
  std::vector<std::size_t> new_ptr(cols_ + 1, 0);
  std::vector<std::pair<std::size_t, double>> colbuf;
  for (std::size_t j = 0; j < cols_; ++j) {
    colbuf.clear();
    for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
      colbuf.emplace_back(raw_rows[p], raw_vals[p]);
    std::sort(colbuf.begin(), colbuf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t col_start = row_idx_.size();
    for (const auto& [row, val] : colbuf) {
      const bool merge = row_idx_.size() > col_start && row_idx_.back() == row;
      if (merge) {
        values_.back() += val;
      } else {
        row_idx_.push_back(row);
        values_.push_back(val);
      }
    }
    new_ptr[j + 1] = row_idx_.size();
  }
  col_ptr_ = std::move(new_ptr);
  recharge();
}

Vector CscMatrix::apply(const Vector& x) const {
  if (x.size() != cols_) throw std::invalid_argument("CscMatrix::apply: size");
  Vector y(rows_, 0.0);
  for (std::size_t j = 0; j < cols_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
      y[row_idx_[p]] += values_[p] * xj;
  }
  return y;
}

Matrix CscMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t j = 0; j < cols_; ++j)
    for (std::size_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p)
      m(row_idx_[p], j) += values_[p];
  return m;
}

Matrix operator*(const CscMatrix& a, const Matrix& x) {
  if (x.rows() != a.cols())
    throw std::invalid_argument("CscMatrix * Matrix: inner dimension");
  const std::size_t w = x.cols();
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_idx();
  const auto& av = a.values();
  Matrix y(a.rows(), w);
  for (std::size_t j = 0; j < a.cols(); ++j) {
    const double* xj = x.data() + j * w;
    for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
      double* yi = y.data() + ri[p] * w;
      for (std::size_t c = 0; c < w; ++c) yi[c] += av[p] * xj[c];
    }
  }
  return y;
}

CscMatrix add_scaled(const CscMatrix& a, double beta, const CscMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("add_scaled: dimension mismatch");
  std::vector<std::size_t> col_ptr(a.cols() + 1, 0), row_idx;
  std::vector<double> values;
  row_idx.reserve(a.nnz() + b.nnz());
  values.reserve(a.nnz() + b.nnz());
  const auto &ap = a.col_ptr(), &ar = a.row_idx(), &bp = b.col_ptr(),
             &br = b.row_idx();
  const auto &av = a.values(), &bv = b.values();
  for (std::size_t j = 0; j < a.cols(); ++j) {
    std::size_t p = ap[j], q = bp[j];
    while (p < ap[j + 1] || q < bp[j + 1]) {
      const std::size_t ra = p < ap[j + 1] ? ar[p] : a.rows();
      const std::size_t rb = q < bp[j + 1] ? br[q] : b.rows();
      if (ra < rb) {
        row_idx.push_back(ra);
        values.push_back(av[p++]);
      } else if (rb < ra) {
        row_idx.push_back(rb);
        values.push_back(beta * bv[q++]);
      } else {
        row_idx.push_back(ra);
        values.push_back(av[p++] + beta * bv[q++]);
      }
    }
    col_ptr[j + 1] = row_idx.size();
  }
  return CscMatrix(a.rows(), a.cols(), std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

double norm1(const CscMatrix& a) {
  double norm = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p)
      sum += std::abs(a.values()[p]);
    norm = std::max(norm, sum);
  }
  return norm;
}

}  // namespace ind::la
