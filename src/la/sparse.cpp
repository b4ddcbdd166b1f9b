#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ind::la {

Matrix TripletMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (const Entry& e : entries_) m(e.row, e.col) += e.value;
  return m;
}

void ColumnRuns::split(const std::vector<std::size_t>& ptr,
                       const std::vector<std::size_t>& idx, std::size_t from) {
  const std::size_t cols = ptr.empty() ? 0 : ptr.size() - 1;
  if (ptr_.empty()) ptr_.push_back(0);
  ptr_.resize(std::min(from, ptr_.size() - 1) + 1);
  runs_.resize(ptr_.back());
  for (std::size_t j = ptr_.size() - 1; j < cols; ++j) {
    for (std::size_t p = ptr[j]; p < ptr[j + 1];) {
      std::size_t q = p + 1;
      while (q < ptr[j + 1] && idx[q] == idx[q - 1] + 1) ++q;
      if (q - p >= kMinRun) runs_.push_back({p, q});
      p = q;
    }
    ptr_.push_back(runs_.size());
  }
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
  finish();
}

CscAssembly::CscAssembly(const TripletMatrix& t)
    : rows_(t.rows()), cols_(t.cols()) {
  const auto& entries = t.entries();
  // Bucket the triplets by column, in stamping order.
  std::vector<std::size_t> bucket(cols_ + 1, 0);
  for (const auto& e : entries) {
    if (e.row >= rows_ || e.col >= cols_)
      throw std::out_of_range("CscMatrix: triplet out of range");
    ++bucket[e.col + 1];
  }
  for (std::size_t j = 0; j < cols_; ++j) bucket[j + 1] += bucket[j];
  std::vector<std::size_t> cursor(bucket.begin(), bucket.end() - 1);
  std::vector<std::size_t> by_col(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    by_col[cursor[entries[i].col]++] = i;

  // Sort each column by row (std::sort: its permutation is a function of
  // the rows alone) and merge equal rows into one slot.
  col_ptr_.assign(cols_ + 1, 0);
  row_idx_.reserve(entries.size());
  slot_ptr_.reserve(entries.size() + 1);
  src_.reserve(entries.size());
  std::vector<std::pair<std::size_t, std::size_t>> colbuf;  // (row, triplet)
  for (std::size_t j = 0; j < cols_; ++j) {
    colbuf.clear();
    for (std::size_t p = bucket[j]; p < bucket[j + 1]; ++p)
      colbuf.emplace_back(entries[by_col[p]].row, by_col[p]);
    std::sort(colbuf.begin(), colbuf.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::size_t col_start = row_idx_.size();
    for (const auto& [row, i] : colbuf) {
      if (row_idx_.size() == col_start || row_idx_.back() != row) {
        slot_ptr_.push_back(src_.size());
        row_idx_.push_back(row);
      }
      src_.push_back(i);
    }
    col_ptr_[j + 1] = row_idx_.size();
  }
  slot_ptr_.push_back(src_.size());
}

void CscAssembly::check_refill(const CscMatrix& a) const {
  if (a.rows() != rows_ || a.cols() != cols_ || a.nnz() != row_idx_.size())
    throw std::invalid_argument("CscAssembly::refill: not this plan's matrix");
}

CscMatrix::CscMatrix(const TripletMatrix& t) {
  CscAssembly plan(t);
  const auto& entries = t.entries();
  values_.resize(plan.row_idx_.size());
  auto value_of = [&](std::size_t i) { return entries[i].value; };
  plan.sum(values_.data(), value_of);
  rows_ = plan.rows_;
  cols_ = plan.cols_;
  col_ptr_ = std::move(plan.col_ptr_);
  row_idx_ = std::move(plan.row_idx_);
  finish();
}

Vector CscMatrix::apply(const Vector& x) const {
  Vector y;
  apply(x, y);
  return y;
}

void CscMatrix::apply(const Vector& x, Vector& y) const {
  if (x.size() != cols_) throw std::invalid_argument("CscMatrix::apply: size");
  y.assign(rows_, 0.0);
  double* out = y.data();
  const std::size_t* ri = row_idx_.data();
  const double* v = values_.data();
  for (std::size_t j = 0; j < cols_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    runs_.walk(
        j, col_ptr_[j], col_ptr_[j + 1],
        [&](std::size_t p) { out[ri[p]] += v[p] * xj; },
        [&](std::size_t p, std::size_t q) {
          double* d = out + ri[p];
          const double* w = v + p;
          for (std::size_t i = 0; i < q - p; ++i) d[i] += w[i] * xj;
        });
  }
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
