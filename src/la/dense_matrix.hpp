// Dense column-ordered matrix over double or std::complex<double>.
//
// This is the workhorse container for the PEEC partial-inductance matrix
// (inherently dense, Section 4 of the paper), for MNA system matrices of
// moderate size, and for the small reduced-order models produced by PRIMA.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "govern/memory.hpp"

namespace ind::la {

using Complex = std::complex<double>;

/// Dense row-major matrix. Elements are value-initialised (zero) on resize.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

  /// Build from nested initialiser list; all rows must have equal length.
  DenseMatrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = rows.size();
    cols_ = rows_ ? rows.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& r : rows) {
      assert(r.size() == cols_);
      data_.insert(data_.end(), r.begin(), r.end());
    }
  }

  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  void fill(T value) { data_.assign(data_.size(), value); }

  DenseMatrix transposed() const {
    DenseMatrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  DenseMatrix& operator+=(const DenseMatrix& rhs) {
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += rhs.data_[k];
    return *this;
  }
  DenseMatrix& operator-=(const DenseMatrix& rhs) {
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t k = 0; k < data_.size(); ++k) data_[k] -= rhs.data_[k];
    return *this;
  }
  DenseMatrix& operator*=(T scale) {
    for (auto& v : data_) v *= scale;
    return *this;
  }

  friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) {
    a += b;
    return a;
  }
  friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) {
    a -= b;
    return a;
  }
  friend DenseMatrix operator*(DenseMatrix a, T s) {
    a *= s;
    return a;
  }
  friend DenseMatrix operator*(T s, DenseMatrix a) {
    a *= s;
    return a;
  }

  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
    assert(a.cols_ == b.rows_);
    DenseMatrix c(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) c(i, j) += aik * b(k, j);
      }
    }
    return c;
  }

  /// y = A * x
  std::vector<T> apply(const std::vector<T>& x) const {
    assert(x.size() == cols_);
    std::vector<T> y(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      T acc{};
      const T* row = data_.data() + i * cols_;
      for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
      y[i] = acc;
    }
    return y;
  }

  /// y = A^T * x
  std::vector<T> apply_transposed(const std::vector<T>& x) const {
    assert(x.size() == rows_);
    std::vector<T> y(cols_, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      const T* row = data_.data() + i * cols_;
      for (std::size_t j = 0; j < cols_; ++j) y[j] += row[j] * x[i];
    }
    return y;
  }

  bool operator==(const DenseMatrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Tracked allocator: dense matrices dominate the memory footprint (the
  // partial-inductance block is O(n^2)), so their bytes feed the governor's
  // IND_MEM_BYTES accounting. data()/operator() still hand out plain T*.
  std::vector<T, govern::TrackingAllocator<T>> data_;
};

using Matrix = DenseMatrix<double>;
using CMatrix = DenseMatrix<Complex>;
using Vector = std::vector<double>;
using CVector = std::vector<Complex>;

/// Euclidean dot product / norm.
double dot(const Vector& a, const Vector& b);
double norm2(const Vector& v);

}  // namespace ind::la
