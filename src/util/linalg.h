#pragma once

/// \file linalg.h
/// Small dense linear algebra: vectors as std::vector<double>, a row-major
/// Matrix, Cholesky solves (with adaptive diagonal regularization for the
/// GP solver's Newton systems), and a non-negative least squares routine
/// used by the posynomial model fitter.

#include <algorithm>
#include <cstddef>
#include <vector>

namespace smart::util {

using Vec = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Sets every entry to v (buffer-reuse helper for iterative assemblies).
  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  /// Row-major storage: entry (r, c) is data()[r * cols() + c].
  double* data() { return data_.data(); }

  /// A += alpha * x * x^T (symmetric rank-1 update; requires square A).
  void add_outer(const Vec& x, double alpha);

  /// Returns A * x.
  Vec mul(const Vec& x) const;

  /// Returns A^T * x.
  Vec mul_transpose(const Vec& x) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- vector helpers ----

double dot(const Vec& a, const Vec& b);
double norm2(const Vec& a);
double norm_inf(const Vec& a);
/// y += alpha * x
void axpy(double alpha, const Vec& x, Vec& y);
Vec scaled(const Vec& x, double alpha);

/// Solves the symmetric positive (semi)definite system A x = b in place via
/// Cholesky. If factorization fails, retries with growing diagonal
/// regularization (A + lambda I). Returns the solution; throws util::Error if
/// the system cannot be solved even with heavy regularization.
Vec cholesky_solve(Matrix a, Vec b);

/// Symmetric matrix in skyline (envelope/profile) storage: row i stores the
/// lower-triangle columns [first(i), i] contiguously. Cholesky factors of
/// such matrices fill in only inside the envelope, so for Newton KKT
/// systems whose Hessian is a union of small support cliques (as in the GP
/// solver) both memory and factorization flops drop from O(n^2)/O(n^3) to
/// O(profile)/O(sum of row-length^2).
class SkylineMatrix {
 public:
  SkylineMatrix() = default;
  /// `first[i]` = first potentially nonzero column of row i (<= i). The
  /// profile is fixed at construction; values start at zero.
  explicit SkylineMatrix(std::vector<size_t> first);

  size_t rows() const { return first_.size(); }
  size_t first(size_t i) const { return first_[i]; }
  /// Stored entry count, sum over rows of (i - first(i) + 1).
  size_t profile() const { return vals_.size(); }

  /// Zeroes all stored values, keeping the profile.
  void clear_values();

  /// Lower-triangle access; requires first(i) <= j <= i.
  double& at(size_t i, size_t j) { return vals_[start_[i] + j - first_[i]]; }
  double at(size_t i, size_t j) const {
    return vals_[start_[i] + j - first_[i]];
  }
  /// Adds v at (i, j) when (i, j) lies in the stored lower triangle and
  /// silently drops strict upper-triangle coordinates.
  void add(size_t i, size_t j, double v) {
    if (j <= i) at(i, j) += v;
  }
  /// Raw storage for assembly loops: entry (i, j), first(i) <= j <= i, is
  /// values()[row_offset(i) + j]. The offset is never negative.
  double* values() { return vals_.data(); }
  std::ptrdiff_t row_offset(size_t i) const {
    return static_cast<std::ptrdiff_t>(start_[i] - first_[i]);
  }

 private:
  std::vector<size_t> first_;
  std::vector<size_t> start_;  ///< offset of row i's first stored column
  std::vector<double> vals_;
};

/// Solves A x = b for a skyline-stored SPD matrix with the same adaptive
/// diagonal-regularization retry policy as cholesky_solve. Throws
/// util::Error when the system stays indefinite under heavy regularization.
Vec skyline_cholesky_solve(SkylineMatrix a, Vec b);

/// Non-negative least squares: minimizes |A x - b|^2 subject to x >= 0,
/// via Lawson-Hanson active-set iteration. Suitable for the small systems
/// (< 16 unknowns) of the model fitter.
Vec nnls(const Matrix& a, const Vec& b, int max_iter = 200);

}  // namespace smart::util
