// Small dense linear algebra for ARMA estimation.
//
// Problem sizes here are tiny (normal equations of order p+q+1 ≤ ~25), so a
// plain row-major matrix with Cholesky solves is both sufficient and easy to
// verify.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fdqos::forecast {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Solves A·x = b for symmetric positive-definite A via Cholesky.
// Returns false (x unspecified) if A is not positive definite.
bool cholesky_solve(const Matrix& a, std::span<const double> b,
                    std::vector<double>& x);

// Ordinary least squares from its normal equations: solves
// (XᵀX + λI)·beta = Xᵀy, where `xtx` holds the upper triangle of XᵀX
// (the lower one is overwritten) and λ is a small ridge relative to
// trace(XᵀX) for numerical robustness against collinear regressors.
// Returns false on failure.
bool solve_normal_equations(Matrix& xtx, std::span<const double> xty,
                            std::vector<double>& beta);

}  // namespace fdqos::forecast
