#include "forecast/arima/linalg.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace fdqos::forecast {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

bool cholesky_solve(const Matrix& a, std::span<const double> b,
                    std::vector<double>& x) {
  FDQOS_REQUIRE(a.rows() == a.cols());
  FDQOS_REQUIRE(a.rows() == b.size());
  const std::size_t n = a.rows();

  // Lower-triangular factor L with A = L·Lᵀ.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) return false;
        l.at(i, i) = std::sqrt(sum);
      } else {
        l.at(i, j) = sum / l.at(j, j);
      }
    }
  }

  // Forward substitution: L·z = b.
  std::vector<double> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l.at(i, k) * z[k];
    z[i] = sum / l.at(i, i);
  }

  // Back substitution: Lᵀ·x = z.
  x.assign(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = z[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= l.at(k, i) * x[k];
    x[i] = sum / l.at(i, i);
  }
  return true;
}

bool solve_normal_equations(Matrix& xtx, std::span<const double> xty,
                            std::vector<double>& beta) {
  FDQOS_REQUIRE(xtx.rows() == xtx.cols());
  FDQOS_REQUIRE(xtx.rows() == xty.size());
  const std::size_t k = xtx.rows();
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < i; ++j) xtx.at(i, j) = xtx.at(j, i);
  }

  double trace = 0.0;
  for (std::size_t i = 0; i < k; ++i) trace += xtx.at(i, i);
  const double ridge = trace > 0.0 ? 1e-10 * trace / static_cast<double>(k) : 1e-10;
  for (std::size_t i = 0; i < k; ++i) xtx.at(i, i) += ridge;

  return cholesky_solve(xtx, xty, beta);
}

}  // namespace fdqos::forecast
