#include "forecast/arima/hannan_rissanen.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/assert.hpp"
#include "common/f64x2.hpp"
#include "forecast/arima/difference.hpp"
#include "forecast/arima/levinson.hpp"
#include "forecast/arima/linalg.hpp"
#include "stats/autocorrelation.hpp"

namespace fdqos::forecast {
namespace {

// Pure-mean "ARMA(0,0)" fit.
ArmaFitResult fit_constant(std::span<const double> w) {
  ArmaFitResult result;
  result.ok = !w.empty();
  if (!result.ok) result.error = "empty series";
  result.coeffs.intercept = stats::mean(w);
  result.residual_variance = stats::variance(w);
  result.rows = w.size();
  return result;
}

// â_t = x_t − Σ_{i=1..m} φ_i·x_{t−i} for t in [m, n), where m = phi.size().
// kRows rows run side by side, two to a lane pair; each row's prediction
// still starts at 0.0 and adds its terms i = 1..m in order, so â is
// bit-identical to the one-row loop.
void long_ar_residuals(std::span<const double> x, std::span<const double> phi,
                       std::vector<double>& a) {
  constexpr std::size_t kPairs = 4;
  constexpr std::size_t kRows = 2 * kPairs;
  const std::size_t n = x.size();
  const std::size_t m = phi.size();
  std::size_t t = m;
  for (; t + kRows <= n; t += kRows) {
    f64x2 pred[kPairs] = {};
    for (std::size_t i = 1; i <= m; ++i) {
      const f64x2 f = splat_f64x2(phi[i - 1]);
      const double* lagged = x.data() + (t - i);
#pragma GCC unroll 8
      for (std::size_t h = 0; h < kPairs; ++h) {
        pred[h] += f * load_f64x2(lagged + 2 * h);
      }
    }
    for (std::size_t h = 0; h < kPairs; ++h) {
      store_f64x2(a.data() + t + 2 * h, load_f64x2(x.data() + t + 2 * h) - pred[h]);
    }
  }
  for (; t < n; ++t) {
    double pred = 0.0;
    for (std::size_t i = 1; i <= m; ++i) pred += phi[i - 1] * x[t - i];
    a[t] = x[t] - pred;
  }
}

// Rows are processed in tiles of this many; the intercept column of a tile
// reads from kOnes.
constexpr std::size_t kTileRows = 256;
constexpr auto kOnes = [] {
  std::array<double, kTileRows> ones{};
  for (double& v : ones) v = 1.0;
  return ones;
}();

// The stage-2 regression, read straight from the series: row r (time
// t = start + r) has regressors [1, w_{t-1..t-p}, â_{t-1..t-q}] and
// response w_t. Nothing is materialised.
struct Stage2Rows {
  std::span<const double> w;
  std::span<const double> a;
  std::size_t p;
  std::size_t q;
  std::size_t start;
  std::size_t rows;

  std::size_t cols() const { return 1 + p + q; }
  // Column c (c < cols() a regressor, c == cols() the response) at rows
  // [r0, r0 + kTileRows): element i is row r0 + i's value.
  const double* column(std::size_t c, std::size_t r0) const {
    const std::size_t t = start + r0;
    if (c == 0) return kOnes.data();
    if (c <= p) return w.data() + (t - c);
    if (c < cols()) return a.data() + (t - (c - p));
    return w.data() + t;
  }
};

// One entry of the normal equations: Σ_r x_r·y_r over the rows whose x_r is
// nonzero, x and y being columns of Stage2Rows.
struct CrossProduct {
  std::size_t x;
  std::size_t y;
};

// Adds rows [r0, r0 + len) to 2N cross products at once, two to a lane
// pair, each in its own lane and in row order. A lane whose x_r is zero
// keeps its accumulator untouched, exactly like the skip in a dense XᵀX
// loop (adding the +0.0 product instead would not be bit-identical:
// 0·inf is NaN). The select, not a branch: delay windows quantised by the
// clock have many zero differences.
template <std::size_t N>
void accumulate_tile(const Stage2Rows& design, const CrossProduct* products,
                     std::size_t r0, std::size_t len, double* sums) {
  const double* xs[2 * N];
  const double* ys[2 * N];
  f64x2 acc[N];
  for (std::size_t i = 0; i < 2 * N; ++i) {
    xs[i] = design.column(products[i].x, r0);
    ys[i] = design.column(products[i].y, r0);
  }
  for (std::size_t h = 0; h < N; ++h) acc[h] = f64x2{sums[2 * h], sums[2 * h + 1]};
  for (std::size_t r = 0; r < len; ++r) {
#pragma GCC unroll 8
    for (std::size_t h = 0; h < N; ++h) {
      const f64x2 x = {xs[2 * h][r], xs[2 * h + 1][r]};
      const f64x2 y = {ys[2 * h][r], ys[2 * h + 1][r]};
      const f64x2 sum = acc[h] + x * y;
      acc[h] = x != 0.0 ? sum : acc[h];
    }
  }
  for (std::size_t h = 0; h < N; ++h) {
    sums[2 * h] = acc[h][0];
    sums[2 * h + 1] = acc[h][1];
  }
}

// XᵀX and Xᵀy of the stage-2 regression, each entry summed in row order.
void accumulate_normal_equations(const Stage2Rows& design, Matrix& xtx,
                                 std::vector<double>& xty) {
  const std::size_t k = design.cols();
  std::vector<CrossProduct> products;
  products.reserve(k * (k + 3) / 2 + 1);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j <= k; ++j) products.push_back({i, j});
  }
  const std::size_t used = products.size();
  // An odd count gets a discarded filler so every lane pair is full.
  if (used % 2 != 0) products.push_back({0, 0});
  std::vector<double> sums(products.size(), 0.0);
  constexpr std::size_t kPairsPerPass = 7;
  for (std::size_t r0 = 0; r0 < design.rows; r0 += kTileRows) {
    const std::size_t len = std::min(kTileRows, design.rows - r0);
    for (std::size_t first = 0; first < products.size();
         first += 2 * kPairsPerPass) {
      const CrossProduct* batch = products.data() + first;
      double* batch_sums = sums.data() + first;
      switch (std::min(kPairsPerPass, (products.size() - first) / 2)) {
        case 1: accumulate_tile<1>(design, batch, r0, len, batch_sums); break;
        case 2: accumulate_tile<2>(design, batch, r0, len, batch_sums); break;
        case 3: accumulate_tile<3>(design, batch, r0, len, batch_sums); break;
        case 4: accumulate_tile<4>(design, batch, r0, len, batch_sums); break;
        case 5: accumulate_tile<5>(design, batch, r0, len, batch_sums); break;
        case 6: accumulate_tile<6>(design, batch, r0, len, batch_sums); break;
        default: accumulate_tile<kPairsPerPass>(design, batch, r0, len, batch_sums); break;
      }
    }
  }
  for (std::size_t e = 0; e < used; ++e) {
    const CrossProduct& cp = products[e];
    if (cp.y == k) {
      xty[cp.x] = sums[e];
    } else {
      xtx.at(cp.x, cp.y) = sums[e];
    }
  }
}

// Σ_r (y_r − x_r·beta)², each fitted value summed over the columns in
// order from 0.0 and the squares added in row order. Two rows share a
// lane pair for the fitted values; the sum of squares stays one chain.
double residual_sum_of_squares(const Stage2Rows& design,
                               std::span<const double> beta) {
  const std::size_t k = design.cols();
  double ss = 0.0;
  std::size_t r = 0;
  for (; r + 2 <= design.rows; r += 2) {
    f64x2 fitted = {};
    for (std::size_t c = 0; c < k; ++c) {
      fitted += load_f64x2(design.column(c, r)) * splat_f64x2(beta[c]);
    }
    const f64x2 e = load_f64x2(design.column(k, r)) - fitted;
    const f64x2 e2 = e * e;
    ss += e2[0];
    ss += e2[1];
  }
  for (; r < design.rows; ++r) {
    double fitted = 0.0;
    for (std::size_t c = 0; c < k; ++c) fitted += design.column(c, r)[0] * beta[c];
    const double e = design.column(k, r)[0] - fitted;
    ss += e * e;
  }
  return ss;
}

}  // namespace

ArmaFitResult fit_arma_hannan_rissanen(std::span<const double> w,
                                       std::size_t p, std::size_t q) {
  if (p == 0 && q == 0) return fit_constant(w);

  ArmaFitResult result;
  const std::size_t n = w.size();

  // Stage 1: long AR for innovation estimates. The long order must dominate
  // both p and q but stay small relative to n.
  const std::size_t want_m = std::max<std::size_t>(20, p + q + 10);
  result.error = "series too short for long-AR stage";
  if (n < 4 * (p + q + 1) || n / 4 == 0) return result;
  const std::size_t m = std::min(want_m, n / 4);
  if (m == 0 || n <= m + q + p + 2) return result;

  const double mu = stats::mean(w);
  std::vector<double> x(w.begin(), w.end());
  for (auto& v : x) v -= mu;

  const ArFit long_ar = fit_ar_yule_walker(x, m);

  std::vector<double> a(n, 0.0);
  long_ar_residuals(x, long_ar.phi, a);

  // Stage 2: OLS of w_t on [1, w_{t-1..t-p}, â_{t-1..t-q}] for t where every
  // regressor is defined: t ≥ m + q (residuals) and t ≥ p (lags; m ≥ p here
  // only if m ≥ p — enforce with start).
  const std::size_t start = std::max(m + q, p);
  result.error = "too few stage-2 regression rows";
  if (n <= start) return result;
  const std::size_t rows = n - start;
  const std::size_t k = 1 + p + q;
  if (rows < k + 2) return result;

  const Stage2Rows design{w, a, p, q, start, rows};
  Matrix xtx(k, k);
  std::vector<double> xty(k, 0.0);
  accumulate_normal_equations(design, xtx, xty);

  std::vector<double> beta;
  result.error = "singular least-squares system";
  if (!solve_normal_equations(xtx, xty, beta)) return result;

  result.coeffs.intercept = beta[0];
  result.coeffs.ar.assign(beta.begin() + 1, beta.begin() + 1 + p);
  result.coeffs.ma.assign(beta.begin() + 1 + p, beta.end());
  result.error = "non-finite coefficients";
  for (double b : beta) {
    if (!std::isfinite(b)) return result;
  }

  result.residual_variance =
      residual_sum_of_squares(design, beta) / static_cast<double>(rows);
  result.rows = rows;
  result.ok = true;
  result.error = nullptr;
  return result;
}

ArmaFitResult fit_arima(std::span<const double> z, const ArimaOrder& order) {
  if (z.size() <= order.d) {
    ArmaFitResult result;
    result.error = "series shorter than differencing order";
    return result;
  }
  const std::vector<double> w = difference(z, order.d);
  return fit_arma_hannan_rissanen(w, order.p, order.q);
}

}  // namespace fdqos::forecast
