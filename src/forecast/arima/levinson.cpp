#include "forecast/arima/levinson.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "forecast/arima/acf.hpp"

namespace fdqos::forecast {

ArFit levinson_durbin(std::span<const double> rho, std::size_t p) {
  FDQOS_REQUIRE(rho.size() >= p + 1);
  ArFit fit;
  fit.phi.assign(p, 0.0);
  fit.reflection.assign(p, 0.0);
  fit.noise_variance = rho[0];
  if (p == 0) return fit;

  std::vector<double> phi(p, 0.0);
  std::vector<double> prev(p, 0.0);
  double err = rho[0];

  for (std::size_t k = 1; k <= p; ++k) {
    double acc = rho[k];
    for (std::size_t j = 1; j < k; ++j) acc -= prev[j - 1] * rho[k - j];
    // Degenerate (perfectly predictable or constant) series: stop early.
    if (err <= 0.0 || !std::isfinite(err)) {
      for (std::size_t j = k; j <= p; ++j) fit.reflection[j - 1] = 0.0;
      break;
    }
    const double kappa = acc / err;
    fit.reflection[k - 1] = kappa;

    phi[k - 1] = kappa;
    for (std::size_t j = 1; j < k; ++j) {
      phi[j - 1] = prev[j - 1] - kappa * prev[k - j - 1];
    }
    err *= (1.0 - kappa * kappa);
    prev = phi;
  }

  fit.phi = phi;
  fit.noise_variance = err;
  return fit;
}

ArFit fit_ar_yule_walker(std::span<const double> series, std::size_t p) {
  FDQOS_REQUIRE(series.size() > p);
  const std::vector<double> rho = sample_acf(series, p);
  return levinson_durbin(rho, p);
}

bool is_stationary(std::span<const double> c) {
  std::vector<double> a(c.begin(), c.end());
  std::vector<double> lower;
  for (std::size_t m = a.size(); m > 0; --m) {
    // a holds the order-m coefficients; a_m is the m-th reflection
    // coefficient, and the order-(m−1) ones follow from inverting the
    // Levinson update a_i = a'_i − k·a'_{m−i}.
    const double k = a[m - 1];
    if (!(std::fabs(k) < 1.0)) return false;
    const double scale = 1.0 - k * k;
    lower.resize(m - 1);
    for (std::size_t i = 0; i + 1 < m; ++i) {
      lower[i] = (a[i] + k * a[m - 2 - i]) / scale;
    }
    a.swap(lower);
  }
  return true;
}

}  // namespace fdqos::forecast
