// Levinson–Durbin recursion: solves the Yule–Walker equations for AR(p)
// coefficients from the autocorrelation sequence in O(p²).
//
// Used directly for pure-AR fits and as step 1 (long-AR residual
// estimation) of the Hannan–Rissanen ARMA algorithm.
#pragma once

#include <span>
#include <vector>

namespace fdqos::forecast {

struct ArFit {
  std::vector<double> phi;      // AR coefficients phi_1..phi_p
  double noise_variance = 0.0;  // innovation variance estimate (relative to
                                // the series variance when rho is an ACF)
  std::vector<double> reflection;  // partial autocorrelations kappa_1..kappa_p
};

// `rho` must contain autocorrelations rho_0..rho_p with rho_0 = 1 (or
// autocovariances; the recursion is scale-invariant for phi).
// Returns an empty phi when p = 0.
ArFit levinson_durbin(std::span<const double> rho, std::size_t p);

// Convenience: fit AR(p) to a series via its sample ACF.
ArFit fit_ar_yule_walker(std::span<const double> series, std::size_t p);

// Schur–Cohn step-down test: true iff every root of
// 1 − c_1·z − … − c_n·z^n lies strictly outside the unit circle, i.e. an
// AR recursion with coefficients c is stationary. Runs the Levinson
// recursion backwards (coefficients → reflection coefficients) and
// requires every |k_m| < 1. True for n = 0; false on NaN.
bool is_stationary(std::span<const double> c);

}  // namespace fdqos::forecast
