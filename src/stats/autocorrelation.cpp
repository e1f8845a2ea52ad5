#include "stats/autocorrelation.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/f64x2.hpp"

namespace fdqos::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (double x : xs) ss += (x - m) * (x - m);
  return ss / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double autocovariance(std::span<const double> xs, std::size_t lag) {
  FDQOS_REQUIRE(lag < xs.size());
  const double m = mean(xs);
  double sum = 0.0;
  for (std::size_t t = lag; t < xs.size(); ++t) {
    sum += (xs[t] - m) * (xs[t - lag] - m);
  }
  return sum / static_cast<double>(xs.size());
}

double autocorrelation(std::span<const double> xs, std::size_t lag) {
  const double g0 = autocovariance(xs, 0);
  if (g0 == 0.0) return lag == 0 ? 1.0 : 0.0;
  return autocovariance(xs, lag) / g0;
}

namespace {

// Sums Σ_{t=k}^{n-1} c[t]·c[t-k] into sums[j] for the 2V lags k = k0 + j,
// side by side: each lag has its own accumulator (a lane of acc[j / 2])
// and adds its terms in ascending t, exactly as a loop over that lag alone
// would. Blocking across lags, never across t, gives 2V independent add
// chains without reassociating any of them. Lags >= n sum nothing.
template <std::size_t V>
void lag_block(const double* c, std::size_t n, std::size_t k0, double* sums) {
  constexpr std::size_t kLags = 2 * V;
  // Lag k0+j starts at t = k0+j. Each lag runs alone up to the block's
  // shared start, where its largest lag begins.
  const std::size_t start = std::min(k0 + kLags - 1, n);
  double head[kLags];
  for (std::size_t j = 0; j < kLags; ++j) {
    double s = 0.0;
    for (std::size_t t = k0 + j; t < start; ++t) s += c[t] * c[t - k0 - j];
    head[j] = s;
  }
  // acc[h] holds lags k0+2h+1 (lane 0) and k0+2h (lane 1), so one
  // unaligned load at c[t-k0-2h-1] feeds both.
  f64x2 acc[V];
  for (std::size_t h = 0; h < V; ++h) acc[h] = f64x2{head[2 * h + 1], head[2 * h]};
  for (std::size_t t = start; t < n; ++t) {
    const f64x2 ct = splat_f64x2(c[t]);
    const double* lagged = c + (t - k0);
#pragma GCC unroll 16
    for (std::size_t h = 0; h < V; ++h) {
      acc[h] += ct * load_f64x2(lagged - 2 * h - 1);
    }
  }
  for (std::size_t h = 0; h < V; ++h) {
    sums[2 * h] = acc[h][1];
    sums[2 * h + 1] = acc[h][0];
  }
}

// lag_block over lags [k0, k0 + count), count <= 2 * kMaxLanePairs. An odd
// count computes one extra lag into a scratch slot.
constexpr std::size_t kMaxLanePairs = 8;

void lag_tail(const double* c, std::size_t n, std::size_t k0,
              std::size_t count, double* sums) {
  double block[2 * kMaxLanePairs];
  switch ((count + 1) / 2) {
    case 1: lag_block<1>(c, n, k0, block); break;
    case 2: lag_block<2>(c, n, k0, block); break;
    case 3: lag_block<3>(c, n, k0, block); break;
    case 4: lag_block<4>(c, n, k0, block); break;
    case 5: lag_block<5>(c, n, k0, block); break;
    case 6: lag_block<6>(c, n, k0, block); break;
    case 7: lag_block<7>(c, n, k0, block); break;
    case 8: lag_block<8>(c, n, k0, block); break;
    default: return;
  }
  std::copy(block, block + count, sums + k0);
}

}  // namespace

std::vector<double> acf(std::span<const double> xs, std::size_t max_lag) {
  FDQOS_REQUIRE(max_lag < xs.size());
  const std::size_t n = xs.size();
  const double m = mean(xs);
  std::vector<double> c(n);
  for (std::size_t t = 0; t < n; ++t) c[t] = xs[t] - m;

  // out[k] = Σ_{t=k}^{n-1} c[t]·c[t-k] for every lag, lag 0 included.
  std::vector<double> out(max_lag + 1);
  constexpr std::size_t kBlock = 2 * kMaxLanePairs;
  for (std::size_t k0 = 0; k0 <= max_lag; k0 += kBlock) {
    lag_tail(c.data(), n, k0, std::min(kBlock, max_lag + 1 - k0), out.data());
  }

  const double g0 = out[0] / static_cast<double>(n);
  out[0] = 1.0;
  for (std::size_t k = 1; k <= max_lag; ++k) {
    out[k] = g0 == 0.0 ? 0.0 : out[k] / static_cast<double>(n) / g0;
  }
  return out;
}

}  // namespace fdqos::stats
