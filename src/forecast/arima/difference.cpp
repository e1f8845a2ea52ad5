#include "forecast/arima/difference.hpp"

#include "common/assert.hpp"

namespace fdqos::forecast {

std::vector<double> difference(std::span<const double> series, std::size_t d) {
  FDQOS_REQUIRE(series.size() >= d);
  if (d == 0) return {series.begin(), series.end()};
  // Each round maps v to v'[i] = v[i+1] − v[i], one element shorter; the
  // rounds after the first run in place, front to back.
  std::size_t len = series.size() - 1;
  std::vector<double> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = series[i + 1] - series[i];
  for (std::size_t round = 1; round < d; ++round) {
    --len;
    for (std::size_t i = 0; i < len; ++i) out[i] = out[i + 1] - out[i];
  }
  out.resize(len);
  return out;
}

DifferenceState::DifferenceState(std::size_t d) : last_(d + 1, 0.0) {}

void DifferenceState::reset() {
  for (auto& v : last_) v = 0.0;
  n_ = 0;
}

}  // namespace fdqos::forecast
