// Table 4 — characteristics of the WAN connection: measures the calibrated
// Italy–Japan link model the way the paper characterized the real path.
#include <cstdio>

#include "bench_common.hpp"
#include "exp/report.hpp"
#include "stats/histogram.hpp"
#include "wan/italy_japan.hpp"

int main() {
  using namespace fdqos;
  const std::size_t n =
      static_cast<std::size_t>(bench::env_u64("FDQOS_NONEWAY", 100000, 1)) * 5;
  auto delay = wan::make_italy_japan_delay();
  auto loss = wan::make_italy_japan_loss();
  Rng rng(bench::env_u64("FDQOS_SEED", 42, 0));

  const auto link =
      wan::measure_link(*delay, *loss, n, Duration::seconds(1), rng);
  auto table = exp::link_table(link);
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(measured over %zu messages; paper: mean ~200 ms, sd 7.6 ms, "
              "min 192 ms, max 340 ms, 18 hops, loss < 1%%)\n\n",
              link.messages);

  // Delay histogram for the curious (not in the paper, aids calibration).
  auto fresh = delay->make_fresh();
  Rng rng2(7);
  stats::Histogram hist(190.0, 250.0, 24);
  TimePoint t = TimePoint::origin();
  for (std::size_t i = 0; i < 100000; ++i, t += Duration::seconds(1)) {
    hist.add(fresh->sample(rng2, t).to_millis_double());
  }
  std::printf("One-way delay distribution (ms):\n%s", hist.render().c_str());
  return 0;
}
