// §5.3 — runtime overhead of the timeout-calculation methods.
//
// The paper argues all methods are O(1) per update with different constants,
// and crowns LAST+SM_JAC the most effective once implementation cost is
// considered. This google-benchmark binary measures the per-heartbeat cost
// (margin update + predictor update + forecast) of every combination.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "exp/accuracy_experiment.hpp"
#include "fd/suite.hpp"
#include "forecast/arima/arima_predictor.hpp"
#include "forecast/arima/hannan_rissanen.hpp"
#include "obs/http_exporter.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stats/quantiles.hpp"
#include "stats/tdigest.hpp"

namespace {

using namespace fdqos;

std::vector<double> delay_stream(std::size_t n) {
  Rng rng(42);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(192.0 + rng.lognormal(1.74, 0.64));
  }
  return out;
}

void BM_PredictorUpdateAndForecast(benchmark::State& state,
                                   const std::string& label) {
  const auto stream = delay_stream(1 << 14);
  auto predictor = fd::make_paper_predictor(label)();
  std::size_t i = 0;
  for (auto _ : state) {
    predictor->observe(stream[i++ & (stream.size() - 1)]);
    benchmark::DoNotOptimize(predictor->predict());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MarginUpdate(benchmark::State& state, const std::string& label) {
  const auto stream = delay_stream(1 << 14);
  auto margin = fd::make_paper_margin(label)();
  std::size_t i = 0;
  for (auto _ : state) {
    const double obs = stream[i++ & (stream.size() - 1)];
    margin->observe(obs, 200.0);
    benchmark::DoNotOptimize(margin->margin());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_FullTimeoutCalculation(benchmark::State& state,
                               const std::string& pred_label,
                               const std::string& margin_label) {
  const auto stream = delay_stream(1 << 14);
  auto predictor = fd::make_paper_predictor(pred_label)();
  auto margin = fd::make_paper_margin(margin_label)();
  std::size_t i = 0;
  for (auto _ : state) {
    const double obs = stream[i++ & (stream.size() - 1)];
    margin->observe(obs, predictor->predict());
    predictor->observe(obs);
    benchmark::DoNotOptimize(predictor->predict() + margin->margin());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Substrate envelope: raw event throughput of the discrete-event core and
// the cost of one full detector heartbeat cycle (arrival + freshness
// bookkeeping). Shows the 13 × 10 000 s experiment fitting in ~1 s of CPU.
// One ARIMA(2,1,1) refit at the predictor's full window: fit_arima on
// 8192 Italy→Japan delays, then the candidate's one-step replay over the
// same window (what ArimaPredictor runs every N_Arima heartbeats).
void BM_ArimaRefit(benchmark::State& state) {
  constexpr std::size_t kWindow = 8192;
  exp::AccuracyExperimentConfig config;
  config.n_oneway = kWindow * 2;
  std::vector<double> window = exp::generate_delay_series(config);
  window.resize(kWindow);
  const forecast::ArimaOrder order{2, 1, 1};
  for (auto _ : state) {
    const forecast::ArmaFitResult fit = forecast::fit_arima(window, order);
    if (!fit.ok) {
      state.SkipWithError("fit failed");
      break;
    }
    benchmark::DoNotOptimize(forecast::replay_msqerr(
        forecast::ArimaModel(order, fit.coeffs), window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      simulator.schedule_after(Duration::micros(i), [&fired] { ++fired; });
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void BM_SimulatorTimerChurn(benchmark::State& state) {
  // The detector pattern: schedule + cancel (every heartbeat re-arms).
  sim::Simulator simulator;
  for (auto _ : state) {
    sim::EventHandle handle =
        simulator.schedule_after(Duration::seconds(3600), [] {});
    handle.cancel();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SimulatorReschedule(benchmark::State& state) {
  // The same re-arm done in place: one armed timer among 64 pending events
  // moves to a new deadline on every iteration (one heap sift).
  sim::Simulator simulator;
  for (int i = 0; i < 64; ++i) {
    simulator.schedule_after(Duration::seconds(1800 + i), [] {});
  }
  sim::EventHandle handle =
      simulator.schedule_after(Duration::seconds(3600), [] {});
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.reschedule(
        handle, TimePoint::origin() + Duration::seconds(1790 + (i++ & 127))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Instrumentation cost envelope. obs/span_disabled is what every hot path
// pays when observability is off (the acceptance bar: not measurable next
// to a predictor update); the enabled variants show the opt-in cost.
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::ObsSpan span("bench_disabled");
    benchmark::DoNotOptimize(span.active());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ObsCounterInc(benchmark::State& state) {
  obs::set_enabled(true);
  auto& counter = obs::Registry::global().counter(
      "fdqos_bench_obs_counter_total", "microbench scratch counter");
  for (auto _ : state) {
    if (obs::enabled()) counter.inc();
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::set_enabled(true);
  auto& hist = obs::Registry::global().histogram(
      "fdqos_bench_obs_span_duration_us", "microbench scratch histogram");
  for (auto _ : state) {
    obs::ObsSpan span("bench_enabled", &hist);
    benchmark::DoNotOptimize(span.active());
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Streaming sketch update cost: what one Histogram::observe() pays for its
// three P² markers, and what the opt-in SampleSet streaming backend pays
// per sample. Both must stay O(1) and cheap next to a predictor update.
void BM_SketchP2Add(benchmark::State& state) {
  const auto stream = delay_stream(1 << 14);
  stats::P2Quantile p99(0.99);
  std::size_t i = 0;
  for (auto _ : state) {
    p99.add(stream[i++ & (stream.size() - 1)]);
  }
  benchmark::DoNotOptimize(p99.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SketchTDigestAdd(benchmark::State& state) {
  const auto stream = delay_stream(1 << 14);
  stats::TDigest digest(100.0);
  std::size_t i = 0;
  for (auto _ : state) {
    digest.add(stream[i++ & (stream.size() - 1)]);
  }
  benchmark::DoNotOptimize(digest.quantile(0.99));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ObsHistObserveEnabled(benchmark::State& state) {
  obs::set_enabled(true);
  auto& hist = obs::Registry::global().histogram(
      "fdqos_bench_obs_hist_observe_us", "microbench scratch histogram");
  const auto stream = delay_stream(1 << 14);
  std::size_t i = 0;
  for (auto _ : state) {
    if (obs::enabled()) hist.observe(stream[i++ & (stream.size() - 1)]);
  }
  obs::set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// One blocking GET against the exporter's loopback port; the exporter
// always answers Connection: close, so read-to-EOF is the full response.
std::string blocking_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// Scrape cost: rendering the exposition text (what the exporter thread
// does per request, holding only per-instrument locks) and a full HTTP
// round trip against the poll loop. Neither runs on the experiment's hot
// path, but both bound how hard a scraper can hammer a live run.
void BM_ExporterRenderPrometheus(benchmark::State& state) {
  obs::Registry reg;
  for (int f = 0; f < 16; ++f) {
    auto& h = reg.histogram("fdqos_bench_render_us_" + std::to_string(f),
                            "render scratch",
                            {{"suite", "paper"}, {"run", "bench"}});
    for (int i = 0; i < 256; ++i) h.observe(static_cast<double>(i));
    reg.counter("fdqos_bench_render_total_" + std::to_string(f), "scratch")
        .inc(static_cast<std::uint64_t>(f));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = reg.to_prometheus();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["exposition_bytes"] = static_cast<double>(bytes);
}

void BM_ExporterHttpScrape(benchmark::State& state) {
  obs::Registry reg;
  auto& h = reg.histogram("fdqos_bench_scrape_us", "scrape scratch");
  for (int i = 0; i < 256; ++i) h.observe(static_cast<double>(i));
  obs::HttpExporter::Options opts;
  opts.registry = &reg;
  obs::HttpExporter exporter(std::move(opts));
  if (!exporter.start()) {
    state.SkipWithError("exporter failed to start");
    return;
  }
  for (auto _ : state) {
    const std::string body = blocking_get(exporter.port(), "/metrics");
    if (body.find("fdqos_bench_scrape_us_count") == std::string::npos) {
      state.SkipWithError("incomplete scrape");
      break;
    }
    benchmark::DoNotOptimize(body.data());
  }
  exporter.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& pred : fdqos::fd::paper_predictor_labels()) {
    benchmark::RegisterBenchmark(("predictor/" + pred).c_str(),
                                 BM_PredictorUpdateAndForecast, pred);
  }
  for (const auto& margin : fdqos::fd::paper_margin_labels()) {
    benchmark::RegisterBenchmark(("margin/" + margin).c_str(), BM_MarginUpdate,
                                 margin);
  }
  // The paper's §5.3 headline comparison plus the extremes.
  benchmark::RegisterBenchmark("timeout/Last+JAC_med", BM_FullTimeoutCalculation,
                               std::string("Last"), std::string("JAC_med"));
  benchmark::RegisterBenchmark("timeout/Arima+CI_med", BM_FullTimeoutCalculation,
                               std::string("Arima"), std::string("CI_med"));
  benchmark::RegisterBenchmark("timeout/Mean+CI_med", BM_FullTimeoutCalculation,
                               std::string("Mean"), std::string("CI_med"));
  benchmark::RegisterBenchmark("arima/refit_8192", BM_ArimaRefit)
      ->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("simulator/event_throughput",
                               BM_SimulatorEventThroughput);
  benchmark::RegisterBenchmark("simulator/timer_churn", BM_SimulatorTimerChurn);
  benchmark::RegisterBenchmark("simulator/reschedule", BM_SimulatorReschedule);
  benchmark::RegisterBenchmark("obs/span_disabled", BM_ObsSpanDisabled);
  benchmark::RegisterBenchmark("obs/counter_inc", BM_ObsCounterInc);
  benchmark::RegisterBenchmark("obs/span_enabled", BM_ObsSpanEnabled);
  benchmark::RegisterBenchmark("sketch/p2_add", BM_SketchP2Add);
  benchmark::RegisterBenchmark("sketch/tdigest_add", BM_SketchTDigestAdd);
  benchmark::RegisterBenchmark("obs/hist_observe_enabled",
                               BM_ObsHistObserveEnabled);
  benchmark::RegisterBenchmark("exporter/render_prometheus",
                               BM_ExporterRenderPrometheus);
  benchmark::RegisterBenchmark("exporter/http_scrape", BM_ExporterHttpScrape);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
