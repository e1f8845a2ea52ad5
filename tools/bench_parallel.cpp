// bench_parallel — perf-trajectory baseline for the exec:: engine.
//
// Times the two hot parallel paths at jobs = 1 (exact serial path) and
// jobs = N (all cores, or --jobs N), verifies in-process that the parallel
// output is identical to serial, and writes BENCH_parallel.json:
//
//   [{"bench": "qos_fig4", "commit": "c9d3785", "jobs": 1, "hw_jobs": 4,
//     "wall_s": 12.3, "speedup": 1.0}, ...]
//
// speedup is serial wall time / this entry's wall time for the same bench,
// so the jobs = 1 rows carry 1.0 and the jobs = N rows carry the headline
// number. `commit` is `git describe --always --dirty` of the working
// directory ("unknown" outside a checkout); `hw_jobs` the hardware
// threads. Scale knobs (reduced sweeps for CI):
//
//   bench_parallel [--runs N] [--cycles N] [--n N] [--jobs N]
//                  [--out FILE]
//
// Defaults reproduce the paper's Fig-4 configuration (13 runs x 10 000
// cycles x 30 detectors) and the Table-2 grid search on 20 000 delays.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "exec/thread_pool.hpp"
#include "exp/accuracy_experiment.hpp"
#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "forecast/arima/order_selection.hpp"
#include "git_describe.hpp"

using namespace fdqos;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

struct Entry {
  std::string bench;
  std::size_t jobs;
  double wall_s;
  double speedup;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto runs = static_cast<std::size_t>(args.get_int("--runs", 13));
  const auto cycles = args.get_int("--cycles", 10000);
  const auto n_delays = static_cast<std::size_t>(args.get_int("--n", 20000));
  const auto jobs_n = static_cast<std::size_t>(
      args.get_int("--jobs", static_cast<std::int64_t>(exec::hardware_jobs())));
  const std::string out_path = args.get_string("--out", "BENCH_parallel.json");
  const std::size_t hw = exec::hardware_jobs();
  if (jobs_n > hw) {
    // A speedup < 1 at jobs > hw is oversubscription, not a scheduling
    // regression — see docs/parallelism.md ("Reading the baseline").
    std::fprintf(stderr,
                 "[bench_parallel] note: jobs=%zu > %zu hardware thread(s); "
                 "expect speedup <= 1\n",
                 jobs_n, hw);
  }

  std::vector<Entry> entries;

  // --- Fig-4 QoS experiment ---------------------------------------------
  exp::QosExperimentConfig qos;
  qos.runs = runs;
  qos.num_cycles = cycles;
  std::fprintf(stderr, "[bench_parallel] qos_fig4: %s\n",
               exp::qos_config_summary(qos).c_str());

  exp::QosReport serial_report;
  qos.jobs = 1;
  const double qos_serial_s =
      wall_seconds([&] { serial_report = exp::run_qos_experiment(qos); });
  entries.push_back({"qos_fig4", 1, qos_serial_s, 1.0});
  std::fprintf(stderr, "[bench_parallel] qos_fig4 jobs=1: %.2fs\n",
               qos_serial_s);

  exp::QosReport parallel_report;
  qos.jobs = jobs_n;
  const double qos_parallel_s =
      wall_seconds([&] { parallel_report = exp::run_qos_experiment(qos); });
  entries.push_back(
      {"qos_fig4", jobs_n, qos_parallel_s, qos_serial_s / qos_parallel_s});
  std::fprintf(stderr, "[bench_parallel] qos_fig4 jobs=%zu: %.2fs (%.2fx)\n",
               jobs_n, qos_parallel_s, qos_serial_s / qos_parallel_s);

  if (exp::qos_report_fingerprint(serial_report) !=
      exp::qos_report_fingerprint(parallel_report)) {
    std::fprintf(stderr,
                 "[bench_parallel] FAIL: parallel QoS report differs from "
                 "serial\n");
    return 1;
  }

  // --- Table-2 ARIMA order grid search ----------------------------------
  exp::AccuracyExperimentConfig acc;
  acc.n_oneway = n_delays;
  const auto series = exp::generate_delay_series(acc);
  forecast::OrderSelectionConfig selection;  // 4x3x4 default grid

  forecast::OrderSelectionResult serial_sel;
  selection.jobs = 1;
  const double sel_serial_s = wall_seconds(
      [&] { serial_sel = forecast::select_arima_order(series, selection); });
  entries.push_back({"arima_grid", 1, sel_serial_s, 1.0});
  std::fprintf(stderr, "[bench_parallel] arima_grid jobs=1: %.2fs\n",
               sel_serial_s);

  forecast::OrderSelectionResult parallel_sel;
  selection.jobs = jobs_n;
  const double sel_parallel_s = wall_seconds(
      [&] { parallel_sel = forecast::select_arima_order(series, selection); });
  entries.push_back(
      {"arima_grid", jobs_n, sel_parallel_s, sel_serial_s / sel_parallel_s});
  std::fprintf(stderr, "[bench_parallel] arima_grid jobs=%zu: %.2fs (%.2fx)\n",
               jobs_n, sel_parallel_s, sel_serial_s / sel_parallel_s);

  if (!(serial_sel.best == parallel_sel.best) ||
      serial_sel.best_msqerr != parallel_sel.best_msqerr) {
    std::fprintf(stderr,
                 "[bench_parallel] FAIL: parallel grid search picked %s, "
                 "serial picked %s\n",
                 parallel_sel.best.to_string().c_str(),
                 serial_sel.best.to_string().c_str());
    return 1;
  }

  // --- Write the baseline ------------------------------------------------
  const std::string commit = tools::current_commit();
  std::string json = "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  {\"bench\": \"%s\", \"commit\": \"%s\", \"jobs\": %zu, "
                  "\"hw_jobs\": %zu, \"wall_s\": %.3f, \"speedup\": %.2f}%s\n",
                  entries[i].bench.c_str(), commit.c_str(), entries[i].jobs, hw,
                  entries[i].wall_s, entries[i].speedup,
                  i + 1 < entries.size() ? "," : "");
    json += line;
  }
  json += "]\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench_parallel] cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::fprintf(stderr, "[bench_parallel] wrote %s (reports identical)\n",
               out_path.c_str());
  return 0;
}
