// bench_detector_bank — cost of the batched DetectorBank engine as the
// suite widens.
//
// For each suite width W (default 30, 300, 3000 — the paper suite and two
// synthetic replications of it, keeping 5 distinct predictors at every
// width) the QoS experiment runs once on the bank. The harness asserts the
// bank's shared-predictor evaluation cuts predictor observe() calls to at
// most a third of the lane updates (one per lane per heartbeat, what
// unshared predictors would cost), and writes BENCH_detector_bank.json:
//
//   [{"bench": "detector_bank", "commit": "c9d3785", "hw_jobs": 4,
//     "width": 30, "runs": 2, "cycles": 400, "bank_wall_s": ...,
//     "bank_predictor_updates": ..., "bank_lane_updates": ...,
//     "update_reduction": ..., "bank_coalesced_timers": ...,
//     "bank_timer_events": ...}, ...]
//
// `commit` is `git describe --always --dirty` of the working directory
// ("unknown" outside a checkout); `hw_jobs` the hardware threads.
//
// Scale knobs (reduced sweeps for CI):
//   bench_detector_bank [--runs N] [--cycles N] [--widths W1,W2,...]
//                       [--jobs N] [--seed S] [--out FILE]
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "exec/thread_pool.hpp"
#include "exp/qos_experiment.hpp"
#include "fd/suite.hpp"
#include "git_describe.hpp"

using namespace fdqos;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

// W lanes built from ceil(W/30) copies of the paper suite. Copies keep the
// canonical predictor_key (so the bank still shares 5 predictor groups at
// every width) but get a "#r" name suffix — names must be unique.
std::vector<fd::FdSpec> replicated_suite(std::size_t width) {
  std::vector<fd::FdSpec> suite;
  suite.reserve(width);
  std::size_t replica = 0;
  while (suite.size() < width) {
    for (auto& spec : fd::make_paper_suite()) {
      if (suite.size() == width) break;
      if (replica > 0) spec.name += "#" + std::to_string(replica);
      suite.push_back(std::move(spec));
    }
    ++replica;
  }
  return suite;
}

std::vector<std::size_t> parse_widths(const std::string& csv) {
  std::vector<std::size_t> widths;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) widths.push_back(std::stoul(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return widths;
}

struct Entry {
  std::size_t width;
  double wall_s;
  fd::DetectorBank::Counters bank;
};

// Lane updates per predictor update: 1 when nothing is shared, 6 on the
// paper suite (30 lanes over 5 predictor groups).
double update_reduction(const fd::DetectorBank::Counters& bank) {
  return bank.predictor_updates > 0
             ? static_cast<double>(bank.lane_updates) /
                   static_cast<double>(bank.predictor_updates)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const auto runs = static_cast<std::size_t>(args.get_int("--runs", 2));
  const auto cycles = args.get_int("--cycles", 400);
  const auto jobs = static_cast<std::size_t>(args.get_int("--jobs", 1));
  const auto seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  const std::vector<std::size_t> widths =
      parse_widths(args.get_string("--widths", "30,300,3000"));
  const std::string out_path =
      args.get_string("--out", "BENCH_detector_bank.json");

  std::vector<Entry> entries;
  bool ok = true;
  for (const std::size_t width : widths) {
    exp::QosExperimentConfig config;
    config.runs = runs;
    config.num_cycles = cycles;
    config.seed = seed;
    config.jobs = jobs;
    config.mttc = Duration::seconds(90);
    config.ttr = Duration::seconds(20);
    config.include_paper_suite = false;
    config.extra_specs = replicated_suite(width);

    Entry entry{};
    entry.width = width;
    exp::QosReport report;
    entry.wall_s =
        wall_seconds([&] { report = exp::run_qos_experiment(config); });
    entry.bank = report.bank;

    const double reduction = update_reduction(entry.bank);
    std::fprintf(stderr,
                 "[bench_detector_bank] width=%zu bank=%.3fs predictor "
                 "updates %llu for %llu lane updates (%.1fx fewer)\n",
                 width, entry.wall_s,
                 static_cast<unsigned long long>(entry.bank.predictor_updates),
                 static_cast<unsigned long long>(entry.bank.lane_updates),
                 reduction);
    if (reduction < 3.0) {
      std::fprintf(stderr,
                   "[bench_detector_bank] FAIL: width %zu predictor-update "
                   "reduction %.2fx < 3x\n",
                   width, reduction);
      ok = false;
    }
    entries.push_back(entry);
  }

  const std::string commit = tools::current_commit();
  const std::size_t hw_jobs = exec::hardware_jobs();
  std::string json = "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char line[448];
    std::snprintf(
        line, sizeof line,
        "  {\"bench\": \"detector_bank\", \"commit\": \"%s\", "
        "\"hw_jobs\": %zu, \"width\": %zu, \"runs\": %zu, "
        "\"cycles\": %lld, \"bank_wall_s\": %.3f, "
        "\"bank_predictor_updates\": %llu, \"bank_lane_updates\": %llu, "
        "\"update_reduction\": %.2f, \"bank_coalesced_timers\": %llu, "
        "\"bank_timer_events\": %llu}%s\n",
        commit.c_str(), hw_jobs, e.width, runs, static_cast<long long>(cycles),
        e.wall_s, static_cast<unsigned long long>(e.bank.predictor_updates),
        static_cast<unsigned long long>(e.bank.lane_updates),
        update_reduction(e.bank),
        static_cast<unsigned long long>(e.bank.coalesced_timers),
        static_cast<unsigned long long>(e.bank.timer_events),
        i + 1 < entries.size() ? "," : "");
    json += line;
  }
  json += "]\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench_detector_bank] cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::fprintf(stderr, "[bench_detector_bank] wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
