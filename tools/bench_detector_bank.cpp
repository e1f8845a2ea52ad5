// bench_detector_bank — overhead A/B of the batched DetectorBank engine
// against the legacy one-FreshnessDetector-per-spec layout.
//
// For each suite width W (default 30, 300, 3000 — the paper suite and two
// synthetic replications of it, keeping 5 distinct predictors at every
// width) the same QoS experiment runs once per engine. The harness verifies
// in-process that both engines render byte-identical reports, asserts the
// bank's shared-predictor evaluation cuts predictor observe() calls by at
// least 3x, and writes BENCH_detector_bank.json:
//
//   [{"bench": "detector_bank", "commit": "c9d3785", "hw_jobs": 4,
//     "width": 30, "runs": 2, "cycles": 400,
//     "legacy_wall_s": ..., "bank_wall_s": ..., "speedup": ...,
//     "legacy_predictor_updates": ..., "bank_predictor_updates": ...,
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
#include "exp/report.hpp"
#include "fd/suite.hpp"

using namespace fdqos;

namespace {

std::string current_commit() {
  std::string commit;
  if (std::FILE* git =
          popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, git) != nullptr) commit = buf;
    pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

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
  double legacy_wall_s;
  double bank_wall_s;
  std::uint64_t legacy_updates;
  std::uint64_t bank_updates;
  std::uint64_t bank_coalesced;
  std::uint64_t bank_timer_events;
};

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
    // The suite is assembled here (not per engine) so both engines see the
    // exact same specs regardless of width.
    config.include_paper_suite = false;
    config.extra_specs = replicated_suite(width);

    Entry entry{};
    entry.width = width;

    config.use_detector_bank = false;
    exp::QosReport legacy_report;
    entry.legacy_wall_s =
        wall_seconds([&] { legacy_report = exp::run_qos_experiment(config); });
    entry.legacy_updates = legacy_report.bank.predictor_updates;

    config.use_detector_bank = true;
    exp::QosReport bank_report;
    entry.bank_wall_s =
        wall_seconds([&] { bank_report = exp::run_qos_experiment(config); });
    entry.bank_updates = bank_report.bank.predictor_updates;
    entry.bank_coalesced = bank_report.bank.coalesced_timers;
    entry.bank_timer_events = bank_report.bank.timer_events;

    if (exp::qos_report_fingerprint(legacy_report) !=
        exp::qos_report_fingerprint(bank_report)) {
      std::fprintf(stderr,
                   "[bench_detector_bank] FAIL: width %zu bank report "
                   "differs from legacy\n",
                   width);
      ok = false;
    }
    const double reduction =
        entry.bank_updates > 0
            ? static_cast<double>(entry.legacy_updates) /
                  static_cast<double>(entry.bank_updates)
            : 0.0;
    std::fprintf(stderr,
                 "[bench_detector_bank] width=%zu legacy=%.3fs bank=%.3fs "
                 "(%.2fx) predictor updates %llu -> %llu (%.1fx fewer)\n",
                 width, entry.legacy_wall_s, entry.bank_wall_s,
                 entry.legacy_wall_s / entry.bank_wall_s,
                 static_cast<unsigned long long>(entry.legacy_updates),
                 static_cast<unsigned long long>(entry.bank_updates),
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

  const std::string commit = current_commit();
  const std::size_t hw_jobs = exec::hardware_jobs();
  std::string json = "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char line[448];
    std::snprintf(
        line, sizeof line,
        "  {\"bench\": \"detector_bank\", \"commit\": \"%s\", "
        "\"hw_jobs\": %zu, \"width\": %zu, \"runs\": %zu, "
        "\"cycles\": %lld, \"legacy_wall_s\": %.3f, \"bank_wall_s\": %.3f, "
        "\"speedup\": %.2f, \"legacy_predictor_updates\": %llu, "
        "\"bank_predictor_updates\": %llu, \"update_reduction\": %.2f, "
        "\"bank_coalesced_timers\": %llu, \"bank_timer_events\": %llu}%s\n",
        commit.c_str(), hw_jobs, e.width, runs, static_cast<long long>(cycles),
        e.legacy_wall_s, e.bank_wall_s, e.legacy_wall_s / e.bank_wall_s,
        static_cast<unsigned long long>(e.legacy_updates),
        static_cast<unsigned long long>(e.bank_updates),
        static_cast<double>(e.legacy_updates) /
            static_cast<double>(e.bank_updates),
        static_cast<unsigned long long>(e.bank_coalesced),
        static_cast<unsigned long long>(e.bank_timer_events),
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
  std::fprintf(stderr, "[bench_detector_bank] wrote %s%s\n", out_path.c_str(),
               ok ? " (reports identical)" : "");
  return ok ? 0 : 1;
}
