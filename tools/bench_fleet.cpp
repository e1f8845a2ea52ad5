// bench_fleet — fleet-scale ingestion throughput of the FleetBank
// bank-of-banks (raw-coordinator mode, no per-endpoint node stacks).
//
// For each endpoint count M (default 100, 1000, 10000) the bench shards M
// monitored endpoints over S FleetBanks (contiguous blocks, one Simulator
// per shard) and drives them with columnar heartbeat batches — one
// ingest_columns() call per shard per cycle, the coordinator's scatter.
// The TOTAL heartbeat budget is held constant across the sweep (cycles =
// beats / M), so wall-clock growth in M isolates the per-endpoint overhead
// of the sharded timer/tick plumbing: sub-linear growth means the
// coalescing works. A deterministic loss pattern (every 23rd
// (endpoint + cycle)) keeps the freshness timers and suspicion paths hot.
//
// Each endpoint runs a 12-lane suite (Last and LPF predictors × 6 paper
// margins) — O(1) predictors, so the measured cost is the fleet engine,
// not ARIMA refits.
//
// Writes BENCH_fleet.json, one row per M stamped with `commit` (`git
// describe --always --dirty` of the working directory) and `hw_jobs`
// (hardware threads):
//   [{"bench": "fleet", "commit": "...", "hw_jobs": 4, "endpoints": 100,
//     "shards": 4, "lanes": 1200, "cycles": 2000, "heartbeats": ...,
//     "wall_s": ..., "hb_per_s": ..., "bytes_per_endpoint": ...,
//     "timer_events": ..., "member_checks": ..., "coalesced_events": ...},
//    ...]
//
// --verify additionally re-runs each M on a single shard and asserts the
// final per-member detector state digest is identical — shard count is
// plumbing, never semantics (the CI fleet job runs this at M = 100).
//
//   bench_fleet [--endpoints M1,M2,...] [--shards S] [--beats N]
//               [--eta-ms N] [--verify] [--out FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/args.hpp"
#include "common/time.hpp"
#include "exec/thread_pool.hpp"
#include "fd/fleet_bank.hpp"
#include "fd/suite.hpp"
#include "git_describe.hpp"
#include "sim/simulator.hpp"

using namespace fdqos;

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) counts.push_back(std::stoul(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return counts;
}

// Cheap 12-lane suite: the two O(1) paper predictors under all six margins.
std::vector<fd::FdSpec> cheap_suite() {
  std::vector<fd::FdSpec> out;
  for (fd::FdSpec& spec : fd::make_paper_suite()) {
    if (spec.predictor_label == "Last" || spec.predictor_label == "LPF") {
      out.push_back(std::move(spec));
    }
  }
  return out;
}

void configure_member(fd::DetectorBank& bank,
                      const std::vector<fd::FdSpec>& suite) {
  std::unordered_map<std::string, std::size_t> group_by_key;
  for (const fd::FdSpec& spec : suite) {
    const auto it = spec.predictor_key.empty()
                        ? group_by_key.end()
                        : group_by_key.find(spec.predictor_key);
    std::size_t group;
    if (it != group_by_key.end()) {
      group = it->second;
    } else {
      group = bank.add_group(spec.make_predictor());
      if (!spec.predictor_key.empty()) {
        group_by_key.emplace(spec.predictor_key, group);
      }
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
}

struct ShardRun {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<fd::FleetBank> fleet;
  std::vector<fd::FleetBank::HeartbeatColumns> batches;  // one per cycle
};

struct SweepResult {
  std::size_t endpoints = 0;
  std::size_t shards = 0;
  std::size_t lanes = 0;
  std::size_t cycles = 0;
  std::uint64_t heartbeats = 0;
  double wall_s = 0.0;
  std::size_t memory_bytes = 0;
  fd::FleetBank::Counters counters;
  std::uint64_t state_digest = 0;
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  return h * 1099511628211ULL;
}

// Order-independent-across-shards digest of every member's observable
// detector state — what --verify compares between shard counts.
std::uint64_t digest_members(const std::vector<ShardRun>& shards) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const ShardRun& shard : shards) {
    for (std::size_t m = 0; m < shard.fleet->members(); ++m) {
      const fd::DetectorBank& bank = shard.fleet->member(m);
      h = fnv_mix(h, static_cast<std::uint64_t>(bank.max_seq()));
      h = fnv_mix(h, bank.observations());
      for (std::size_t lane = 0; lane < bank.width(); ++lane) {
        h = fnv_mix(h, bank.lane_suspecting(lane) ? 2u : 1u);
        h = fnv_mix(h,
                    static_cast<std::uint64_t>(bank.lane_freshness_index(lane)));
      }
    }
  }
  return h;
}

SweepResult run_sweep(std::size_t endpoints, std::size_t shard_count,
                      std::size_t cycles, Duration eta,
                      const std::vector<fd::FdSpec>& suite) {
  SweepResult result;
  result.endpoints = endpoints;
  result.shards = shard_count;
  result.cycles = cycles;

  // Contiguous endpoint blocks, same split the experiment engine uses.
  const std::size_t base = endpoints / shard_count;
  const std::size_t rem = endpoints % shard_count;
  auto shard_begin = [&](std::size_t s) {
    return s * base + (s < rem ? s : rem);
  };

  std::vector<ShardRun> shards;
  shards.reserve(shard_count);  // no reallocation: &shard stays valid below
  const Duration delay = Duration::millis(250);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t lo = shard_begin(s), hi = shard_begin(s + 1);
    ShardRun& shard = shards.emplace_back();
    shard.sim = std::make_unique<sim::Simulator>();
    fd::FleetBank::Config config;
    config.eta = eta;
    config.name = "bench-fleet/" + std::to_string(s);
    config.expected_endpoints = hi - lo;
    shard.fleet = std::make_unique<fd::FleetBank>(*shard.sim, config);
    for (std::size_t e = lo; e < hi; ++e) {
      fd::DetectorBank& member =
          shard.fleet->add_member(static_cast<net::NodeId>(e));
      configure_member(member, suite);
      member.reserve_rows(2);
    }
    // One columnar batch per cycle: every live local endpoint's heartbeat
    // for that cycle, endpoint-ascending (the scatter order). Built ahead
    // of the clock so the timed section is pure engine work.
    shard.batches.resize(cycles);
    for (std::size_t k = 1; k <= cycles; ++k) {
      auto& batch = shard.batches[k - 1];
      for (std::size_t e = lo; e < hi; ++e) {
        if ((e + k) % 23 == 0) continue;  // deterministic loss
        batch.endpoint.push_back(static_cast<std::uint32_t>(e - lo));
        batch.seq.push_back(static_cast<std::int64_t>(k));
      }
      ShardRun* sp = &shard;
      shard.sim->schedule_at(
          TimePoint::origin() + eta * static_cast<std::int64_t>(k) + delay,
          [sp, k] { sp->fleet->ingest_columns(sp->batches[k - 1]); });
    }
  }

  const TimePoint horizon =
      TimePoint::origin() + eta * static_cast<std::int64_t>(cycles + 2);
  result.wall_s = wall_seconds([&] {
    for (ShardRun& shard : shards) {
      shard.fleet->start();
      shard.sim->run_until(horizon);
    }
  });

  for (const ShardRun& shard : shards) {
    result.lanes += shard.fleet->total_lanes();
    result.counters.add(shard.fleet->counters());
    result.memory_bytes += shard.fleet->memory_bytes();
  }
  result.heartbeats = result.counters.heartbeats;
  result.state_digest = digest_members(shards);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::vector<std::size_t> endpoint_counts =
      parse_counts(args.get_string("--endpoints", "100,1000,10000"));
  const auto shard_count = static_cast<std::size_t>(args.get_int("--shards", 4));
  const auto beats = static_cast<std::size_t>(args.get_int("--beats", 200000));
  const Duration eta = Duration::millis(args.get_int("--eta-ms", 1000));
  const bool verify = args.get_flag("--verify");
  const std::string out_path = args.get_string("--out", "BENCH_fleet.json");

  const std::vector<fd::FdSpec> suite = cheap_suite();
  std::vector<SweepResult> results;
  bool ok = true;
  for (const std::size_t endpoints : endpoint_counts) {
    const std::size_t shards =
        shard_count < endpoints ? shard_count : endpoints;
    const std::size_t cycles =
        beats / endpoints > 0 ? beats / endpoints : std::size_t{1};
    SweepResult r = run_sweep(endpoints, shards, cycles, eta, suite);
    std::fprintf(
        stderr,
        "[bench_fleet] M=%zu S=%zu cycles=%zu: %.3fs, %.0f hb/s, "
        "%zu B/endpoint, timers %llu (checks %llu, coalesced %llu)\n",
        r.endpoints, r.shards, r.cycles, r.wall_s,
        static_cast<double>(r.heartbeats) / r.wall_s,
        r.memory_bytes / r.endpoints,
        static_cast<unsigned long long>(r.counters.timer_events),
        static_cast<unsigned long long>(r.counters.member_checks),
        static_cast<unsigned long long>(r.counters.coalesced_events));

    if (verify) {
      const SweepResult solo = run_sweep(endpoints, 1, cycles, eta, suite);
      if (solo.state_digest != r.state_digest ||
          solo.heartbeats != r.heartbeats) {
        std::fprintf(stderr,
                     "[bench_fleet] FAIL: M=%zu shards=%zu diverges from "
                     "shards=1 (digest %llx vs %llx)\n",
                     endpoints, shards,
                     static_cast<unsigned long long>(r.state_digest),
                     static_cast<unsigned long long>(solo.state_digest));
        ok = false;
      } else {
        std::fprintf(stderr,
                     "[bench_fleet] verify M=%zu: shards=%zu == shards=1\n",
                     endpoints, shards);
      }
    }
    results.push_back(r);
  }

  const std::string commit = tools::current_commit();
  std::string json = "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    char line[512];
    std::snprintf(
        line, sizeof line,
        "  {\"bench\": \"fleet\", \"commit\": \"%s\", \"hw_jobs\": %zu, "
        "\"endpoints\": %zu, \"shards\": %zu, "
        "\"lanes\": %zu, \"cycles\": %zu, \"heartbeats\": %llu, "
        "\"wall_s\": %.3f, \"hb_per_s\": %.0f, \"bytes_per_endpoint\": %zu, "
        "\"timer_events\": %llu, \"member_checks\": %llu, "
        "\"coalesced_events\": %llu}%s\n",
        commit.c_str(), exec::hardware_jobs(), r.endpoints, r.shards, r.lanes,
        r.cycles,
        static_cast<unsigned long long>(r.heartbeats), r.wall_s,
        static_cast<double>(r.heartbeats) / r.wall_s,
        r.memory_bytes / r.endpoints,
        static_cast<unsigned long long>(r.counters.timer_events),
        static_cast<unsigned long long>(r.counters.member_checks),
        static_cast<unsigned long long>(r.counters.coalesced_events),
        i + 1 < results.size() ? "," : "");
    json += line;
  }
  json += "]\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench_fleet] cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s", json.c_str());
  std::fprintf(stderr, "[bench_fleet] wrote %s%s\n", out_path.c_str(),
               verify ? (ok ? " (shard invariance verified)" : "") : "");
  return ok ? 0 : 1;
}
