// Extension — φ-accrual vs the paper's predictor+margin family.
//
// Runs φ-accrual detectors at several thresholds next to representative
// paper configurations, all behind one MultiPlexer on the same link and
// crash schedule. The accrual family replaces the (predictor, margin) grid
// with a single threshold knob; this bench shows where its Φ sweep lands
// on the paper's speed/accuracy plane.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fd/freshness_detector.hpp"
#include "fd/phi_accrual.hpp"
#include "fd/qos_tracker.hpp"
#include "net/sim_transport.hpp"
#include "runtime/heartbeater.hpp"
#include "runtime/multiplexer.hpp"
#include "runtime/process_node.hpp"
#include "runtime/sim_crash.hpp"
#include "stats/table_writer.hpp"
#include "wan/italy_japan.hpp"

using namespace fdqos;

int main() {
  const auto cycles =
      static_cast<std::int64_t>(bench::env_u64("FDQOS_CYCLES", 10000, 1));
  const std::size_t runs =
      std::min<std::size_t>(bench::env_u64("FDQOS_RUNS", 13, 1), 6);
  const std::uint64_t seed = bench::env_u64("FDQOS_SEED", 42, 0);

  struct Entry {
    std::string name;
    stats::RunningStats td;
    stats::RunningStats tm;
    stats::RunningStats tmr;
  };

  const std::vector<double> thresholds{1.0, 2.0, 3.0, 5.0, 8.0};
  const std::vector<std::pair<const char*, const char*>> paper_picks{
      {"Last", "JAC_med"}, {"Arima", "CI_med"}};

  std::vector<Entry> entries;
  for (double th : thresholds) {
    char name[32];
    std::snprintf(name, sizeof name, "PHI(%g)", th);
    Entry entry;
    entry.name = name;
    entries.push_back(std::move(entry));
  }
  for (const auto& [pred, margin] : paper_picks) {
    Entry entry;
    entry.name = std::string(pred) + "+" + margin;
    entries.push_back(std::move(entry));
  }

  // Each run is a self-contained seeded simulation; fan the runs across
  // the pool and merge tracker stats in run order afterwards, so the table
  // is identical at every FDQOS_JOBS value.
  struct RunStats {
    std::vector<stats::RunningStats> td, tm, tmr;
  };
  const auto per_run = bench::run_sweep(runs, [&](std::size_t run) {
    sim::Simulator simulator;
    Rng rng = Rng(seed).fork(run);
    net::SimTransport transport(simulator, rng.fork("net"));
    net::SimTransport::LinkConfig link;
    link.delay = wan::make_italy_japan_delay();
    link.loss = wan::make_italy_japan_loss();
    transport.set_link(0, 1, std::move(link));

    runtime::ProcessNode monitored(transport, 0);
    auto& crash = monitored.push(std::make_unique<runtime::SimCrashLayer>(
        simulator,
        runtime::SimCrashLayer::Config{Duration::seconds(300),
                                       Duration::seconds(30)},
        rng.fork("crash")));
    runtime::HeartbeaterLayer::Config hb;
    hb.eta = Duration::seconds(1);
    hb.max_cycles = cycles;
    monitored.push(std::make_unique<runtime::HeartbeaterLayer>(simulator, hb));

    runtime::ProcessNode monitor(transport, 1);
    auto& mux = monitor.push(std::make_unique<runtime::MultiPlexerLayer>());

    std::vector<fd::QosTracker> trackers;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      trackers.emplace_back(TimePoint::origin() + Duration::seconds(60));
    }
    auto observer_for = [&trackers](std::size_t i) {
      fd::QosTracker* tracker = &trackers[i];
      return [tracker](TimePoint t, bool s) {
        if (s) {
          tracker->suspect_started(t);
        } else {
          tracker->suspect_ended(t);
        }
      };
    };

    std::vector<std::unique_ptr<runtime::Layer>> detectors;
    std::size_t index = 0;
    for (double th : thresholds) {
      fd::PhiAccrualDetector::Config config;
      config.monitored = 0;
      config.threshold = th;
      auto det = std::make_unique<fd::PhiAccrualDetector>(simulator, config);
      det->set_observer(observer_for(index++));
      monitor.attach_unowned(mux, *det);
      detectors.push_back(std::move(det));
    }
    for (const auto& [pred, margin] : paper_picks) {
      fd::FreshnessDetector::Config config;
      config.eta = Duration::seconds(1);
      config.monitored = 0;
      auto det = std::make_unique<fd::FreshnessDetector>(
          simulator, config, fd::make_paper_predictor(pred)(),
          fd::make_paper_margin(margin)());
      det->set_observer(observer_for(index++));
      monitor.attach_unowned(mux, *det);
      detectors.push_back(std::move(det));
    }

    crash.set_observer([&trackers](TimePoint t, bool crashed) {
      for (auto& tracker : trackers) {
        if (crashed) {
          tracker.process_crashed(t);
        } else {
          tracker.process_restored(t);
        }
      }
    });

    monitored.start();
    monitor.start();
    const TimePoint end = TimePoint::origin() + Duration::seconds(cycles) +
                          Duration::seconds(35);
    simulator.run_until(end);
    RunStats out;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      trackers[i].finalize(end);
      out.td.push_back(trackers[i].td_stats());
      out.tm.push_back(trackers[i].tm_stats());
      out.tmr.push_back(trackers[i].tmr_stats());
    }
    return out;
  });
  for (const RunStats& out : per_run) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      entries[i].td.merge(out.td[i]);
      entries[i].tm.merge(out.tm[i]);
      entries[i].tmr.merge(out.tmr[i]);
    }
  }

  stats::TableWriter table(
      "phi-accrual threshold sweep vs paper configurations");
  table.set_columns({"detector", "T_D mean (ms)", "T_D max (ms)",
                     "T_M mean (ms)", "T_MR mean (ms)"});
  for (const auto& entry : entries) {
    table.add_row({entry.name, stats::format_double(entry.td.mean(), 1),
                   stats::format_double(entry.td.max(), 1),
                   stats::format_double(entry.tm.mean(), 1),
                   stats::format_double(entry.tmr.mean(), 1)});
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(raising the phi threshold walks the same speed/accuracy "
              "frontier the paper spans with its margin families; the "
              "paper's detectors sit on that frontier with an explicit "
              "margin knob instead of a probability)\n");
  return 0;
}
