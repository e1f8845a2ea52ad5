// Application-level QoS: group-membership view stability vs detector
// configuration (the paper's §2.1 motivation — for membership, accuracy
// beats speed, because every false suspicion of a live member forces a
// view change and possibly a coordinator election).
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "fd/freshness_detector.hpp"
#include "membership/view_manager.hpp"
#include "net/sim_transport.hpp"
#include "runtime/heartbeater.hpp"
#include "runtime/process_node.hpp"
#include "runtime/sim_crash.hpp"
#include "stats/table_writer.hpp"
#include "wan/italy_japan.hpp"

using namespace fdqos;

namespace {

constexpr int kNodes = 4;

struct ChurnResult {
  std::uint64_t views = 0;
  std::uint64_t wrongful_evictions = 0;
  std::uint64_t coordinator_changes = 0;
  stats::RunningStats view_duration_ms;
  stats::RunningStats true_eviction_delay_ms;  // app-level detection time
};

ChurnResult run_membership(const char* pred, const char* margin,
                           Duration horizon, std::uint64_t seed) {
  sim::Simulator simulator;
  Rng rng(seed);
  net::SimTransport transport(simulator, rng.fork("net"));
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      net::SimTransport::LinkConfig link;
      link.delay = wan::make_italy_japan_delay();
      link.loss = wan::make_italy_japan_loss();
      transport.set_link(a, b, std::move(link));
    }
  }

  std::vector<net::NodeId> members;
  for (int i = 0; i < kNodes; ++i) members.push_back(i);

  std::vector<bool> alive(kNodes, true);
  std::vector<TimePoint> crash_time(kNodes);
  ChurnResult result;

  struct NodeState {
    std::unique_ptr<runtime::ProcessNode> process;
    runtime::SimCrashLayer* crash = nullptr;
    std::vector<std::unique_ptr<runtime::HeartbeaterLayer>> heartbeaters;
    std::vector<std::unique_ptr<fd::FreshnessDetector>> detectors;
    std::unique_ptr<membership::ViewManager> views;
  };
  std::vector<NodeState> nodes(kNodes);

  for (int i = 0; i < kNodes; ++i) {
    NodeState& node = nodes[static_cast<std::size_t>(i)];
    node.process = std::make_unique<runtime::ProcessNode>(transport, i);
    node.crash = &node.process->push(std::make_unique<runtime::SimCrashLayer>(
        simulator,
        runtime::SimCrashLayer::Config{Duration::seconds(400),
                                       Duration::seconds(30)},
        rng.fork("crash").fork(static_cast<std::uint64_t>(i))));
    node.crash->set_observer([&, i](TimePoint t, bool crashed) {
      alive[static_cast<std::size_t>(i)] = !crashed;
      if (crashed) crash_time[static_cast<std::size_t>(i)] = t;
    });
    node.views = std::make_unique<membership::ViewManager>(i, members);

    for (int peer = 0; peer < kNodes; ++peer) {
      if (peer == i) continue;
      runtime::HeartbeaterLayer::Config hb;
      hb.eta = Duration::seconds(1);
      hb.self = i;
      hb.monitor = peer;
      auto beater = std::make_unique<runtime::HeartbeaterLayer>(simulator, hb);
      node.process->attach_unowned(*node.crash, *beater);
      node.heartbeaters.push_back(std::move(beater));

      fd::FreshnessDetector::Config config;
      config.eta = Duration::seconds(1);
      config.monitored = peer;
      auto detector = std::make_unique<fd::FreshnessDetector>(
          simulator, config, fd::make_paper_predictor(pred)(),
          fd::make_paper_margin(margin)());
      membership::ViewManager* views = node.views.get();
      detector->set_observer([&, views, peer, i](TimePoint t, bool suspect) {
        if (suspect) {
          if (alive[static_cast<std::size_t>(peer)] &&
              alive[static_cast<std::size_t>(i)]) {
            ++result.wrongful_evictions;
          } else if (!alive[static_cast<std::size_t>(peer)]) {
            result.true_eviction_delay_ms.add(
                (t - crash_time[static_cast<std::size_t>(peer)])
                    .to_millis_double());
          }
          views->peer_suspected(peer, t);
        } else {
          views->peer_trusted(peer, t);
        }
      });
      node.process->attach_unowned(*node.crash, *detector);
      node.detectors.push_back(std::move(detector));
    }
    node.process->start();
  }

  const TimePoint end = TimePoint::origin() + horizon;
  simulator.run_until(end);
  for (auto& node : nodes) {
    node.views->finalize(end);
    result.views += node.views->views_installed();
    result.coordinator_changes += node.views->coordinator_changes();
    result.view_duration_ms.merge(node.views->view_duration_ms());
  }
  return result;
}

}  // namespace

int main() {
  const Duration horizon = Duration::seconds(
      static_cast<std::int64_t>(
          fdqos::bench::env_u64("FDQOS_CYCLES", 10000, 1)) / 2);
  const std::uint64_t seed = fdqos::bench::env_u64("FDQOS_SEED", 42, 0);
  const double hours = horizon.to_seconds_double() / 3600.0;

  stats::TableWriter table("Membership churn vs detector configuration "
                           "(4 nodes, all-to-all monitoring)");
  table.set_columns({"detector", "views/h", "wrongful evictions/h",
                     "coordinator changes/h", "mean view (s)",
                     "true-eviction delay (ms)"});
  const std::pair<const char*, const char*> configs[] = {
      {"Last", "JAC_low"}, {"Last", "JAC_high"}, {"Arima", "CI_low"},
      {"Arima", "CI_high"}, {"Mean", "CI_high"}};
  for (const auto& [pred, margin] : configs) {
    const ChurnResult r = run_membership(pred, margin, horizon, seed);
    char name[64];
    std::snprintf(name, sizeof name, "%s+%s", pred, margin);
    table.add_row(
        {name,
         stats::format_double(static_cast<double>(r.views) / hours, 1),
         stats::format_double(static_cast<double>(r.wrongful_evictions) / hours, 1),
         stats::format_double(static_cast<double>(r.coordinator_changes) / hours, 1),
         stats::format_double(r.view_duration_ms.mean() / 1000.0, 1),
         stats::format_double(r.true_eviction_delay_ms.mean(), 1)});
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(accuracy-first configurations churn less at a small "
              "true-eviction-delay premium — the paper's §2.1 trade-off at "
              "the application layer)\n");
  return 0;
}
