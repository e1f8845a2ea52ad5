#include "exp/workload.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/assert.hpp"
#include "exec/thread_pool.hpp"

namespace fdqos::exp {

void run_workload(Workload& workload) {
  workload.prepare();
  const std::size_t units = workload.unit_count();
  FDQOS_REQUIRE(units > 0);
  // The clamp every engine used before the harness existed: never spawn
  // more workers than units, 0 means the hardware default.
  const std::size_t jobs =
      std::min(workload.requested_jobs() == 0 ? exec::default_jobs()
                                              : workload.requested_jobs(),
               units);
  exec::ThreadPool pool(jobs);
  pool.parallel_for(units,
                    [&workload](std::size_t unit) { workload.run_unit(unit); });
  workload.reduce();
}

namespace {

// An ordered map keeps workload_names() deterministic without a sort.
std::map<std::string, WorkloadFactory>& registry() {
  static std::map<std::string, WorkloadFactory> instance;
  return instance;
}

std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

void register_workload(const std::string& name, WorkloadFactory factory) {
  FDQOS_REQUIRE(!name.empty());
  FDQOS_REQUIRE(factory != nullptr);
  std::lock_guard<std::mutex> lock(registry_mu());
  registry()[name] = std::move(factory);
}

std::vector<std::string> workload_names() {
  std::lock_guard<std::mutex> lock(registry_mu());
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const QosExperimentConfig& config) {
  WorkloadFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mu());
    const auto it = registry().find(name);
    if (it == registry().end()) return nullptr;
    factory = it->second;
  }
  return factory(config);
}

}  // namespace fdqos::exp
