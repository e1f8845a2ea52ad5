#include "checks.hpp"

#include <cstdio>

#include "exp/chaos.hpp"
#include "record.hpp"
#include "wan/tracestore.hpp"

namespace perfbench {
namespace {

std::string str(std::uint64_t v) { return std::to_string(v); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::vector<std::string> check_paper(
    const std::vector<const fdqos::exp::QosReport*>& reports,
    const std::vector<std::string>& fingerprints,
    const std::vector<std::uint64_t>& pending, std::uint64_t seed) {
  std::vector<std::string> out;
  std::uint64_t pending_total = 0;
  for (std::size_t run = 0; run < pending.size(); ++run) {
    pending_total += pending[run];
    if (pending[run] > 1) {
      out.push_back("paper: run " + str(run) + " ends with " +
                    str(pending[run]) + " crashes pending");
    }
  }
  for (const fdqos::exp::QosReport* report : reports) {
    for (const auto& r : report->results) {
      const fdqos::fd::QosMetrics& m = r.metrics;
      if (m.crashes_observed !=
          m.detections + m.missed_detections + pending_total) {
        out.push_back("paper: " + r.name + ": crashes=" +
                      str(m.crashes_observed) + " != detections=" +
                      str(m.detections) + " + missed=" +
                      str(m.missed_detections) + " + pending=" +
                      str(pending_total));
      }
    }
    for (const auto& v : fdqos::exp::qos_invariant_violations(*report)) {
      if (v.invariant == "crash-consistency" &&
          v.detail.find("[resolved, resolved+1]") != std::string::npos) {
        continue;  // replaced by the exact per-run check above
      }
      out.push_back("paper: invariant " + v.invariant + ": " + v.detail);
    }
  }
  if (fingerprints.empty()) {
    out.push_back("paper: no report fingerprint");
    return out;
  }
  for (std::size_t i = 1; i < fingerprints.size(); ++i) {
    if (fingerprints[i] != fingerprints[0]) {
      out.push_back("paper: report " + str(i) + " differs from report 0");
    }
  }
  if (seed == 42 && fnv1a(fingerprints[0]) != kPaperSeed42Fingerprint) {
    out.push_back("paper: seed-42 fingerprint hash " +
                  hex(fnv1a(fingerprints[0])) + ", pinned " +
                  hex(kPaperSeed42Fingerprint));
  }
  return out;
}

std::vector<std::string> check_serve(const ServeFacts& f) {
  std::vector<std::string> out;
  if (f.drops_decode != 0) {
    out.push_back("serve: " + str(f.drops_decode) + " decode drops");
  }
  if (f.drops_capacity != 0) {
    out.push_back("serve: " + str(f.drops_capacity) + " capacity drops");
  }
  if (f.admitted != f.endpoints) {
    out.push_back("serve: admitted " + str(f.admitted) +
                  " endpoints, expected " + str(f.endpoints));
  }
  if (f.ingested > f.offered) {
    out.push_back("serve: ingested " + str(f.ingested) + " > offered " +
                  str(f.offered));
  }
  if (f.datagrams_received > f.datagrams_sent) {
    out.push_back("serve: received " + str(f.datagrams_received) +
                  " > sent " + str(f.datagrams_sent) + " datagrams");
  }
  if (!f.capture) {
    if (f.captured != 0 || !f.segments.empty()) {
      out.push_back("serve: capture off but " + str(f.captured) +
                    " samples in " + str(f.segments.size()) + " segments");
    }
    return out;
  }
  if (f.captured != f.ingested) {
    out.push_back("serve: captured " + str(f.captured) + " != ingested " +
                  str(f.ingested));
  }
  std::uint64_t reloaded = 0;
  for (const std::string& path : f.segments) {
    const fdqos::wan::TraceLoadResult loaded = fdqos::wan::load_trace(path);
    if (!loaded.ok()) {
      out.push_back("serve: segment " + path + " does not reload: " +
                    loaded.error);
      continue;
    }
    reloaded += loaded.trace->size();
  }
  if (reloaded != f.captured) {
    out.push_back("serve: segments reload " + str(reloaded) +
                  " samples, captured " + str(f.captured));
  }
  return out;
}

}  // namespace perfbench
