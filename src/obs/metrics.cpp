#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/assert.hpp"

namespace fdqos::obs {
namespace {

// Doubles in expositions: integral values print without exponent or
// trailing zeros ("1000000"), everything else as shortest round-trip-ish
// "%.9g" ("34.5", "0.000123"). Non-finite values use the exposition
// format's canonical spellings.
std::string format_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

// Prometheus text-format escaping. Label values escape exactly `\`, `"`
// and newline (the format defines no other sequences — escaping anything
// more would change the value); HELP text escapes only `\` and newline
// (quotes are legal there).
std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string escape_help(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// JSON string escaping for the JSONL snapshot — a superset of the
// Prometheus rules (control characters must be escaped for valid JSON).
std::string escape_json(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// JSON number: finite doubles render as-is, non-finite become null (JSON
// has no NaN/Inf literals).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return format_double(v);
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

const char* type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string render_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out.push_back(',');
    out += k + "=\"" + escape_label_value(v) + "\"";
  }
  return out;
}

void Gauge::add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

const Histogram::Bounds& Histogram::bucket_bounds() {
  // 1-2-5 per decade over [1, 5e6]: with microsecond observations this
  // spans 1 µs .. 5 s before the overflow bucket.
  static const Bounds kBounds = {
      1,    2,    5,    10,   20,   50,   100,  200,  500,  1000,
      2000, 5000, 1e4,  2e4,  5e4,  1e5,  2e5,  5e5,  1e6,  5e6};
  return kBounds;
}

const Histogram::Bounds& Histogram::seconds_bounds() {
  static const Bounds kBounds = {
      1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 0.01,
      0.02, 0.05, 0.1,  0.2,  0.5,  1,    2,    5,    10,   20};
  return kBounds;
}

void Histogram::observe(double v) {
  const Bounds& bounds = *bounds_;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lock(sketch_mu_);
    p50_.add(v);
    p95_.add(v);
    p99_.add(v);
  }
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  FDQOS_REQUIRE(i <= kBucketCount);
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::quantile_estimate(double q) const {
  std::lock_guard<std::mutex> lock(sketch_mu_);
  if (q == 0.5) return p50_.value();
  if (q == 0.95) return p95_.value();
  if (q == 0.99) return p99_.value();
  FDQOS_REQUIRE(!"unsupported histogram summary quantile");
  return 0.0;
}

Registry::Instrument& Registry::instrument(const std::string& name,
                                           const std::string& help,
                                           MetricType type,
                                           const Labels& labels,
                                           const Histogram::Bounds* bounds) {
  FDQOS_REQUIRE(!name.empty());
  std::lock_guard<std::mutex> lock(mu_);
  auto [fam_it, fam_created] = families_.try_emplace(name);
  Family& family = fam_it->second;
  if (fam_created) {
    family.help = help;
    family.type = type;
    family.bounds = bounds;
  } else {
    FDQOS_REQUIRE(family.type == type);
    FDQOS_REQUIRE(family.bounds == bounds);
  }
  auto [inst_it, inst_created] =
      family.instruments.try_emplace(render_labels(labels));
  Instrument& inst = inst_it->second;
  if (inst_created) {
    inst.labels = labels;
    std::sort(inst.labels.begin(), inst.labels.end());
    switch (type) {
      case MetricType::kCounter:
        inst.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        inst.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        inst.histogram = std::make_unique<Histogram>(*family.bounds);
        break;
    }
  }
  return inst;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  return *instrument(name, help, MetricType::kCounter, labels).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  return *instrument(name, help, MetricType::kGauge, labels).gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help, const Labels& labels,
                               const Histogram::Bounds& bounds) {
  return *instrument(name, help, MetricType::kHistogram, labels, &bounds)
              .histogram;
}

std::size_t Registry::family_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return families_.size();
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char line[256];
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + escape_help(family.help) + "\n";
    }
    out += "# TYPE " + name + " " + type_name(family.type) + "\n";
    for (const auto& [label_str, inst] : family.instruments) {
      const std::string braces =
          label_str.empty() ? "" : "{" + label_str + "}";
      switch (family.type) {
        case MetricType::kCounter:
          std::snprintf(line, sizeof line, "%s%s %llu\n", name.c_str(),
                        braces.c_str(),
                        static_cast<unsigned long long>(inst.counter->value()));
          out += line;
          break;
        case MetricType::kGauge:
          out += name + braces + " " + format_double(inst.gauge->value()) +
                 "\n";
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *inst.histogram;
          const std::string sep = label_str.empty() ? "" : ",";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
            cumulative += h.bucket_count(i);
            out += name + "_bucket{" + label_str + sep + "le=\"" +
                   format_double(h.bounds()[i]) + "\"} " +
                   std::to_string(cumulative) + "\n";
          }
          cumulative += h.bucket_count(Histogram::kBucketCount);
          out += name + "_bucket{" + label_str + sep + "le=\"+Inf\"} " +
                 std::to_string(cumulative) + "\n";
          out += name + "_sum" + braces + " " + format_double(h.sum()) + "\n";
          out += name + "_count" + braces + " " + std::to_string(h.count()) +
                 "\n";
          break;
        }
      }
    }
    // Streaming quantile summaries ride along as their own gauge families
    // (`_p50` is not a legal sample suffix inside a histogram family, so
    // per the format these are separate metrics with their own TYPE).
    if (family.type == MetricType::kHistogram) {
      for (const double q : Histogram::kSummaryQuantiles) {
        const std::string suffix =
            q == 0.5 ? "_p50" : (q == 0.95 ? "_p95" : "_p99");
        out += "# HELP " + name + suffix + " Streaming P" + "\xc2\xb2" +
               " quantile estimate over " + name + " observations\n";
        out += "# TYPE " + name + suffix + " gauge\n";
        for (const auto& [label_str, inst] : family.instruments) {
          const std::string braces =
              label_str.empty() ? "" : "{" + label_str + "}";
          out += name + suffix + braces + " " +
                 format_double(inst.histogram->quantile_estimate(q)) + "\n";
        }
      }
    }
  }
  return out;
}

std::string Registry::to_jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    for (const auto& [label_str, inst] : family.instruments) {
      std::string labels_json = "{";
      for (std::size_t i = 0; i < inst.labels.size(); ++i) {
        if (i > 0) labels_json.push_back(',');
        labels_json += "\"" + escape_json(inst.labels[i].first) + "\":\"" +
                       escape_json(inst.labels[i].second) + "\"";
      }
      labels_json.push_back('}');
      out += "{\"metric\":\"" + name + "\",\"type\":\"" +
             type_name(family.type) + "\",\"labels\":" + labels_json;
      switch (family.type) {
        case MetricType::kCounter:
          out += ",\"value\":" + std::to_string(inst.counter->value());
          break;
        case MetricType::kGauge:
          out += ",\"value\":" + json_number(inst.gauge->value());
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *inst.histogram;
          out += ",\"count\":" + std::to_string(h.count()) +
                 ",\"sum\":" + json_number(h.sum()) +
                 ",\"p50\":" + json_number(h.quantile_estimate(0.5)) +
                 ",\"p95\":" + json_number(h.quantile_estimate(0.95)) +
                 ",\"p99\":" + json_number(h.quantile_estimate(0.99)) +
                 ",\"buckets\":[";
          for (std::size_t i = 0; i <= Histogram::kBucketCount; ++i) {
            if (i > 0) out.push_back(',');
            const std::string le =
                i < Histogram::kBucketCount
                    ? format_double(h.bounds()[i])
                    : std::string("\"+Inf\"");
            out += "{\"le\":" + le +
                   ",\"n\":" + std::to_string(h.bucket_count(i)) + "}";
          }
          out.push_back(']');
          break;
        }
      }
      out += "}\n";
    }
  }
  return out;
}

bool Registry::save_prometheus(const std::string& path) const {
  return write_file(path, to_prometheus());
}

bool Registry::save_jsonl(const std::string& path) const {
  return write_file(path, to_jsonl());
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace fdqos::obs
