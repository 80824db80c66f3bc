#include "common/prometheus.h"

#include <cinttypes>
#include <cstdio>

namespace treeserver {

namespace {

bool ValidNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':')
    return true;
  return !first && c >= '0' && c <= '9';
}

/// Appends `name{labels,extra} value\n`.
void AppendSample(std::string* out, const std::string& name,
                  const PrometheusLabels& labels,
                  const PrometheusLabels& extra, const std::string& value) {
  *out += name;
  if (!labels.empty() || !extra.empty()) {
    *out += '{';
    bool first = true;
    for (const auto* set : {&labels, &extra}) {
      for (const auto& [k, v] : *set) {
        if (!first) *out += ',';
        first = false;
        *out += k;
        *out += "=\"";
        *out += PrometheusEscapeLabel(v);
        *out += '"';
      }
    }
    *out += '}';
  }
  *out += ' ';
  *out += value;
  *out += '\n';
}

std::string U64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string I64(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

void AppendType(std::string* out, const std::string& name, const char* type) {
  *out += "# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    out.push_back(ValidNameChar(name[i], i == 0) ? name[i] : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void AppendPrometheusMetric(const MetricSnapshot& metric,
                            const PrometheusLabels& labels, std::string* out) {
  const std::string name = PrometheusMetricName(metric.name);
  switch (metric.kind) {
    case MetricSnapshot::Kind::kCounter:
      AppendType(out, name, "counter");
      AppendSample(out, name, labels, {}, U64(metric.count));
      break;
    case MetricSnapshot::Kind::kGauge:
      AppendType(out, name, "gauge");
      AppendSample(out, name, labels, {}, I64(metric.value));
      AppendType(out, name + "_peak", "gauge");
      AppendSample(out, name + "_peak", labels, {}, I64(metric.peak));
      break;
    case MetricSnapshot::Kind::kHistogram: {
      AppendType(out, name, "histogram");
      const Histogram::Snapshot& h = metric.histogram;
      uint64_t cumulative = 0;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        if (h.buckets[i] == 0) continue;  // sparse: log buckets span 2^64
        cumulative += h.buckets[i];
        AppendSample(out, name + "_bucket", labels,
                     {{"le", U64(Histogram::BucketUpperBound(i))}},
                     U64(cumulative));
      }
      AppendSample(out, name + "_bucket", labels, {{"le", "+Inf"}},
                   U64(h.count));
      AppendSample(out, name + "_sum", labels, {}, U64(h.sum));
      AppendSample(out, name + "_count", labels, {}, U64(h.count));
      break;
    }
  }
}

std::string PrometheusExport(const std::vector<MetricSnapshot>& snapshot,
                             const PrometheusLabels& labels) {
  std::string out;
  out.reserve(snapshot.size() * 96 + 64);
  for (const MetricSnapshot& metric : snapshot) {
    AppendPrometheusMetric(metric, labels, &out);
  }
  return out;
}

}  // namespace treeserver
