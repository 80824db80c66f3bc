#ifndef TREESERVER_COMMON_PROMETHEUS_H_
#define TREESERVER_COMMON_PROMETHEUS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"

namespace treeserver {

/// Label set attached to every exported sample (e.g. {{"rank","0"}}).
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

/// Sanitizes a registry metric name into the Prometheus grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]* — dots and other foreign characters become
/// underscores ("engine.slow_tasks" -> "engine_slow_tasks").
std::string PrometheusMetricName(const std::string& name);

/// Escapes a label value per the text exposition format: backslash,
/// double quote and newline get backslash-escaped.
std::string PrometheusEscapeLabel(const std::string& value);

/// Renders one metric snapshot in the Prometheus text exposition
/// format v0.0.4. Counters become `counter` samples; gauges emit the
/// current value plus a `<name>_peak` gauge; histograms emit cumulative `_bucket{le="..."}`
/// series (log-bucketed upper bounds plus `+Inf`), `_sum` and
/// `_count`.
void AppendPrometheusMetric(const MetricSnapshot& metric,
                            const PrometheusLabels& labels, std::string* out);

/// Full registry export: every metric in `snapshot` with the common
/// `labels` attached to each sample.
std::string PrometheusExport(const std::vector<MetricSnapshot>& snapshot,
                             const PrometheusLabels& labels = {});

}  // namespace treeserver

#endif  // TREESERVER_COMMON_PROMETHEUS_H_
