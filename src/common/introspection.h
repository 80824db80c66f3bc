#ifndef TREESERVER_COMMON_INTROSPECTION_H_
#define TREESERVER_COMMON_INTROSPECTION_H_

#include <functional>
#include <string>

#include "common/http_server.h"
#include "common/metrics_registry.h"

namespace treeserver {

/// Registers the introspection endpoints every TreeServer process
/// serves on `http` (call before HttpServer::Start):
///   /healthz  "ok"
///   /metrics  Prometheus text of `metrics`, then whatever
///             `append_metrics` (optional) adds on each scrape
///   /statusz  `statusz()` as JSON
/// `metrics` must outlive the server.
void MountIntrospection(
    HttpServer* http, const MetricsRegistry* metrics,
    std::function<std::string()> statusz,
    std::function<void(std::string*)> append_metrics = nullptr);

}  // namespace treeserver

#endif  // TREESERVER_COMMON_INTROSPECTION_H_
