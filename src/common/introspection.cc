#include "common/introspection.h"

#include <utility>

#include "common/prometheus.h"

namespace treeserver {

void MountIntrospection(HttpServer* http, const MetricsRegistry* metrics,
                        std::function<std::string()> statusz,
                        std::function<void(std::string*)> append_metrics) {
  http->Handle("/healthz", [](const std::string&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  http->Handle("/metrics", [metrics, append = std::move(append_metrics)](
                               const std::string&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = PrometheusExport(metrics->Snapshot());
    if (append) append(&resp.body);
    return resp;
  });
  http->Handle("/statusz",
               [statusz = std::move(statusz)](const std::string&) {
                 HttpResponse resp;
                 resp.content_type = "application/json";
                 resp.body = statusz();
                 return resp;
               });
}

}  // namespace treeserver
