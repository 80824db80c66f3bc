// perfbench: one workload per invocation, end-to-end metrics when
// untraced, per-layer metrics when traced. Usually started through
// run.py, which builds this binary first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--spans-out <file>]
//
// The last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// are the human-readable record. Exit code 1 on any output mismatch.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the per_layer metrics of BENCHMARK.json (run.py
// checks). A traced run reports every one; a layer a workload does not
// exercise reads 0.
const MetricDef kFixedLayerMetrics[] = {
    {"table.bin_s", "s"},
    {"table.self_s", "s"},
    {"tree.exact_sorts", "count"},
    {"tree.root_split_ms", "ms"},
    {"tree.histogram_builds", "count"},
    {"tree.sibling_subtractions", "count"},
    {"tree.hist_build_rows_per_s", "rows/s"},
    {"tree.self_s", "s"},
    {"engine.tasks_scheduled", "count"},
    {"engine.column_tasks", "count"},
    {"engine.subtree_tasks", "count"},
    {"engine.comper_busy_s", "s"},
    {"engine.comper_idle_share", "ratio"},
    {"engine.task_latency_us.p50", "us"},
    {"engine.task_latency_us.p99", "us"},
    {"engine.bplan_depth.p50", "count"},
    {"engine.peak_task_memory_mb", "MB"},
    {"engine.retransmits", "count"},
    {"engine.duplicate_msgs", "count"},
    {"engine.useful_send_ratio", "ratio"},
    {"engine.self_s", "s"},
    {"net.bytes_sent_mb", "MB"},
    {"net.msgs_sent", "count"},
    {"net.data_payload_kb.p99", "KB"},
    {"net.data_send_us.p99", "us"},
    {"net.msgs_dropped", "count"},
    {"rpc.reconnects", "count"},
    {"rpc.heartbeat_misses", "count"},
    {"rpc.send_buffer_hwm_mb", "MB"},
    {"rpc.corrupt_msgs", "count"},
    {"rpc.fenced_msgs", "count"},
    {"rpc.self_s", "s"},
    {"forest.model_kb", "KB"},
    {"forest.serialize_ms", "ms"},
    {"forest.self_s", "s"},
    {"serve.compile_ms", "ms"},
    {"serve.traverse_rows_per_s", "rows/s"},
    {"serve.quantized_rows_per_s", "rows/s"},
    {"serve.server_rows_per_s", "rows/s"},
    {"serve.predict_us.p50", "us"},
    {"serve.predict_us.p99", "us"},
    {"serve.batch_rows.p50", "rows"},
    {"serve.rejected", "count"},
    {"serve.self_s", "s"},
    {"fleet.wire_encode_us", "us"},
    {"fleet.wire_decode_us", "us"},
    {"fleet.latency_us.p50", "us"},
    {"fleet.latency_us.p99", "us"},
    {"fleet.shed", "count"},
    {"fleet.retransmits", "count"},
    {"fleet.replica.predicts", "count"},
    {"fleet.replica_vs_server", "ratio"},
    {"fleet.mixed_version_replies", "count"},
    {"fleet.push_s", "s"},
    {"fleet.self_s", "s"},
    {"loadgen.late_ms.p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"loadgen.max_rate_rps", "requests/s"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_share", "ratio"},
};

struct LayerMetric {
  std::string name;
  const char* unit;
};

/// The fixed per-layer metrics plus p50/p99/failed share per ladder
/// rung.
std::vector<LayerMetric> LayerMetrics() {
  std::vector<LayerMetric> out;
  for (const MetricDef& m : kFixedLayerMetrics) out.push_back({m.name, m.unit});
  for (size_t r = 0; r < kNumLadderRungs; ++r) {
    out.push_back({RungName(r) + ".p50_ms", "ms"});
    out.push_back({RungName(r) + ".p99_ms", "ms"});
    out.push_back({RungName(r) + ".failed_frac", "ratio"});
  }
  return out;
}

// The layers spans are attributed to (the part of a span name before
// its first '.').
const char* const kLayers[] = {"table", "tree",  "engine", "rpc",
                               "forest", "serve", "fleet"};

/// Finite numbers print with all their digits; an unbounded value (a
/// tail that reached failed requests) prints as -1.
std::string Num(double v) {
  if (!std::isfinite(v)) return "-1";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricJson(const std::string& name, double value,
                       const char* unit) {
  return "\"" + name + "\":{\"value\":" + Num(value) +
         ",\"unit\":\"" + unit + "\"}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train_exact_inproc|train_hist_tcp|"
               "serve_fleet_online|score_bulk --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--spans-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0)) return Usage();

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "train_exact_inproc") run = RunTrainExactInproc;
  if (options.workload == "train_hist_tcp") run = RunTrainHistTcp;
  if (options.workload == "serve_fleet_online") run = RunServeFleetOnline;
  if (options.workload == "score_bulk") run = RunScoreBulk;
  if (run == nullptr) return Usage();

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf(
      "# tags {\"git_sha\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\",%s}\n",
      git_sha.c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, treeserver::SimdStatusJson().c_str());
  std::fflush(stdout);

  Result r = run(options);
  std::string metrics;
  if (!options.trace) {
    std::printf("%-26s %14s  %-10s %s\n", "metric", "value", "unit", "note");
    const struct {
      const char* name;
      double value;
      const char* unit;
      std::string note;
    } e2e[] = {
        {"setup_s", r.setup_s, "s",
         "median of " + std::to_string(r.setup_samples) + " set-ups"},
        {"rows_per_s", r.rows_per_s, "rows/s", r.rows_desc},
        {"peak_rss_mb", r.peak_rss_mb, "MB", r.rss_desc},
    };
    for (const auto& m : e2e) {
      std::printf("%-26s %14s  %-10s %s\n", m.name, Num(m.value).c_str(),
                  m.unit, m.note.c_str());
      if (!metrics.empty()) metrics += ",";
      metrics += MetricJson(m.name, m.value, m.unit);
    }
    for (const auto& m : r.named) {
      std::printf("  %-24s %14s  %-10s %s\n", m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
  } else {
    const Attribution a =
        AttributeSelfTime(r.spans, r.wall_start_ns, r.wall_end_ns);
    for (const char* layer : kLayers) {
      const auto it = a.self_s.find(layer);
      r.layer[std::string(layer) + ".self_s"] =
          it == a.self_s.end() ? 0.0 : it->second;
    }
    r.layer["trace.unattributed_share"] =
        a.wall_s > 0 ? a.unattributed_s / a.wall_s : 0.0;
    std::printf("%-14s %12s %8s\n", "layer", "self_s", "share");
    for (const char* layer : kLayers) {
      const double s = r.layer[std::string(layer) + ".self_s"];
      std::printf("%-14s %12.6f %7.2f%%\n", layer, s,
                  a.wall_s > 0 ? 100.0 * s / a.wall_s : 0.0);
    }
    std::printf("%-14s %12.6f %7.2f%%\n", "(unattributed)", a.unattributed_s,
                a.wall_s > 0 ? 100.0 * a.unattributed_s / a.wall_s : 0.0);
    std::printf("%-14s %12.6f %7.2f%%  (%zu spans)\n", "wall", a.wall_s,
                100.0, r.spans.size());
    const std::vector<LayerMetric> listed = LayerMetrics();
    for (const LayerMetric& m : listed) {
      const auto it = r.layer.find(m.name);
      const double v = it == r.layer.end() ? 0.0 : it->second;
      std::printf("%-30s %16s  %s\n", m.name.c_str(), Num(v).c_str(), m.unit);
      if (!metrics.empty()) metrics += ",";
      metrics += MetricJson(m.name, v, m.unit);
    }
    for (const auto& [name, value] : r.layer) {
      const bool known = std::any_of(
          listed.begin(), listed.end(),
          [&name](const LayerMetric& m) { return m.name == name; });
      if (!known) r.Mismatch("per-layer metric " + name + " is not listed");
    }
    if (!spans_out.empty()) {
      std::ofstream out(spans_out);
      out << ToChromeJson(r.spans);
      if (!out) std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
    }
  }
  for (const std::string& m : r.mismatches) {
    std::printf("# MISMATCH: %s\n", m.c_str());
  }
  const bool correct = r.mismatches.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
