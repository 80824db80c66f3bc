#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/http_server.h"
#include "common/json.h"
#include "common/serial.h"
#include "common/trace.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "fleet/wire.h"
#include "forest/forest.h"
#include "net/network.h"
#include "rpc/fault_injection.h"
#include "serve/compiled_model.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

DataTable FleetData(size_t rows, uint64_t seed, int classes = 3) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 5;
  p.num_categorical = 3;
  p.num_classes = classes;
  p.missing_fraction = 0.05;
  p.noise = 0.05;
  p.concept_depth = 5;
  return GenerateTable(p, seed);
}

ForestModel TrainFleetForest(const DataTable& t, uint64_t seed = 17,
                             int trees = 6) {
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 6;
  spec.column_ratio = 0.7;
  spec.seed = seed;
  if (t.schema().task_kind() == TaskKind::kRegression) {
    spec.tree.impurity = Impurity::kVariance;
  }
  return TrainForestSerial(t, spec, 2);
}

std::string SerializeForest(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.Release();
}

std::vector<int32_t> ReferenceLabels(const ForestModel& forest,
                                     const DataTable& table) {
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<uint32_t> rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) rows[i] = i;
  std::vector<int32_t> labels(table.num_rows());
  compiled.PredictLabel(table, rows.data(), rows.size(), -1, labels.data());
  return labels;
}

/// Router + N started replicas over one in-process transport, with
/// fast timers sized for tests.
struct FleetHarness {
  explicit FleetHarness(int num_replicas, FleetRouterConfig router_config = {},
                        Transport* transport_override = nullptr)
      : net(num_replicas, 0.0),
        transport(transport_override != nullptr ? transport_override : &net) {
    for (int r = 0; r < num_replicas; ++r) {
      FleetReplicaConfig rc;
      rc.rank = r;
      rc.serve.num_workers = 2;
      rc.serve.max_batch = 16;
      rc.serve.batch_deadline_us = 100;
      replicas.push_back(std::make_unique<FleetReplica>(transport, rc));
    }
    if (router_config.health_period_ms == 100) {
      router_config.health_period_ms = 20;
    }
    if (router_config.retry_period_ms == 250) {
      router_config.retry_period_ms = 60;
    }
    router = std::make_unique<FleetRouter>(transport, router_config);
  }

  ~FleetHarness() {
    router->Stop();
    for (auto& r : replicas) r->Stop();
  }

  void Start(int skip_replica = -1) {
    for (int r = 0; r < static_cast<int>(replicas.size()); ++r) {
      if (r != skip_replica) replicas[r]->Start();
    }
    router->Start();
  }

  InProcessTransport net;
  Transport* transport;
  std::vector<std::unique_ptr<FleetReplica>> replicas;
  std::unique_ptr<FleetRouter> router;
};

// ---------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------

TEST(FleetWire, PredictBatchRoundTripsBitExact) {
  DataTable table = FleetData(64, 11);
  std::vector<uint32_t> rows = {0, 7, 13, 63};
  FleetPredictMsg msg =
      FleetPredictMsg::FromRows(42, "m", table, rows.data(), rows.size());
  const std::string wire = msg.Encode();

  FleetPredictMsg decoded;
  ASSERT_TRUE(FleetPredictMsg::Decode(wire, &decoded).ok());
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.model, "m");
  EXPECT_EQ(decoded.num_rows, rows.size());

  Result<std::shared_ptr<const DataTable>> rebuilt = decoded.ToTable();
  ASSERT_TRUE(rebuilt.ok());
  const DataTable& out = **rebuilt;
  ASSERT_EQ(out.num_rows(), rows.size());
  ASSERT_EQ(out.num_columns(), table.num_columns());
  EXPECT_EQ(out.schema().target_index(), table.schema().target_index());
  for (int c = 0; c < table.num_columns(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (table.column(c)->type() == DataType::kNumeric) {
        const double a = table.column(c)->numeric_at(rows[i]);
        const double b = out.column(c)->numeric_at(i);
        // Bit-exact, including NaN (missing values).
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
      } else {
        EXPECT_EQ(table.column(c)->category_at(rows[i]),
                  out.column(c)->category_at(i));
      }
    }
  }
}

TEST(FleetWire, CorruptionIsDetectedAtEverySeam) {
  DataTable table = FleetData(16, 3);
  std::vector<uint32_t> rows = {1, 2};
  std::string wire =
      FleetPredictMsg::FromRows(7, "m", table, rows.data(), rows.size())
          .Encode();
  // Flip one byte anywhere: the CRC seal must catch it.
  for (size_t pos : {size_t{0}, size_t{5}, wire.size() / 2, wire.size() - 1}) {
    std::string bad = wire;
    bad[pos] ^= 0x40;
    FleetPredictMsg out;
    EXPECT_FALSE(FleetPredictMsg::Decode(bad, &out).ok()) << "pos " << pos;
  }
  // Truncation too.
  FleetPredictMsg out;
  EXPECT_FALSE(FleetPredictMsg::Decode(wire.substr(0, 3), &out).ok());
  EXPECT_FALSE(
      FleetPredictMsg::Decode(wire.substr(0, wire.size() - 2), &out).ok());
}

TEST(FleetWire, AdminAndHealthRoundTrip) {
  FleetPushMsg push;
  push.op_id = 9;
  push.model = "m";
  push.model_bytes = std::string("\x01\x02\x00\x03", 4);
  FleetPushMsg push2;
  ASSERT_TRUE(FleetPushMsg::Decode(push.Encode(), &push2).ok());
  EXPECT_EQ(push2.model_bytes, push.model_bytes);

  FleetHealthPongMsg pong;
  pong.nonce = 5;
  pong.replica = 2;
  pong.queue_depth = 7;
  pong.models.push_back({"m", 3, 2});
  FleetHealthPongMsg pong2;
  ASSERT_TRUE(FleetHealthPongMsg::Decode(pong.Encode(), &pong2).ok());
  ASSERT_EQ(pong2.models.size(), 1u);
  EXPECT_EQ(pong2.models[0].name, "m");
  EXPECT_EQ(pong2.models[0].version, 3u);
}

// ---------------------------------------------------------------------
// Router + replicas, in-process.
// ---------------------------------------------------------------------

TEST(FleetRouterTest, PredictionsMatchSingleProcessReference) {
  DataTable table = FleetData(256, 21);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(3);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    Result<FleetBatchResult> result = futures[row].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->labels.size(), 1u);
    EXPECT_EQ(result->labels[0], reference[row]) << "row " << row;
  }

  // Every replica took some of the load (least-loaded dispatch
  // spreads across ranks under concurrency).
  const FleetStatus status = fleet.router->GetStatus();
  EXPECT_EQ(status.shed, 0u);
  EXPECT_GE(status.accepted, table.num_rows());
}

TEST(FleetRouterTest, BatchedRowsMatchReference) {
  DataTable table = FleetData(128, 23);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < table.num_rows(); r += 2) rows.push_back(r);
  Result<FleetBatchResult> result =
      fleet.router->PredictRows("m", table, rows.data(), rows.size()).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->labels.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(result->labels[i], reference[rows[i]]);
  }
}

TEST(FleetRouterTest, DispatchSpreadsLoadAcrossReplicas) {
  DataTable table = FleetData(16, 5);

  FleetRouterConfig config;
  // No timer acts during the test: no retransmit moves a request.
  config.health_period_ms = 10000;
  config.retry_period_ms = 10000;
  // Replicas are never started, so nothing answers and every dispatch
  // stays outstanding where the router put it.
  FleetHarness fleet(2, config);
  fleet.router->Start();

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 4; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  const FleetStatus status = fleet.router->GetStatus();
  ASSERT_EQ(status.replicas.size(), 2u);
  EXPECT_EQ(status.replicas[0].outstanding, 2u);
  EXPECT_EQ(status.replicas[1].outstanding, 2u);
}

TEST(FleetRouterTest, ShedsAtAdmissionAndDeadlineWithCounts) {
  DataTable table = FleetData(32, 5);

  FleetRouterConfig config;
  config.max_inflight = 4;
  config.default_deadline_ms = 150;
  MetricsRegistry metrics;
  config.metrics = &metrics;
  // Replicas exist but are never started: nothing drains the
  // mailboxes, so accepted requests age out and late ones shed at
  // admission.
  FleetHarness fleet(2, config);
  fleet.router->Start();

  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 8; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  size_t unavailable = 0;
  for (auto& f : futures) {
    Result<FleetBatchResult> r = f.get();
    ASSERT_FALSE(r.ok());
    if (r.status().code() == StatusCode::kUnavailable) ++unavailable;
  }
  // All 8 resolved Unavailable: 4 at admission, 4 at the deadline —
  // and the shed counter saw every one (nothing dropped silently).
  EXPECT_EQ(unavailable, 8u);
  EXPECT_EQ(metrics.GetCounter("fleet.shed")->value(), 8u);
}

TEST(FleetRouterTest, FailoverReroutesAwayFromDeadReplica) {
  DataTable table = FleetData(128, 31);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  FleetHarness fleet(3);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

  // Kill replica 0 mid-load: its in-flight work must re-dispatch.
  std::vector<std::future<Result<FleetBatchResult>>> futures;
  for (uint32_t row = 0; row < 64; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }
  fleet.replicas[0]->Stop();
  fleet.net.SetCrashed(0);
  fleet.router->MarkReplicaDead(0);
  for (uint32_t row = 64; row < 128; ++row) {
    futures.push_back(fleet.router->Predict("m", table, row));
  }

  for (uint32_t row = 0; row < 128; ++row) {
    Result<FleetBatchResult> result = futures[row].get();
    ASSERT_TRUE(result.ok()) << "row " << row << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->labels[0], reference[row]);
    // Pre-kill rows may well have been answered by replica 0 before it
    // died; only traffic sent after MarkReplicaDead must avoid it.
    if (row >= 64) {
      EXPECT_NE(result->replica, 0) << "dead replica answered row " << row;
    }
  }
  const FleetStatus status = fleet.router->GetStatus();
  EXPECT_FALSE(status.replicas[0].alive);
  EXPECT_FALSE(status.replicas[0].in_rotation);
}

TEST(FleetRouterTest, HealthRotationDropsAndHealsSilentReplica) {
  FleetRouterConfig config;
  config.health_period_ms = 10;
  config.health_miss_limit = 3;
  FleetHarness fleet(2, config);
  // Replica 1 exists but does not serve its mailbox yet.
  fleet.Start(/*skip_replica=*/1);

  // Replica 1 misses pings until it leaves rotation.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool out_of_rotation = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const FleetStatus status = fleet.router->GetStatus();
    if (!status.replicas[1].in_rotation) {
      out_of_rotation = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(out_of_rotation);
  {
    const FleetStatus status = fleet.router->GetStatus();
    EXPECT_TRUE(status.replicas[1].alive);  // silent, not dead
    EXPECT_TRUE(status.replicas[0].in_rotation);
  }

  // It starts serving (partition heals): first pong re-admits it.
  fleet.replicas[1]->Start();
  bool healed = false;
  const auto heal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < heal_deadline) {
    if (fleet.router->GetStatus().replicas[1].in_rotation) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed);
}

TEST(FleetRouterTest, CanaryRollbackLeavesOldVersionEverywhere) {
  DataTable table = FleetData(128, 41);
  ForestModel v1 = TrainFleetForest(table, 17);
  ForestModel v2 = TrainFleetForest(table, 99);
  const std::vector<int32_t> reference_v1 = ReferenceLabels(v1, table);

  FleetRouterConfig config;
  config.canary_fraction = 0.5;
  FleetHarness fleet(3, config);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v1)).ok());

  Result<int> canary_replica =
      fleet.router->PushCanary("m", SerializeForest(v2));
  ASSERT_TRUE(canary_replica.ok()) << canary_replica.status().ToString();

  // Half the traffic sees v2 (from the canary replica only), half v1.
  bool saw_canary = false;
  bool saw_baseline = false;
  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    if (r->version == 2) {
      saw_canary = true;
      EXPECT_EQ(r->replica, *canary_replica);
    } else {
      EXPECT_EQ(r->version, 1u);
      EXPECT_NE(r->replica, *canary_replica)
          << "baseline traffic hit the canary replica";
      saw_baseline = true;
    }
  }
  EXPECT_TRUE(saw_canary);
  EXPECT_TRUE(saw_baseline);
  {
    const FleetStatus status = fleet.router->GetStatus();
    ASSERT_EQ(status.canaries.size(), 1u);
    EXPECT_EQ(status.canaries[0].replica, *canary_replica);
    EXPECT_GT(status.canaries[0].canary.count +
                  status.canaries[0].baseline.count,
              0u);
  }

  // Forced rollback: every replica serves v1 again, no v2 anywhere.
  ASSERT_TRUE(fleet.router->Rollback("m").ok());
  EXPECT_TRUE(fleet.router->GetStatus().canaries.empty());
  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 1u);
    EXPECT_EQ(r->labels[0], reference_v1[row]);
  }
  for (auto& replica : fleet.replicas) {
    auto current = replica->registry()->Current("m");
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->version, 1u);
  }
}

TEST(FleetRouterTest, CanaryPromoteShipsNewVersionEverywhere) {
  DataTable table = FleetData(96, 43);
  ForestModel v1 = TrainFleetForest(table, 17);
  ForestModel v2 = TrainFleetForest(table, 99);
  const std::vector<int32_t> reference_v2 = ReferenceLabels(v2, table);

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v1)).ok());
  ASSERT_TRUE(fleet.router->PushCanary("m", SerializeForest(v2)).ok());
  ASSERT_TRUE(fleet.router->Promote("m").ok());
  EXPECT_TRUE(fleet.router->GetStatus().canaries.empty());

  for (uint32_t row = 0; row < 64; ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->version, 2u);
    EXPECT_EQ(r->labels[0], reference_v2[row]);
  }
}

TEST(FleetRouterTest, StatuszEscapesModelNames) {
  DataTable table = FleetData(64, 45);
  const std::string name = "m\"x\\y\nz";
  FleetRouterConfig config;
  config.http_port = 0;
  FleetHarness fleet(2, config);
  fleet.Start();
  ASSERT_GT(fleet.router->http_port(), 0);
  ASSERT_TRUE(
      fleet.router->Push(name, SerializeForest(TrainFleetForest(table, 17)))
          .ok());
  ASSERT_TRUE(
      fleet.router
          ->PushCanary(name, SerializeForest(TrainFleetForest(table, 99)))
          .ok());
  // Replica model lists reach the router with the health pongs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto pongs_carry_name = [&] {
    for (const FleetReplicaStatus& r : fleet.router->GetStatus().replicas) {
      if (r.models.empty()) return false;
    }
    return true;
  };
  while (!pongs_carry_name() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(pongs_carry_name());

  std::string body;
  ASSERT_TRUE(
      HttpGet("127.0.0.1", fleet.router->http_port(), "/statusz", &body).ok());
  JsonValue doc;
  Status parsed = JsonValue::Parse(body, &doc);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString() << "\n" << body;
  EXPECT_EQ(doc.StringOr("role", ""), "router");
  const JsonValue* replicas = doc.Find("replicas");
  ASSERT_NE(replicas, nullptr);
  ASSERT_EQ(replicas->as_array().size(), 2u);
  for (const JsonValue& r : replicas->as_array()) {
    const JsonValue* models = r.Find("models");
    ASSERT_NE(models, nullptr);
    ASSERT_EQ(models->as_array().size(), 1u);
    EXPECT_EQ(models->as_array()[0].StringOr("name", ""), name);
  }
  const JsonValue* canaries = doc.Find("canaries");
  ASSERT_NE(canaries, nullptr);
  ASSERT_EQ(canaries->as_array().size(), 1u);
  EXPECT_EQ(canaries->as_array()[0].StringOr("model", ""), name);
}

TEST(FleetRouterTest, MergedTraceStopsWaitingForADeadReplica) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  FleetHarness fleet(2);
  fleet.Start(/*skip_replica=*/1);  // replica 1 never answers
  const auto start = std::chrono::steady_clock::now();
  auto collected = std::async(std::launch::async, [&] {
    return fleet.router->CollectMergedTrace(/*timeout_ms=*/20000);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fleet.router->MarkReplicaDead(1);
  Result<std::string> merged = collected.get();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(*merged, &doc).ok());
  std::vector<std::string> lanes;
  for (const JsonValue& ev : doc.Find("traceEvents")->as_array()) {
    if (ev.StringOr("name", "") == "process_name") {
      lanes.push_back(ev.Find("args")->StringOr("name", ""));
    }
  }
  EXPECT_EQ(lanes, (std::vector<std::string>{"router", "replica 0"}));
}

TEST(FleetRouterTest, RestartedRouterPushPublishesNewBytes) {
  DataTable table = FleetData(96, 47);
  ForestModel v1 = TrainFleetForest(table, 17);
  ForestModel v2 = TrainFleetForest(table, 99);
  const std::vector<int32_t> reference_v2 = ReferenceLabels(v2, table);

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v1)).ok());
  fleet.router->Stop();

  // A second router on the same long-lived replicas (a restarted
  // driver): its admin op ids must not collide with the first one's,
  // or the replicas would replay the old push reply instead of
  // publishing the new bytes.
  FleetRouterConfig config;
  config.health_period_ms = 20;
  config.retry_period_ms = 60;
  fleet.router = std::make_unique<FleetRouter>(fleet.transport, config);
  fleet.router->Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(v2)).ok());

  for (auto& replica : fleet.replicas) {
    auto current = replica->registry()->Current("m");
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->version, 2u);
  }
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version, 2u);
    EXPECT_EQ(r->labels[0], reference_v2[row]) << "row " << row;
  }
}

TEST(FleetRouterTest, RegressionValuesAreByteIdentical) {
  DatasetProfile p;
  p.rows = 96;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 0;  // regression
  p.noise = 0.1;
  DataTable table = GenerateTable(p, 7);
  ForestModel forest = TrainFleetForest(table);
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<uint32_t> rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) rows[i] = i;
  std::vector<double> reference(table.num_rows());
  compiled.PredictValue(table, rows.data(), rows.size(), -1, reference.data());

  FleetHarness fleet(2);
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());
  for (uint32_t row = 0; row < table.num_rows(); ++row) {
    Result<FleetBatchResult> r = fleet.router->Predict("m", table, row).get();
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->values.size(), 1u);
    // Byte-identical doubles, not approximately equal.
    EXPECT_EQ(std::memcmp(&r->values[0], &reference[row], sizeof(double)), 0)
        << "row " << row;
  }
}

// Version pinning: requests of more rows than the replicas' max_batch
// race pushes that alternate two forests. Every reply must come from
// one model version: each of its rows matches the forest of
// reply.version.
TEST(FleetRouterTest, EveryReplyRowMatchesItsVersion) {
  DataTable table = FleetData(256, 61);
  const ForestModel forests[2] = {TrainFleetForest(table, 17, 6),
                                  TrainFleetForest(table, 5, 1)};
  const std::vector<int32_t> refs[2] = {ReferenceLabels(forests[0], table),
                                        ReferenceLabels(forests[1], table)};
  const std::string bytes[2] = {SerializeForest(forests[0]),
                                SerializeForest(forests[1])};
  size_t differs = 0;
  for (size_t i = 0; i < refs[0].size(); ++i) {
    differs += refs[0][i] != refs[1][i];
  }
  ASSERT_GT(differs, table.num_rows() / 10);

  FleetHarness fleet(2);  // max_batch 16
  fleet.Start();
  ASSERT_TRUE(fleet.router->Push("m", bytes[0]).ok());

  // Version v holds forest (v - 1) % 2 on every replica.
  constexpr int kPushes = 40;
  std::atomic<bool> done{false};
  std::thread pusher([&] {
    for (int i = 1; i <= kPushes; ++i) {
      EXPECT_TRUE(fleet.router->Push("m", bytes[i % 2]).ok());
    }
    done.store(true);
  });

  constexpr uint32_t kRows = 40;
  struct Sent {
    uint32_t begin;
    std::future<Result<FleetBatchResult>> reply;
  };
  std::deque<Sent> outstanding;
  size_t checked = 0;
  size_t mixed = 0;
  std::set<uint32_t> versions;
  auto check_oldest = [&] {
    Sent sent = std::move(outstanding.front());
    outstanding.pop_front();
    Result<FleetBatchResult> r = sent.reply.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->labels.size(), kRows);
    const std::vector<int32_t>& ref = refs[(r->version - 1) % 2];
    bool all_match = true;
    for (uint32_t j = 0; j < kRows; ++j) {
      all_match = all_match && r->labels[j] == ref[sent.begin + j];
    }
    mixed += !all_match;
    versions.insert(r->version);
    ++checked;
  };
  std::vector<uint32_t> rows(kRows);
  for (uint32_t i = 0; !done.load() || i < 200; ++i) {
    const uint32_t begin = i * 13 % (table.num_rows() - kRows);
    for (uint32_t j = 0; j < kRows; ++j) rows[j] = begin + j;
    outstanding.push_back(
        {begin, fleet.router->PredictRows("m", table, rows.data(), kRows)});
    if (outstanding.size() >= 16) check_oldest();
  }
  pusher.join();
  while (!outstanding.empty()) check_oldest();

  EXPECT_EQ(mixed, 0u) << "of " << checked << " replies";
  EXPECT_GT(versions.size(), 2u);  // the reads really raced the pushes
}

/// Two started replicas on one in-process transport whose servers
/// admit at most `max_queue[r]` queued rows, with a router that has
/// published `forest` as "m".
struct AdmissionFleet {
  AdmissionFleet(const ForestModel& forest, const size_t (&max_queue)[2],
                 int replica0_deadline_us = 200)
      : net(2, 0.0) {
    for (int r = 0; r < 2; ++r) {
      FleetReplicaConfig rc;
      rc.rank = r;
      rc.serve.max_queue = max_queue[r];  // rows
      if (r == 0) rc.serve.batch_deadline_us = replica0_deadline_us;
      rc.metrics = &metrics;
      replicas.push_back(std::make_unique<FleetReplica>(&net, rc));
      replicas.back()->Start();
    }
    FleetRouterConfig config;
    config.metrics = &metrics;
    router = std::make_unique<FleetRouter>(&net, config);
    router->Start();
    EXPECT_TRUE(router->Push("m", SerializeForest(forest)).ok());
  }
  ~AdmissionFleet() {
    router->Stop();
    for (auto& r : replicas) r->Stop();
  }

  MetricsRegistry metrics;
  InProcessTransport net;
  std::vector<std::unique_ptr<FleetReplica>> replicas;
  std::unique_ptr<FleetRouter> router;
};

// Row-denominated admission in a fleet: a request that does not fit
// beside the rows a replica has queued is rejected whole with
// Unavailable, and the router's re-dispatch path answers it from
// another replica.
TEST(FleetRouterTest, RejectedBlockIsAnsweredByAnotherReplica) {
  DataTable table = FleetData(64, 62);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);
  // Replica 0 holds a block for a minute, so its queue stays busy.
  AdmissionFleet fleet(forest, {8, 4096}, /*replica0_deadline_us=*/60000000);
  std::promise<Result<BlockPrediction>> held;
  std::future<Result<BlockPrediction>> held_reply = held.get_future();
  fleet.replicas[0]->server()->Submit(
      {"m", std::make_shared<const DataTable>(table), {1, 2, 3, 4}, -1, false},
      [&held](Result<BlockPrediction> r) { held.set_value(std::move(r)); });
  ASSERT_EQ(fleet.replicas[0]->server()->queue_depth(), 4u);

  // An idle fleet sends each request to replica 0 first, where its 12
  // rows do not fit beside the 4 queued.
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 12; ++r) rows.push_back(r * 5);
  for (int i = 0; i < 4; ++i) {
    Result<FleetBatchResult> result =
        fleet.router->PredictRows("m", table, rows.data(), rows.size()).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->replica, 1);
    ASSERT_EQ(result->labels.size(), rows.size());
    for (size_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(result->labels[j], reference[rows[j]]);
    }
  }
  EXPECT_GE(fleet.replicas[0]->server()->GetStats().rejected, 1u);
  EXPECT_EQ(fleet.replicas[1]->server()->GetStats().rejected, 0u);
  EXPECT_GE(fleet.metrics.GetCounter("fleet.retransmits")->value(), 1u);
  EXPECT_EQ(fleet.metrics.GetCounter("fleet.shed")->value(), 0u);
  // Stop flushes the held block rather than waiting out its deadline.
  fleet.replicas[0]->Stop();
  Result<BlockPrediction> r = held_reply.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->labels, (std::vector<int32_t>{reference[1], reference[2],
                                             reference[3], reference[4]}));
}

// A request larger than every replica's admission bound is still
// served: an idle replica admits it whole instead of bouncing it.
TEST(FleetRouterTest, RequestLargerThanMaxQueueIsServed) {
  DataTable table = FleetData(64, 65);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);
  AdmissionFleet fleet(forest, {8, 8});

  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < 40; ++r) rows.push_back(r * 3 % 64);
  for (int i = 0; i < 4; ++i) {
    Result<FleetBatchResult> result =
        fleet.router->PredictRows("m", table, rows.data(), rows.size()).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->labels.size(), rows.size());
    for (size_t j = 0; j < rows.size(); ++j) {
      EXPECT_EQ(result->labels[j], reference[rows[j]]);
    }
  }
  for (const auto& replica : fleet.replicas) {
    EXPECT_EQ(replica->server()->GetStats().rejected, 0u);
  }
  EXPECT_EQ(fleet.metrics.GetCounter("fleet.retransmits")->value(), 0u);
  EXPECT_EQ(fleet.metrics.GetCounter("fleet.shed")->value(), 0u);
}

// A request whose task kind differs from the served model's is a hard
// error, answered at once rather than left to time out.
TEST(FleetRouterTest, TaskKindMismatchIsAHardError) {
  DataTable regression = FleetData(64, 64, /*classes=*/0);
  DataTable classification = FleetData(64, 64, /*classes=*/3);
  FleetHarness fleet(1);
  fleet.Start();
  ASSERT_TRUE(
      fleet.router->Push("m", SerializeForest(TrainFleetForest(regression)))
          .ok());
  Result<FleetBatchResult> r =
      fleet.router->Predict("m", classification, 0).get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.router->GetStatus().retransmits, 0u);
}

// Stop with predicts in flight: it returns without hanging, every
// predict taken from the mailbox has been answered, and nothing is
// sent once it has returned.
TEST(FleetReplicaTest, StopAnswersEveryInFlightPredict) {
  DataTable table = FleetData(64, 63);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  InProcessTransport net(1, 0.0);
  FleetReplicaConfig rc;
  rc.serve.max_batch = 1000;
  rc.serve.batch_deadline_us = 500000;  // Stop must not wait it out
  MetricsRegistry metrics;
  rc.metrics = &metrics;
  FleetReplica replica(&net, rc);
  ASSERT_TRUE(replica.registry()->Publish("m", forest).ok());
  replica.Start();

  constexpr uint64_t kRequests = 30;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < 1 + id % 9; ++r) rows.push_back((id + r) % 64);
    Message msg;
    msg.dst = 0;
    msg.type = static_cast<uint32_t>(FleetMsg::kPredict);
    msg.payload = FleetPredictMsg::FromRows(id, "m", table, rows.data(),
                                            rows.size())
                      .Encode();
    ASSERT_TRUE(net.Send(ChannelKind::kTask, std::move(msg)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  replica.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));

  std::set<uint64_t> answered;
  while (std::optional<Message> msg = net.master_queue().TryPop()) {
    ASSERT_EQ(msg->type, static_cast<uint32_t>(FleetMsg::kPredictReply));
    FleetPredictReplyMsg reply;
    ASSERT_TRUE(FleetPredictReplyMsg::Decode(msg->payload, &reply).ok());
    ASSERT_EQ(reply.status_code, static_cast<uint8_t>(StatusCode::kOk))
        << reply.error;
    EXPECT_EQ(reply.version, 1u);
    ASSERT_EQ(reply.labels.size(), 1 + reply.request_id % 9);
    for (uint32_t r = 0; r < reply.labels.size(); ++r) {
      EXPECT_EQ(reply.labels[r], reference[(reply.request_id + r) % 64]);
    }
    answered.insert(reply.request_id);
  }
  EXPECT_EQ(answered.size(), kRequests);
  // A reply sent after Stop returned would land on the closed
  // transport and count as dropped.
  net.CloseAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (const auto& endpoint : net.GetStats().endpoints) {
    EXPECT_EQ(endpoint.msgs_dropped, 0u);
  }
}

// ---------------------------------------------------------------------
// Chaos: the fleet under the PR 7 fault injector.
// ---------------------------------------------------------------------

TEST(FleetChaosTest, MixedProfilePreservesParity) {
  DataTable table = FleetData(128, 53);
  ForestModel forest = TrainFleetForest(table);
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  InProcessTransport inner(3, 0.0);
  FaultSchedule schedule;
  ASSERT_TRUE(FaultSchedule::Profile("mixed", 20260808, &schedule));
  schedule.crashes.clear();  // replica death is FailoverReroutes' job
  FaultInjectingTransport chaos(&inner, schedule);

  {
    FleetRouterConfig config;
    config.default_deadline_ms = 20000;
    config.retry_period_ms = 80;
    FleetHarness fleet(3, config, &chaos);
    fleet.Start();
    ASSERT_TRUE(fleet.router->Push("m", SerializeForest(forest)).ok());

    std::vector<std::future<Result<FleetBatchResult>>> futures;
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      futures.push_back(fleet.router->Predict("m", table, row));
    }
    size_t served = 0;
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      Result<FleetBatchResult> result = futures[row].get();
      // Every accepted request either returns the byte-identical
      // prediction or is counted as shed — never a wrong answer.
      if (result.ok()) {
        EXPECT_EQ(result->labels[0], reference[row]) << "row " << row;
        ++served;
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      }
    }
    const FleetStatus status = fleet.router->GetStatus();
    EXPECT_EQ(served + status.shed, table.num_rows());
    EXPECT_GT(served, table.num_rows() / 2);  // chaos, not an outage
  }
  chaos.Stop();
}

}  // namespace
}  // namespace treeserver
