#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/prisma_db.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "storage/stable_store.h"

namespace prisma {
namespace {

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, CounterGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("test.counter");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(registry.CounterValue("test.counter"), 42u);
  EXPECT_EQ(registry.CounterValue("missing"), 0u);

  obs::Gauge* g = registry.GetGauge("test.gauge");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);
  EXPECT_EQ(registry.GaugeValue("test.gauge"), 4);
}

TEST(MetricsTest, GetIsIdempotentWithStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("c", {{"pe", "3"}});
  // Force map growth, then re-fetch: same instance.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(registry.GetCounter("c", {{"pe", "3"}}), a);
}

TEST(MetricsTest, CanonicalKeySortsLabels) {
  const obs::Labels ab = {{"a", "1"}, {"b", "2"}};
  const obs::Labels ba = {{"b", "2"}, {"a", "1"}};
  EXPECT_EQ(obs::MetricsRegistry::Key("m", ab),
            obs::MetricsRegistry::Key("m", ba));
  EXPECT_EQ(obs::MetricsRegistry::Key("m", ab), "m{a=1,b=2}");
  EXPECT_EQ(obs::MetricsRegistry::Key("m", {}), "m");
}

TEST(MetricsTest, CounterTotalSumsAcrossLabelSets) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ofm.scans", {{"fragment", "emp#0"}})->Increment(10);
  registry.GetCounter("ofm.scans", {{"fragment", "emp#1"}})->Increment(5);
  registry.GetCounter("ofm.scansuffix")->Increment(99);  // Different name.
  EXPECT_EQ(registry.CounterTotal("ofm.scans"), 15u);
}

TEST(MetricsTest, HistogramBucketsAndQuantiles) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.mean(), 50);
  // Quantiles are bucket upper bounds: deterministic, monotone.
  EXPECT_LE(h.ApproxQuantile(0.5), h.ApproxQuantile(0.99));
  EXPECT_GE(h.ApproxQuantile(0.99), 100);
}

TEST(MetricsTest, DumpTextIsSortedAndDeterministic) {
  auto fill = [](obs::MetricsRegistry* r) {
    r->GetCounter("z.last")->Increment(3);
    r->GetGauge("a.first")->Set(-5);
    r->GetHistogram("m.middle")->Record(1000);
    r->GetCounter("m.counter", {{"pe", "1"}})->Increment();
  };
  obs::MetricsRegistry r1, r2;
  fill(&r2);  // Insertion order differs from dump order.
  fill(&r1);
  const std::string text = r1.DumpText();
  EXPECT_EQ(text, r2.DumpText());
  EXPECT_EQ(r1.DumpJson(), r2.DumpJson());
  // Sorted by canonical key: gauge a.first before m.*, counter z.last last.
  EXPECT_LT(text.find("a.first"), text.find("m.counter"));
  EXPECT_LT(text.find("m.counter"), text.find("z.last"));
  EXPECT_NE(text.find("counter z.last 3"), std::string::npos);
  EXPECT_NE(text.find("gauge a.first -5"), std::string::npos);
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, DisabledRecordsNothing) {
  obs::Tracer tracer;
  tracer.Span("cat", "work", 0, 100, 1, 2);
  tracer.Instant("cat", "tick", 50, 1, 2);
  EXPECT_EQ(tracer.num_events(), 0u);
  EXPECT_EQ(tracer.DumpJson(), "{\"traceEvents\":[]}");
}

TEST(TracerTest, SpanAndInstantSerializeAsTraceEvents) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Span("pool", "handler", 1500, 3500, 2, 7, "kind", "exec_plan");
  tracer.Instant("net", "drop", 4000, 0, -1);
  ASSERT_EQ(tracer.num_events(), 2u);
  const std::string json = tracer.DumpJson();
  // Fixed-point microseconds from integer math: 1500ns -> 1.500us.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2,\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"kind\":\"exec_plan\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":-1"), std::string::npos);
}

TEST(TracerTest, EscapesJsonStrings) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.Instant("c", "quote\"back\\slash\nnewline", 0, 0, 0);
  const std::string json = tracer.DumpJson();
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"),
            std::string::npos);
}

// ----------------------------------------------------------- Query profile

TEST(QueryProfileTest, FormatNsIsCompactIntegerMath) {
  EXPECT_EQ(obs::FormatNs(875), "875ns");
  EXPECT_EQ(obs::FormatNs(12345), "12.345us");
  EXPECT_EQ(obs::FormatNs(3210000), "3.210ms");
  EXPECT_EQ(obs::FormatNs(1500000000), "1.500s");
}

TEST(QueryProfileTest, MergeSumsNodeWiseAndCountsInvocations) {
  obs::OperatorProfile a;
  a.op = "Select";
  a.rows = 10;
  a.bytes = 100;
  a.total_ns = 1000;
  a.children.push_back({"Scan(emp#0)", 50, 500, 0, 900, 1, {}});

  obs::OperatorProfile b = a;
  b.rows = 4;
  b.children[0].rows = 20;

  obs::MergeProfile(&a, b);
  EXPECT_EQ(a.rows, 14u);
  EXPECT_EQ(a.invocations, 2u);
  EXPECT_EQ(a.children[0].rows, 70u);
  EXPECT_EQ(a.children[0].total_ns, 1800);
}

TEST(QueryProfileTest, RenderShowsRowsAndTimes) {
  obs::OperatorProfile root;
  root.op = "Join";
  root.rows = 12;
  root.bytes = 480;
  root.total_ns = 5000;
  root.children.push_back({"Scan(a)", 6, 120, 0, 2000, 1, {}});
  root.children.push_back({"Scan(b)", 6, 120, 0, 1000, 1, {}});
  std::vector<std::string> lines;
  obs::RenderProfile(root, 0, &lines);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("Join rows=12 bytes=480"), std::string::npos);
  // Self time = 5000 - 2000 - 1000.
  EXPECT_NE(lines[0].find("self=2.000us"), std::string::npos);
  EXPECT_NE(lines[1].find("  Scan(a)"), std::string::npos);
}

// ------------------------------------------- End-to-end through the machine

core::MachineConfig SmallMachine(bool tracing = false) {
  core::MachineConfig config;
  config.pes = 8;
  config.enable_tracing = tracing;
  return config;
}

void LoadEmp(core::PrismaDb* db, int rows = 24) {
  ASSERT_TRUE(db->Execute("CREATE TABLE emp (id INT, dept STRING, salary "
                          "INT) FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS")
                  .ok());
  const char* depts[] = {"sales", "eng", "hr"};
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(db->Execute(StrFormat("INSERT INTO emp VALUES (%d, '%s', %d)",
                                      i, depts[i % 3], 1000 + i))
                    .ok());
  }
}

TEST(ObservabilityEndToEnd, ExplainAnalyzeReturnsPerOperatorProfile) {
  core::PrismaDb db(SmallMachine());
  LoadEmp(&db);
  auto result =
      db.Execute("EXPLAIN ANALYZE SELECT dept, COUNT(*) FROM emp "
                 "WHERE salary >= 1005 GROUP BY dept");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->schema.num_columns(), 1u);
  EXPECT_EQ(result->schema.column(0).name, "plan");
  std::string all;
  for (const Tuple& t : result->tuples) {
    all += t.at(0).string_value();
    all += '\n';
  }
  // Measured figures, not estimates: row counts and simulated ns.
  EXPECT_NE(all.find("global plan"), std::string::npos);
  EXPECT_NE(all.find("rows="), std::string::npos);
  EXPECT_NE(all.find("total="), std::string::npos);
  EXPECT_NE(all.find("part 0"), std::string::npos);
  // The fragment profiles were merged over 4 fragments.
  EXPECT_NE(all.find("x4"), std::string::npos);

  // Plain EXPLAIN still returns the unexecuted plan (no measurements).
  auto plain = db.Execute("EXPLAIN SELECT * FROM emp");
  ASSERT_TRUE(plain.ok());
  std::string plain_text;
  for (const Tuple& t : plain->tuples) plain_text += t.at(0).string_value();
  EXPECT_EQ(plain_text.find("rows="), std::string::npos);
}

/// Streamed parts report fragment profiles too: every shuffle producer's
/// settlement carries its fragment's operator profile under EXPLAIN
/// ANALYZE — one part of each kind (exchange join, OLAP group-by, sorted
/// runs) — and without ANALYZE a settlement stays control-sized. A
/// GROUP BY's part also reports its path and the q-error of the rows it
/// gathered.
TEST(ObservabilityEndToEnd, ExplainAnalyzeProfilesStreamedParts) {
  core::PrismaDb db(SmallMachine());
  LoadEmp(&db);
  // Fragmented on a non-key column: the join cannot run co-located.
  ASSERT_TRUE(db.Execute("CREATE TABLE dept (name STRING, floor INT) "
                         "FRAGMENTED BY HASH(floor) INTO 2 FRAGMENTS")
                  .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO dept VALUES ('sales', 1), ('eng', 2), "
                         "('hr', 3)")
                  .ok());
  auto analyze = [&db](const std::string& sql) {
    auto result = db.Execute("EXPLAIN ANALYZE " + sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::string all;
    if (result.ok()) {
      for (const Tuple& t : result->tuples) {
        all += t.at(0).string_value();
        all += '\n';
      }
    }
    EXPECT_EQ(all.find("no fragment profile"), std::string::npos) << all;
    EXPECT_EQ(all.find("no fragments executed"), std::string::npos) << all;
    return all;
  };

  const std::string join = analyze(
      "SELECT e.id, d.floor FROM emp e JOIN dept d ON e.dept = d.name");
  EXPECT_NE(join.find("exchange join emp x dept"), std::string::npos) << join;
  EXPECT_NE(join.find("producers ("), std::string::npos) << join;
  EXPECT_NE(join.find("Scan("), std::string::npos) << join;

  // Three depts: the partials are gathered, and ANALYZE sets the rows
  // that came in beside the estimate (exact: every fragment's sketch is).
  const std::string gathered =
      analyze("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept");
  EXPECT_NE(gathered.find("group-by path: gather partials, "),
            std::string::npos)
      << gathered;
  EXPECT_NE(gathered.find("estimated, q-error 1.00"), std::string::npos)
      << gathered;
  EXPECT_NE(gathered.find("x4"), std::string::npos) << gathered;

  // 200 groups, most in each of 8 fragments: the partials are shuffled
  // by key.
  std::string insert = "INSERT INTO sales VALUES ";
  for (int i = 0; i < 1600; ++i) {
    insert += StrFormat("%s(%d, %d, %d)", i > 0 ? ", " : "", i, i % 200, i);
  }
  ASSERT_TRUE(db.Execute("CREATE TABLE sales (id INT, g INT, v INT) "
                         "FRAGMENTED BY HASH(id) INTO 8 FRAGMENTS")
                  .ok());
  ASSERT_TRUE(db.Execute(insert).ok());
  const std::string grouped = analyze(
      "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM sales GROUP BY g");
  EXPECT_NE(grouped.find("olap group-by over sales"), std::string::npos)
      << grouped;
  EXPECT_NE(grouped.find("group-by path: pre-aggregate + shuffle-by-key, "
                         "200 row(s) gathered"),
            std::string::npos)
      << grouped;
  EXPECT_NE(grouped.find("Aggregate"), std::string::npos) << grouped;
  EXPECT_NE(grouped.find("x8"), std::string::npos) << grouped;

  const std::string sorted =
      analyze("SELECT id, salary FROM emp ORDER BY salary DESC, id");
  EXPECT_NE(sorted.find("sorted runs over emp, 4 fragment(s)"),
            std::string::npos)
      << sorted;
  EXPECT_NE(sorted.find("Sort rows=24"), std::string::npos) << sorted;
  EXPECT_NE(sorted.find("x4"), std::string::npos) << sorted;

  // Without ANALYZE the 4 run producers settle with control-sized replies.
  const obs::Labels kind = {{"kind", gdh::kMailExecPlanReply}};
  const uint64_t sent0 = db.metrics().CounterValue("pool.mail_sent", kind);
  const uint64_t bits0 = db.metrics().CounterValue("pool.mail_bits", kind);
  ASSERT_TRUE(
      db.Execute("SELECT id, salary FROM emp ORDER BY salary DESC, id").ok());
  EXPECT_EQ(db.metrics().CounterValue("pool.mail_sent", kind) - sent0, 4u);
  EXPECT_EQ(db.metrics().CounterValue("pool.mail_bits", kind) - bits0,
            4u * gdh::kControlBits);
}

TEST(ObservabilityEndToEnd, MetricsCoverEveryLayer) {
  core::PrismaDb db(SmallMachine());
  LoadEmp(&db);
  ASSERT_TRUE(db.Execute("SELECT * FROM emp WHERE salary > 1010").ok());
  obs::MetricsRegistry& m = db.metrics();
  // net: messages crossed links and were delivered.
  EXPECT_GT(m.CounterValue("net.messages_sent"), 0u);
  EXPECT_GT(m.CounterValue("net.messages_delivered"), 0u);
  const obs::Histogram* latency = m.FindHistogram("net.latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0u);
  // pool: handlers ran, PEs were charged.
  EXPECT_GT(m.CounterValue("pool.handlers_executed"), 0u);
  EXPECT_GT(m.CounterTotal("pe.cpu_ns"), 0u);
  EXPECT_GT(m.CounterValue("pool.mail_sent", {{"kind", "exec_plan"}}), 0u);
  // gdh: statements routed, coordinators spawned, 2PC ran for inserts.
  EXPECT_GT(m.CounterValue("gdh.statements"), 0u);
  EXPECT_GT(m.CounterValue("gdh.selects_spawned"), 0u);
  EXPECT_GT(m.CounterValue("gdh.txns_committed"), 0u);
  // ofm: fragments scanned tuples and wrote WAL records.
  EXPECT_GT(m.CounterTotal("ofm.tuples_scanned"), 0u);
  EXPECT_GT(m.CounterTotal("ofm.wal_records"), 0u);
  // Dump includes synced gauges and is non-trivial.
  const std::string text = db.DumpMetrics();
  EXPECT_NE(text.find("gauge sim.now_ns"), std::string::npos);
  EXPECT_NE(text.find("pe.busy_ns"), std::string::npos);
  EXPECT_NE(text.find("counter net.messages_sent"), std::string::npos);
}

TEST(ObservabilityEndToEnd, DiskForcesAreTracedAsIoNotHandlerCpu) {
  core::PrismaDb db(SmallMachine(/*tracing=*/true));
  LoadEmp(&db);
  // Single-fragment inserts commit in one phase at their OFM and log
  // nothing on the GDH's disk; inserts spanning fragments run 2PC, which
  // forces a C record there per commit.
  const uint64_t one_phase = db.metrics().CounterValue("gdh.one_phase_commits");
  for (int i = 0; i < 24; ++i) {
    std::string sql = "INSERT INTO emp VALUES ";
    for (int j = 0; j < 8; ++j) {
      sql += StrFormat("%s(%d, 'ops', %d)", j > 0 ? ", " : "",
                       100 + 8 * i + j, j);
    }
    ASSERT_TRUE(db.Execute(sql).ok());
  }
  ASSERT_EQ(db.metrics().CounterValue("gdh.one_phase_commits"), one_phase);
  obs::MetricsRegistry& m = db.metrics();
  // The GDH's disk (PE 0) took id reservations plus a C record per
  // multi-fragment commit (end records ride along); each physical write
  // is counted and traced.
  const uint64_t writes = m.CounterValue("disk.writes", {{"pe", "0"}});
  const auto access_ns =
      static_cast<uint64_t>(storage::DiskModel().access_ns);
  EXPECT_GT(writes, 24u);
  EXPECT_GE(m.CounterValue("disk.busy_ns", {{"pe", "0"}}), writes * access_ns);
  const obs::Histogram* records =
      m.FindHistogram("disk.records_per_write", {{"pe", "0"}});
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->count(), writes);
  const std::string trace = db.DumpTrace();
  EXPECT_NE(trace.find("\"name\":\"disk.write\""), std::string::npos);
  // None of that device time is CPU: PE 0 spent far less than one disk
  // access per write handling the statements.
  EXPECT_LT(m.CounterValue("pe.cpu_ns", {{"pe", "0"}}),
            writes * access_ns / 10);
}

TEST(ObservabilityEndToEnd, PerQueryScopedMetrics) {
  core::PrismaDb db(SmallMachine());
  LoadEmp(&db);
  uint64_t id = 0;
  bool replied = false;
  id = db.Submit("SELECT * FROM emp", /*prismalog=*/false, exec::kAutoCommit,
                 [&](const gdh::ClientReply&, sim::SimTime) {
                   replied = true;
                 });
  db.Run();
  ASSERT_TRUE(replied);
  const obs::Labels q = {{"query", std::to_string(id)}};
  EXPECT_EQ(db.metrics().CounterValue("query.tuples_gathered", q), 24u);
  EXPECT_GT(db.metrics().CounterValue("query.fragments_contacted", q), 0u);
  EXPECT_GT(db.metrics().GaugeValue("query.response_ns", q), 0);
}

/// query.response_ns is stamped when the coordinator hands its reply off;
/// query.delivered_ns when the client endpoint holds the last frame. For
/// a 1,200-row sort whose coordinator sits 4 hops from the client, the
/// difference is the delivery the old figure left out.
TEST(ObservabilityEndToEnd, DeliveryIsStampedAtTheClientOnTheLastFrame) {
  core::MachineConfig config;
  config.pes = 8;
  config.coordinator_pes = {7};
  core::PrismaDb db(config);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, v INT) FRAGMENTED BY "
                         "HASH(id) INTO 7 FRAGMENTS")
                  .ok());
  for (int i = 0; i < 1200; i += 200) {
    std::string sql = "INSERT INTO t VALUES ";
    for (int j = i; j < i + 200; ++j) {
      sql += StrFormat("%s(%d, %d)", j > i ? ", " : "", j, (j * 7) % 50);
    }
    ASSERT_TRUE(db.Execute(sql).ok());
  }
  const uint64_t frames0 = db.metrics().CounterValue("query.reply_frames");
  // The wire size of the train's last frame (one column frame).
  int64_t last_frame_bits = 0;
  db.runtime().SetMailTap([&](pool::Mail& mail) {
    if (mail.kind != gdh::kMailClientReply) return;
    const auto& reply =
        *std::any_cast<std::shared_ptr<gdh::ClientReply>>(mail.body);
    if (reply.last) last_frame_bits = reply.WireBits();
  });
  sim::SimTime latency = 0;
  const uint64_t id = db.Submit(
      "SELECT id, v FROM t ORDER BY v, id", /*prismalog=*/false,
      exec::kAutoCommit,
      [&](const gdh::ClientReply& reply, sim::SimTime ns) {
        EXPECT_TRUE(reply.status.ok());
        EXPECT_EQ(reply.tuples->size(), 1200u);
        latency = ns;
      });
  db.Run();
  db.runtime().SetMailTap(nullptr);
  ASSERT_GT(latency, 0);
  const obs::Labels q = {{"query", std::to_string(id)}};
  // 1,200 rows in 64-row frames, forwarded as the runs merge.
  EXPECT_EQ(db.metrics().CounterValue("query.reply_frames") - frames0, 19u);
  EXPECT_EQ(db.metrics().CounterValue("query.reply_streamed"), 1u);
  // The client's figure is the session's submit -> last-frame latency,
  // and it covers the coordinator's hand-off plus the last frame's 4 hops.
  EXPECT_EQ(db.metrics().GaugeValue("query.delivered_ns", q), latency);
  const int64_t handed_off = db.metrics().GaugeValue("query.response_ns", q);
  // The last frame holds the reference order's final 1200 % 64 = 48
  // rows; its size is computed here, not taken from the tap alone.
  std::vector<std::pair<int, int>> order;  // (v, id)
  for (int j = 0; j < 1200; ++j) order.emplace_back((j * 7) % 50, j);
  std::sort(order.begin(), order.end());
  std::vector<Tuple> tail;
  for (size_t r = order.size() - 1200 % 64; r < order.size(); ++r) {
    tail.push_back(
        Tuple({Value::Int(order[r].second), Value::Int(order[r].first)}));
  }
  const int64_t tail_bits =
      gdh::kControlBits + gdh::FrameBits(gdh::EncodeRows(tail));
  EXPECT_EQ(last_frame_bits, tail_bits);
  const int64_t frame_hop_ns =
      tail_bits * sim::kNanosPerSecond / config.link.bandwidth_bps;
  EXPECT_GT(latency, handed_off + 4 * frame_hop_ns);
}

std::vector<std::string> GoldenStatements() {
  return {
      "CREATE TABLE emp (id INT, dept STRING, salary INT) "
      "FRAGMENTED BY HASH(id) INTO 4 FRAGMENTS",
      "INSERT INTO emp VALUES (1, 'eng', 1000), (2, 'hr', 1200)",
      "INSERT INTO emp VALUES (3, 'eng', 1400)",
      "SELECT dept, SUM(salary) FROM emp GROUP BY dept",
      "SELECT * FROM emp WHERE id = 2",
  };
}

TEST(ObservabilityEndToEnd, TraceIsByteIdenticalAcrossSameSeedRuns) {
  auto run = [] {
    core::PrismaDb db(SmallMachine(/*tracing=*/true));
    for (const std::string& sql : GoldenStatements()) {
      auto r = db.Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    }
    return std::make_pair(db.DumpTrace(), db.DumpMetrics());
  };
  const auto [trace1, metrics1] = run();
  const auto [trace2, metrics2] = run();
  EXPECT_GT(trace1.size(), 2000u);  // Real content, not an empty shell.
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);
  // It is a trace_event document with the layers' categories present.
  EXPECT_EQ(trace1.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace1.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(trace1.find("\"cat\":\"pool\""), std::string::npos);
  EXPECT_NE(trace1.find("\"cat\":\"gdh\""), std::string::npos);
  EXPECT_NE(trace1.find("\"name\":\"2pc.prepare\""), std::string::npos);
}

TEST(ObservabilityEndToEnd, SameQueryTwiceYieldsIdenticalTraceSegments) {
  // The golden-query check: run one query, snapshot the trace, clear,
  // run the identical query again — the two segments must describe the
  // same work (same event count and structure; timestamps differ only by
  // the virtual start offset, so compare counts and names).
  core::PrismaDb db(SmallMachine(/*tracing=*/true));
  LoadEmp(&db, 12);
  db.tracer().Clear();
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM emp").ok());
  const size_t events_first = db.tracer().num_events();
  db.tracer().Clear();
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM emp").ok());
  EXPECT_EQ(db.tracer().num_events(), events_first);
  EXPECT_GT(events_first, 0u);
}

// -------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, ExactQuantilesOnKnownDistribution) {
  obs::LatencyHistogram h;
  // 1..1000 in scrambled order: nearest-rank quantiles are exact values,
  // not bucket boundaries.
  for (int64_t v = 1000; v >= 1; --v) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.sum(), 1000 * 1001 / 2);
  EXPECT_EQ(h.P50(), 500);
  EXPECT_EQ(h.P99(), 990);
  EXPECT_EQ(h.P999(), 999);
  EXPECT_EQ(h.Quantile(0.0), 1);
  EXPECT_EQ(h.Quantile(1.0), 1000);
}

TEST(LatencyHistogramTest, DuplicatesAndSmallCounts) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.P50(), 0);  // Empty histogram reads zero.
  h.Record(7);
  EXPECT_EQ(h.P50(), 7);
  EXPECT_EQ(h.P999(), 7);  // A single sample is every quantile.
  for (int i = 0; i < 9; ++i) h.Record(7);
  h.Record(100);
  // 10x value 7, 1x value 100: p50 is 7, only the extreme tail sees 100.
  EXPECT_EQ(h.P50(), 7);
  EXPECT_EQ(h.Quantile(10.0 / 11.0), 7);
  EXPECT_EQ(h.P999(), 100);
}

TEST(LatencyHistogramTest, MergeMatchesRecordingIntoOne) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  obs::LatencyHistogram all;
  for (int64_t v = 1; v <= 60; ++v) {
    ((v % 3 == 0) ? a : b).Record(v * 10);
    all.Record(v * 10);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.Quantile(q), all.Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(a.DumpLine(), all.DumpLine());
}

}  // namespace
}  // namespace prisma
