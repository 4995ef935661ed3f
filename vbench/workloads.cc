#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "exec/transitive_closure.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"

namespace prisma::vbench {

namespace {

using core::MachineConfig;
using core::PrismaDb;
using sim::kNanosPerSecond;
using sim::SimTime;

constexpr int kPes = 8;
constexpr int kFragments = 8;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 3;
/// Every run must record at least this many answered, measured
/// statements, so at least ten lie beyond p99.
constexpr size_t kMinSamples = 1000;
/// Measured arrivals the open-loop workloads aim for, far above the
/// minimum, so p99 rests on a hundred or more tail samples. serve_mix
/// needs the most: its tail mixes four statement kinds.
constexpr double kServeMixTarget = 30 * kMinSamples;
constexpr double kPointLookupTarget = 10 * kMinSamples;
/// A traced run hands its spans to the sink and clears the tracer once
/// this many events have piled up, so trace memory stays bounded.
constexpr size_t kTraceChunkEvents = 100'000;
constexpr SimTime kWarmupNs = kNanosPerSecond;
/// Trace thread ids of the benchmark's own statement spans (session
/// offset), clear of every POOL-X process id.
constexpr int64_t kStmtTidBase = 1'000'000;

// --- serve_mix / point_lookup ---------------------------------------------

constexpr int kItemRows = 2000;
constexpr int kSessions = 400;
/// A third of the mix's knee: the median then sits on the plateau of
/// unqueued reads. At 60 qps it sat where reads start to queue behind
/// GDH disk forces and swung by 10% between seeds.
constexpr double kServeMixQps = 30;
constexpr double kPointLookupQps = 1000;
constexpr int kHotKeys = 128;

// --- analytic_suite --------------------------------------------------------

constexpr int kLineitems = 12000;
constexpr int kOrders = 3000;
constexpr int kCustomers = 600;
constexpr int kForestNodes = 1000;

const char* kShipmodes[] = {"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"};
const char* kStatuses[] = {"F", "O", "P"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-LOW"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "MACHINERY"};
const char* kNations[] = {"BRAZIL", "CANADA", "FRANCE", "JAPAN", "KENYA"};

struct AnalyticQuery {
  const char* name;
  const char* kind;
  bool prismalog;
  const char* text;
};

/// TPC-H-lite q1-q8 (the bench_tpch_lite suite) and the PRISMAlog
/// ancestor closure, with the statement kind each is reported under.
const AnalyticQuery kAnalyticQueries[] = {
    {"q1", "group_by", false,
     "SELECT l_status, COUNT(*) AS n, SUM(l_quantity) AS qty, "
     "SUM(l_price) AS price, AVG(l_price) AS mean_price "
     "FROM lineitem GROUP BY l_status ORDER BY l_status"},
    {"q2", "group_by", false,
     "SELECT l_shipmode, COUNT(*) AS n, SUM(l_price) AS price FROM lineitem "
     "WHERE l_quantity >= 25 GROUP BY l_shipmode ORDER BY l_shipmode"},
    {"q3", "group_by", false,
     "SELECT o_priority, COUNT(*) AS n FROM orders "
     "GROUP BY o_priority ORDER BY o_priority"},
    {"q4", "group_by", false,
     "SELECT c_nation, COUNT(*) AS n FROM customer "
     "GROUP BY c_nation ORDER BY c_nation"},
    {"q5", "sort", false,
     "SELECT l_orderkey, l_price FROM lineitem "
     "ORDER BY l_price DESC, l_orderkey"},
    {"q6", "sort", false,
     "SELECT o_orderkey, o_total FROM orders "
     "ORDER BY o_total DESC, o_orderkey LIMIT 10"},
    {"q7", "group_by", false,
     "SELECT SUM(l_price) AS revenue, COUNT(*) AS n FROM lineitem "
     "WHERE l_discount >= 5 AND l_quantity < 30"},
    {"q8", "join_group_by", false,
     "SELECT c_segment, SUM(o_total) AS total FROM orders o "
     "JOIN customer c ON o.o_custkey = c.c_custkey "
     "GROUP BY c_segment ORDER BY c_segment"},
    {"closure", "recursive", true,
     "p(X, Y) :- edge(X, Y).\n"
     "p(X, Z) :- edge(X, Y), p(Y, Z).\n"
     "? p(X, Y)."},
};
constexpr size_t kNumAnalytic = sizeof(kAnalyticQueries) /
                                sizeof(kAnalyticQueries[0]);

size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Independent sub-stream of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + 1;
}

template <typename T>
void Shuffle(std::vector<T>& items, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Uniform(i)]);
  }
}

std::string Rendered(const std::vector<Tuple>& tuples, bool sorted) {
  std::vector<std::string> lines;
  lines.reserve(tuples.size());
  for (const Tuple& t : tuples) lines.push_back(t.ToString());
  if (sorted) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Runs one set-up statement; a failure is recorded, not thrown.
void Exec(PrismaDb& db, const std::string& sql,
          std::vector<std::string>* errors) {
  auto result = db.Execute(sql);
  if (!result.ok()) {
    errors->push_back("set-up statement failed: " + sql.substr(0, 80) +
                      " -> " + result.status().ToString());
  }
}

/// Inserts pre-rendered "(...)" rows in statements of `batch` rows.
void InsertRows(PrismaDb& db, const std::string& table,
                const std::vector<std::string>& rows, size_t batch,
                std::vector<std::string>* errors) {
  for (size_t i = 0; i < rows.size(); i += batch) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t j = i; j < rows.size() && j < i + batch; ++j) {
      if (j > i) sql += ", ";
      sql += rows[j];
    }
    Exec(db, sql, errors);
  }
}

std::string Fragmented(const char* key, int fragments) {
  if (fragments <= 1) return "";
  return StrFormat(" FRAGMENTED BY HASH(%s) INTO %d FRAGMENTS", key, fragments);
}

/// The serving schema of serve::WorkloadGenerator::SetupSchema —
/// item(id, grp = id % 8, v = id % 100) hash-fragmented 8 ways and the
/// 8-row grp_dim — with the item rows inserted in a seeded order, so the
/// set-up's virtual cost is a property of the seed, like every input.
void LoadItems(PrismaDb& db, uint64_t order_seed,
               std::vector<std::string>* errors) {
  Exec(db,
       "CREATE TABLE item (id INT, grp INT, v INT)" +
           Fragmented("id", kFragments),
       errors);
  Exec(db, "CREATE TABLE grp_dim (grp INT, name STRING)", errors);
  static const char* kGroupNames[] = {"alpha", "bravo", "charlie", "delta",
                                      "echo",  "foxtrot", "golf",  "hotel"};
  std::vector<std::string> dims;
  for (int g = 0; g < 8; ++g) {
    dims.push_back(StrFormat("(%d, '%s')", g, kGroupNames[g]));
  }
  InsertRows(db, "grp_dim", dims, 1, errors);
  std::vector<int> ids(kItemRows);
  for (int id = 0; id < kItemRows; ++id) ids[id] = id;
  Shuffle(ids, order_seed);
  std::vector<std::string> rows;
  for (const int id : ids) {
    rows.push_back(StrFormat("(%d, %d, %d)", id, id % 8, id % 100));
  }
  InsertRows(db, "item", rows, 200, errors);
}

struct AnalyticData {
  std::vector<std::string> lineitem;
  std::vector<std::string> orders;
  std::vector<std::string> customer;
  std::vector<std::pair<int, int>> edges;
};

/// TPC-H-lite rows at 10x the bench_tpch_lite scale and a random forest
/// (every node but the root hangs off an earlier node), all from `seed`.
AnalyticData MakeAnalyticData(uint64_t seed) {
  AnalyticData data;
  Rng rng(seed);
  for (int i = 0; i < kLineitems; ++i) {
    data.lineitem.push_back(StrFormat(
        "(%d, %d, %d, %d, %d, '%s', '%s')", i % kOrders,
        static_cast<int>(rng.UniformInt(0, 200)),
        static_cast<int>(rng.UniformInt(1, 50)),
        static_cast<int>(rng.UniformInt(100, 10000)),
        static_cast<int>(rng.UniformInt(0, 10)),
        kShipmodes[rng.UniformInt(0, 4)], kStatuses[rng.UniformInt(0, 2)]));
  }
  for (int i = 0; i < kOrders; ++i) {
    data.orders.push_back(StrFormat(
        "(%d, %d, '%s', %d, '%s')", i,
        static_cast<int>(rng.UniformInt(0, kCustomers - 1)),
        kStatuses[rng.UniformInt(0, 2)],
        static_cast<int>(rng.UniformInt(1000, 100000)),
        kPriorities[rng.UniformInt(0, 3)]));
  }
  for (int i = 0; i < kCustomers; ++i) {
    data.customer.push_back(StrFormat("(%d, 'customer%d', '%s', '%s')", i, i,
                                      kSegments[rng.UniformInt(0, 2)],
                                      kNations[rng.UniformInt(0, 4)]));
  }
  for (int i = 1; i < kForestNodes; ++i) {
    data.edges.push_back({static_cast<int>(rng.Uniform(i)), i});
  }
  return data;
}

/// Loads the analytic tables; `fragments` <= 1 builds the unfragmented
/// reference. Rows go in a seeded order (see LoadItems).
void LoadAnalytic(PrismaDb& db, const AnalyticData& data, int fragments,
                  uint64_t order_seed, std::vector<std::string>* errors) {
  Exec(db,
       "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, "
       "l_quantity INT, l_price INT, l_discount INT, l_shipmode STRING, "
       "l_status STRING)" + Fragmented("l_orderkey", fragments),
       errors);
  Exec(db,
       "CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_status STRING, "
       "o_total INT, o_priority STRING)" + Fragmented("o_orderkey", fragments),
       errors);
  Exec(db,
       "CREATE TABLE customer (c_custkey INT, c_name STRING, "
       "c_segment STRING, c_nation STRING)" +
           Fragmented("c_custkey", fragments),
       errors);
  Exec(db,
       "CREATE TABLE edge (src INT, dst INT)" + Fragmented("src", fragments),
       errors);
  uint64_t stream = 0;
  for (auto [table, rows] :
       {std::pair{"lineitem", data.lineitem}, std::pair{"orders", data.orders},
        std::pair{"customer", data.customer}}) {
    Shuffle(rows, SubSeed(order_seed, ++stream));
    InsertRows(db, table, rows, 100, errors);
  }
  std::vector<std::string> edges;
  for (const auto& [from, to] : data.edges) {
    edges.push_back(StrFormat("(%d, %d)", from, to));
  }
  Shuffle(edges, SubSeed(order_seed, ++stream));
  InsertRows(db, "edge", edges, 200, errors);
}

/// The 8-PE machine with default costs. `gather_analytics` runs group-by
/// and join on the coordinator-gather path (partial aggregates are still
/// pushed into the fragments) instead of through exchange consumers:
/// serve_mix needs it, because a tuple batch that reaches a consumer
/// before the consumer's OnStart is dropped without an ack, and the
/// producer stalls until its 10 s retransmission (README.md, "Known
/// machine bug"). analytic_suite keeps the exchange layer.
MachineConfig Machine(bool gather_analytics) {
  MachineConfig config;
  config.pes = kPes;
  if (gather_analytics) {
    config.rules.distributed_olap = false;
    config.rules.exchange_joins = false;
  }
  return config;
}

/// Machine counters the per-layer figures are differences of.
std::map<std::string, double> ReadCounters(PrismaDb& db) {
  std::map<std::string, double> c;
  for (const char* name :
       {"gdh.statements", "gdh.2pc_rounds", "gdh.rpc_retries",
        "ofm.tuples_scanned", "ofm.index_selections", "ofm.full_scans",
        "ofm.wal_records", "net.link_bits", "net.backpressure",
        "exchange.stalls", "exchange.wire_bits", "exchange.retransmits",
        "olap.shuffle_bits", "olap.gather_bits", "query.tuples_gathered",
        "fixpoint.retransmits", "pool.handlers_executed", "pool.mail_bits"}) {
    c[name] = static_cast<double>(db.metrics().CounterTotal(name));
  }
  c["plan_cache.hits"] = static_cast<double>(db.plan_cache().hits());
  c["plan_cache.misses"] = static_cast<double>(db.plan_cache().misses());
  c["lock.waits"] = static_cast<double>(db.gdh().locks().waits());
  c["gdh.forces"] = static_cast<double>(
      db.stable_store(0).ReadStream("gdh.2pc").size() +
      db.stable_store(0).ReadStream("gdh.txnids").size());
  c["sim.events"] = static_cast<double>(db.simulator().events_executed());
  c["sim.cancelled"] = static_cast<double>(db.simulator().events_cancelled());
  for (int pe = 0; pe < kPes; ++pe) {
    c["busy." + std::to_string(pe)] = static_cast<double>(db.PeBusyNs(pe));
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer figures of the run: counter differences over the run phase,
/// each normalised by the base its name states.
void FillLayer(PrismaDb& db, const std::map<std::string, double>& before,
               RunResult* out) {
  std::map<std::string, double> after = ReadCounters(db);
  auto d = [&](const std::string& key) { return after[key] - before.at(key); };
  double stmts = 0;
  double writes = 0;
  double rows = 0;
  int64_t last_reply = 0;
  for (const StmtRecord& s : out->stmts) {
    if (s.shed) continue;
    stmts += 1;
    rows += static_cast<double>(s.rows);
    if (s.kind == "point_write" && s.ok) writes += 1;
    last_reply = std::max(last_reply, s.reply_ns);
  }
  const double run_start = static_cast<double>(
      out->stmts.empty() ? 0 : out->stmts.front().arrival_ns);
  const double span_ns = static_cast<double>(last_reply) - run_start;
  auto add = [out](const char* name, double value, const char* unit) {
    out->layer.push_back({name, value, unit});
  };
  const double lookups = d("plan_cache.hits") + d("plan_cache.misses");
  add("gdh.plan_cache.hit_rate", Ratio(d("plan_cache.hits"), lookups), "frac");
  add("gdh.pe0_busy_frac", Ratio(d("busy.0"), span_ns), "frac");
  // Every statement here is an autocommit transaction with its own id.
  add("gdh.forces_per_txn", Ratio(d("gdh.forces"), d("gdh.statements")),
      "1/txn");
  add("gdh.lock_waits_per_stmt", Ratio(d("lock.waits"), stmts), "1/stmt");
  add("gdh.2pc_rounds_per_write", Ratio(d("gdh.2pc_rounds"), writes),
      "1/write");
  add("ofm.tuples_scanned_per_row_returned",
      Ratio(d("ofm.tuples_scanned"), rows), "ratio");
  add("ofm.index_selections_per_stmt", Ratio(d("ofm.index_selections"), stmts),
      "1/stmt");
  add("ofm.full_scans_per_stmt", Ratio(d("ofm.full_scans"), stmts), "1/stmt");
  add("ofm.wal_records_per_write", Ratio(d("ofm.wal_records"), writes),
      "1/write");
  add("net.link_bits_per_stmt", Ratio(d("net.link_bits"), stmts), "bit/stmt");
  add("net.backpressure_per_stmt", Ratio(d("net.backpressure"), stmts),
      "1/stmt");
  add("exchange.stalls_per_stmt", Ratio(d("exchange.stalls"), stmts),
      "1/stmt");
  add("exchange.wire_bits_per_stmt", Ratio(d("exchange.wire_bits"), stmts),
      "bit/stmt");
  add("olap.shuffle_bits_per_stmt", Ratio(d("olap.shuffle_bits"), stmts),
      "bit/stmt");
  add("olap.gather_bits_per_stmt", Ratio(d("olap.gather_bits"), stmts),
      "bit/stmt");
  add("query.tuples_gathered_per_stmt",
      Ratio(d("query.tuples_gathered"), stmts), "1/stmt");
  // The last distributed fixpoint's figures (every closure in a run is
  // the same statement over the same edges).
  add("fixpoint.rounds",
      static_cast<double>(db.metrics().GaugeValue("fixpoint.last_rounds")),
      "count");
  add("fixpoint.delta_tuples",
      static_cast<double>(
          db.metrics().GaugeValue("fixpoint.last_delta_tuples")),
      "count");
  add("fixpoint.wire_bits",
      static_cast<double>(db.metrics().GaugeValue("fixpoint.last_wire_bits")),
      "bit");
  double busy_max = 0;
  double busy_sum = 0;
  for (int pe = 1; pe < kPes; ++pe) {
    const double frac = Ratio(d("busy." + std::to_string(pe)), span_ns);
    busy_max = std::max(busy_max, frac);
    busy_sum += frac;
  }
  add("pool.ofm_busy_frac.max", busy_max, "frac");
  add("pool.ofm_busy_frac.mean", busy_sum / (kPes - 1), "frac");
  add("pool.handlers_per_stmt", Ratio(d("pool.handlers_executed"), stmts),
      "1/stmt");
  add("pool.mail_bits_per_stmt", Ratio(d("pool.mail_bits"), stmts),
      "bit/stmt");
  add("sim.events_per_stmt", Ratio(d("sim.events"), stmts), "1/stmt");
  add("sim.drain_tail_ms",
      static_cast<double>(db.simulator().now() - last_reply) / 1e6, "ms");
  add("sim.events_cancelled", d("sim.cancelled"), "count");
  out->sim_events = static_cast<uint64_t>(d("sim.events"));

  // Fault-free invariants: nothing was retransmitted or retried, and the
  // machine is quiet once Run() returns.
  for (const char* name :
       {"exchange.retransmits", "fixpoint.retransmits", "gdh.rpc_retries"}) {
    if (d(name) != 0) {
      out->errors.push_back(StrFormat("%s = %.0f on a fault-free machine",
                                      name, d(name)));
    }
  }
  if (db.simulator().pending() != 0) {
    out->errors.push_back(StrFormat("%zu events pending after Run()",
                                    db.simulator().pending()));
  }
}

/// Admission figures: the dispatcher's, or a closed loop's one client.
void AddAdmission(size_t peak_queue, size_t peak_in_flight,
                  uint64_t sheds_entered, RunResult* out) {
  out->layer.push_back(
      {"serve.peak_queue", static_cast<double>(peak_queue), "count"});
  out->layer.push_back(
      {"serve.peak_in_flight", static_cast<double>(peak_in_flight), "count"});
  out->layer.push_back(
      {"serve.sheds_entered", static_cast<double>(sheds_entered), "count"});
}

size_t PeMemHighWater(PrismaDb& db) {
  size_t high = 0;
  for (int pe = 0; pe < kPes; ++pe) {
    high = std::max(high, db.memory_tracker(pe).high_water());
  }
  return high;
}

/// Builds `kSetups` machines with `load`, each with its own load order,
/// timing every set-up; returns the first, on which the workload runs.
template <typename Load>
std::unique_ptr<PrismaDb> SetUp(uint64_t seed, const MachineConfig& config,
                                RunResult* out, Load load) {
  std::unique_ptr<PrismaDb> kept;
  for (int k = 0; k < kSetups; ++k) {
    const double host0 = HostSeconds();
    auto db = std::make_unique<PrismaDb>(config);
    const SimTime virt0 = db->simulator().now();
    load(*db, SubSeed(seed, 100 + k));
    out->setup_virtual_s.push_back(
        static_cast<double>(db->simulator().now() - virt0) / 1e9);
    out->setup_host_s.push_back(HostSeconds() - host0);
    if (k == 0) kept = std::move(db);
  }
  return kept;
}

/// Hands everything the tracer recorded to the run's sink and clears it.
void FlushTrace(PrismaDb& db, const RunOptions& options) {
  if (!db.tracer().enabled() || !options.trace_sink) return;
  options.trace_sink(db.DumpTrace());
  db.tracer().Clear();
}

/// Traced runs: records the statement's spans — "stmt" from arrival to
/// reply enclosing "db" from submission to reply, both tagged with the
/// statement's index — and flushes the tracer every kTraceChunkEvents.
void TraceReply(PrismaDb& db, const RunOptions& options, const StmtRecord& r,
                size_t index) {
  if (!db.tracer().enabled()) return;
  const std::string id = std::to_string(index);
  const int64_t tid = kStmtTidBase + r.session;
  db.tracer().Span("bench", "stmt", r.arrival_ns, r.reply_ns, 0, tid, "stmt",
                   id);
  db.tracer().Span("bench", "db", r.submit_ns, r.reply_ns, 0, tid, "stmt", id);
  if (db.tracer().num_events() >= kTraceChunkEvents) FlushTrace(db, options);
}

/// Checks one reply of the serving workloads against its expected shape.
void CheckServingReply(const std::string& workload, const std::string& kind,
                       const std::string& sql, const gdh::ClientReply& reply,
                       std::vector<std::string>* errors) {
  if (!reply.status.ok()) return;  // Counted, and fatal, elsewhere.
  const size_t rows = reply.tuples ? reply.tuples->size() : 0;
  bool good = true;
  if (kind == "point_read") {
    good = rows == 1;
    if (good && workload == "point_lookup") {
      const long id =
          std::strtol(sql.c_str() + sql.rfind('=') + 1, nullptr, 10);
      const Value& v = reply.tuples->at(0).at(0);
      good = !v.is_null() && v.int_value() == id % 100;
    }
  } else if (kind == "point_write") {
    good = reply.affected_rows == 1;
  } else {
    good = rows == 8;  // One row per grp / grp_dim name.
  }
  if (!good && errors->size() < 10) {
    errors->push_back("wrong answer to '" + sql + "': " +
                      std::to_string(rows) + " rows, " +
                      std::to_string(reply.affected_rows) + " affected");
  }
}

/// serve_mix and point_lookup: open-loop sessions through the dispatcher.
void RunServing(const RunOptions& options, RunResult* out) {
  const bool mix = options.workload == "serve_mix";
  std::unique_ptr<PrismaDb> db = SetUp(
      options.seed, Machine(/*gather_analytics=*/mix), out,
      [out](PrismaDb& db, uint64_t order) {
        LoadItems(db, order, &out->errors);
      });
  out->gdh_pid = db->gdh().self();

  serve::WorkloadProfile profile;
  profile.sessions = kSessions;
  profile.offered_qps = mix ? kServeMixQps : kPointLookupQps;
  if (mix) {
    profile.key_domain = kItemRows;  // Uniform over every id.
  } else {
    profile.mix = {1.0, 0, 0, 0};
    profile.key_domain = kHotKeys;   // Hot set well inside the plan cache.
  }
  // At least --seconds of measurement, and long enough for the offered
  // rate to give the workload's target number of arrivals.
  const double needed_s =
      (mix ? kServeMixTarget : kPointLookupTarget) / profile.offered_qps;
  const double window_s =
      std::max(static_cast<double>(options.seconds), needed_s);
  profile.duration_ns =
      kWarmupNs + static_cast<SimTime>(window_s * kNanosPerSecond);
  const std::vector<serve::ArrivalEvent> schedule =
      serve::WorkloadGenerator(SubSeed(options.seed, 1), profile).Generate();

  if (options.traced) db->tracer().set_enabled(true);
  const std::map<std::string, double> before = ReadCounters(*db);
  // Admission keeps its queue and in-flight cap, but not the backlog
  // watermark: one join+group-by fan-out crosses it at any offered rate,
  // and the workloads must answer every statement.
  serve::DispatcherOptions admission;
  admission.backlog_high = std::numeric_limits<int>::max();
  admission.backlog_low = std::numeric_limits<int>::max();
  serve::Dispatcher dispatcher(db.get(), admission);
  const SimTime start = db->simulator().now();
  out->window_start_ns = start + kWarmupNs;
  out->stmts.resize(schedule.size());
  const double host0 = HostSeconds();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const serve::ArrivalEvent& event = schedule[i];
    StmtRecord& rec = out->stmts[i];
    rec.kind = rec.label = serve::QueryKindName(event.kind);
    rec.session = event.session;
    rec.arrival_ns = start + event.at_ns;
    rec.measured = event.at_ns >= kWarmupNs;
    out->sql_texts.push_back(event.sql);
    dispatcher.Submit(
        event.sql, exec::kAutoCommit,
        [&, i](const gdh::ClientReply& reply, SimTime response_ns) {
          StmtRecord& r = out->stmts[i];
          r.reply_ns = db->simulator().now();
          r.submit_ns = r.reply_ns - response_ns;
          r.ok = reply.status.ok();
          r.shed = reply.status.code() == StatusCode::kOverloaded;
          r.unavailable = reply.status.code() == StatusCode::kUnavailable;
          r.rows = reply.tuples ? reply.tuples->size() : 0;
          CheckServingReply(options.workload, r.kind, schedule[i].sql, reply,
                            &out->errors);
          if (!r.shed) TraceReply(*db, options, r, i);
        },
        event.at_ns);
  }
  dispatcher.Run();
  out->run_host_s = HostSeconds() - host0;

  const serve::Dispatcher::Stats& stats = dispatcher.stats();
  if (stats.submitted != stats.completed + stats.shed ||
      stats.submitted != schedule.size()) {
    out->errors.push_back(StrFormat(
        "hang: %llu submitted, %llu completed, %llu shed",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.shed)));
  }
  for (const StmtRecord& r : out->stmts) {
    if (r.measured && r.ok) {
      out->window_end_ns = std::max(out->window_end_ns, r.reply_ns);
    }
  }
  FillLayer(*db, before, out);
  AddAdmission(stats.peak_queue, stats.peak_in_flight, stats.sheds_entered,
               out);
  out->pe_mem_high_water_bytes = PeMemHighWater(*db);
  out->host_heap_bytes = HeapInUse();
  FlushTrace(*db, options);
  db->tracer().set_enabled(false);

  if (mix) {
    // Every acknowledged write is visible: SUM(v) is the loaded sum plus
    // one per answered UPDATE.
    int64_t writes = 0;
    for (const StmtRecord& r : out->stmts) {
      if (r.kind == "point_write" && r.ok) ++writes;
    }
    int64_t loaded = 0;
    for (int id = 0; id < kItemRows; ++id) loaded += id % 100;
    auto sum = db->Execute("SELECT SUM(v) FROM item");
    if (!sum.ok() || sum->tuples.size() != 1 ||
        sum->tuples[0].at(0).int_value() != loaded + writes) {
      out->errors.push_back(StrFormat(
          "SUM(v) after the run is %s, expected %lld",
          sum.ok() && !sum->tuples.empty()
              ? sum->tuples[0].ToString().c_str()
              : sum.status().ToString().c_str(),
          static_cast<long long>(loaded + writes)));
    }
  }
}

/// analytic_suite: one closed-loop client repeating q1-q8 + closure.
void RunAnalytic(const RunOptions& options, RunResult* out) {
  const AnalyticData data = MakeAnalyticData(SubSeed(options.seed, 2));

  // Reference answers: a single-fragment machine, and the closure from
  // the single-node operator.
  std::vector<std::string> reference(kNumAnalytic);
  {
    MachineConfig config;
    config.pes = 2;
    PrismaDb ref(config);
    LoadAnalytic(ref, data, /*fragments=*/1, SubSeed(options.seed, 3),
                 &out->errors);
    for (size_t q = 0; q < kNumAnalytic; ++q) {
      const AnalyticQuery& query = kAnalyticQueries[q];
      auto result = query.prismalog ? ref.ExecutePrismalog(query.text)
                                    : ref.Execute(query.text);
      if (!result.ok()) {
        out->errors.push_back(std::string("reference ") + query.name + ": " +
                              result.status().ToString());
        return;
      }
      reference[q] = Rendered(result->tuples, query.prismalog);
    }
    std::vector<Tuple> edges;
    for (const auto& [from, to] : data.edges) {
      Tuple t;
      t.Append(Value::Int(from));
      t.Append(Value::Int(to));
      edges.push_back(std::move(t));
    }
    auto closure =
        exec::TransitiveClosure(edges, exec::TcAlgorithm::kSeminaive);
    if (!closure.ok() ||
        Rendered(*closure, true) != reference[kNumAnalytic - 1]) {
      out->errors.push_back(
          "reference machine's closure differs from exec::TransitiveClosure");
    }
  }

  std::unique_ptr<PrismaDb> db = SetUp(
      options.seed, Machine(/*gather_analytics=*/false), out,
      [&](PrismaDb& db, uint64_t order) {
        LoadAnalytic(db, data, kFragments, order, &out->errors);
      });
  out->gdh_pid = db->gdh().self();
  for (const AnalyticQuery& q : kAnalyticQueries) {
    if (!q.prismalog) out->sql_texts.push_back(q.text);
  }
  if (options.traced) db->tracer().set_enabled(true);
  const std::map<std::string, double> before = ReadCounters(*db);

  // Pass 0 is the warm-up (plan cache, first-touch); passes continue
  // until both kMinSamples measured answers and --seconds of virtual
  // time are reached. Each statement is sent when the previous reply
  // arrives, without draining the simulator in between.
  const SimTime min_window = options.seconds * kNanosPerSecond;
  size_t next = 0;
  size_t measured = 0;
  std::function<void()> submit_next = [&]() {
    const size_t pass = next / kNumAnalytic;
    const size_t q = next % kNumAnalytic;
    const SimTime now = db->simulator().now();
    if (q == 0 && pass == 1) out->window_start_ns = now;
    if (q == 0 && pass > 1 && measured >= kMinSamples &&
        now - out->window_start_ns >= min_window) {
      return;  // Done.
    }
    const size_t index = next++;
    const AnalyticQuery& query = kAnalyticQueries[q];
    StmtRecord rec;
    rec.kind = query.kind;
    rec.label = query.name;
    rec.arrival_ns = rec.submit_ns = now;
    rec.measured = pass >= 1;
    out->stmts.push_back(rec);
    db->Submit(
        query.text, query.prismalog, exec::kAutoCommit,
        [&, index, q](const gdh::ClientReply& reply, SimTime) {
          StmtRecord& r = out->stmts[index];
          r.reply_ns = db->simulator().now();
          r.ok = reply.status.ok();
          r.unavailable = reply.status.code() == StatusCode::kUnavailable;
          r.rows = reply.tuples ? reply.tuples->size() : 0;
          if (r.ok && r.measured) ++measured;
          const AnalyticQuery& query = kAnalyticQueries[q];
          if (r.ok && (reply.tuples == nullptr ||
                       Rendered(*reply.tuples, query.prismalog) !=
                           reference[q]) &&
              out->errors.size() < 10) {
            out->errors.push_back(std::string(query.name) +
                                  " diverged from the single-fragment "
                                  "reference");
          }
          TraceReply(*db, options, r, index);
          submit_next();  // May reallocate out->stmts; `r` is not used after.
        });
  };
  const double host0 = HostSeconds();
  submit_next();
  db->Run();
  out->run_host_s = HostSeconds() - host0;
  for (const StmtRecord& r : out->stmts) {
    if (r.measured && r.ok) {
      out->window_end_ns = std::max(out->window_end_ns, r.reply_ns);
    }
  }
  FillLayer(*db, before, out);
  AddAdmission(/*peak_queue=*/0, /*peak_in_flight=*/1, /*sheds_entered=*/0,
               out);
  out->pe_mem_high_water_bytes = PeMemHighWater(*db);
  out->host_heap_bytes = HeapInUse();
  FlushTrace(*db, options);
  db->tracer().set_enabled(false);
}

}  // namespace

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_mix", "point_lookup",
                                                 "analytic_suite"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult out;
  if (options.workload == "analytic_suite") {
    RunAnalytic(options, &out);
  } else {
    RunServing(options, &out);
  }
  // The workloads are sized so that nothing is refused or fails.
  size_t shed = 0;
  size_t unavailable = 0;
  size_t failed = 0;
  size_t samples = 0;
  for (const StmtRecord& r : out.stmts) {
    shed += r.shed ? 1 : 0;
    unavailable += r.unavailable ? 1 : 0;
    failed += r.ok || r.shed || r.unavailable ? 0 : 1;
    samples += r.ok && r.measured ? 1 : 0;
  }
  if (shed + unavailable + failed > 0) {
    out.errors.push_back(StrFormat(
        "of %zu statements %zu were shed, %zu unavailable, %zu failed",
        out.stmts.size(), shed, unavailable, failed));
  }
  if (samples < kMinSamples) {
    out.errors.push_back(StrFormat("only %zu measured answers, need %zu",
                                   samples, kMinSamples));
  }
  return out;
}

}  // namespace prisma::vbench
