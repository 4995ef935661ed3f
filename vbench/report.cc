#include "report.h"

#include <charconv>
#include <map>
#include <set>

#include "common/str_util.h"
#include "gdh/messages.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "stats.h"

namespace prisma::vbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// Latencies (ns) of the answered statements after the warm-up.
std::vector<int64_t> MeasuredLatencies(const RunResult& run) {
  std::vector<int64_t> out;
  for (const StmtRecord& s : run.stmts) {
    if (s.measured && s.ok) out.push_back(s.reply_ns - s.arrival_ns);
  }
  return out;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Process kind of a POOL-X process id, from the mail kinds its handler
/// spans name (the spans carry the pid, not the process's debug name).
/// Exchange consumers and OLAP merge processes both handle only
/// tuple_batch mail, so they share a group.
std::string ProcessGroup(const std::set<std::string>& kinds, int64_t pid,
                         int64_t gdh_pid) {
  using namespace gdh;  // The kMail* kinds.
  if (pid == gdh_pid) return "gdh";
  auto any = [&](std::initializer_list<const char*> names) {
    for (const char* n : names) {
      if (kinds.contains(n)) return true;
    }
    return false;
  };
  if (any({kMailClientReply})) return "client";
  if (any({kMailFixpointStart, kMailFixpointRound, kMailFixpointBatchResend,
           kMailFixpointVoteResend})) {
    return "fixpoint";
  }
  if (any({kMailLockBatchReply, kMailExecPlanReply, kMailFixpointVote,
           kMailFixpointCtrlResend, kMailStmtDoneResend, kMailQueryTimeout})) {
    return "coordinator";
  }
  if (any({kMailExecPlan, kMailWrite, kMailTxnControl, kMailCheckpoint,
           kMailCreateIndex, kMailShufflePlan, kMailDecisionReply,
           kMailDecisionRetry, kMailBatchAck, kMailBatchResend, kMailResync,
           kMailResyncDelta})) {
    return "ofm";
  }
  if (any({kMailTupleBatch, kMailExchangeReplyResend})) return "exchange_olap";
  return "other";
}

/// Host microseconds per statement of the SQL front end (parse plus the
/// plan-cache normalisation), over several passes of the run's texts.
std::vector<double> SqlParseMicros(const std::vector<std::string>& texts) {
  std::vector<double> per_pass;
  if (texts.empty()) return per_pass;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = HostSeconds();
    size_t ok = 0;
    for (const std::string& text : texts) {
      ok += sql::ParseSql(text).ok() ? 1 : 0;
      ok += sql::NormalizeStatement(text).ok() ? 1 : 0;
    }
    const double elapsed = HostSeconds() - t0;
    if (ok != 2 * texts.size()) return {};
    per_pass.push_back(elapsed * 1e6 / static_cast<double>(texts.size()));
  }
  return per_pass;
}

// --- Minimal reader for Tracer::DumpJson's flat event objects ----------

struct TraceEvent {
  std::string cat;
  std::string name;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
  int64_t pid = 0;
  int64_t tid = 0;
  std::string arg;  ///< Value of the single "args" entry, if any.
};

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}
  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        if (e == 'u') {
          if (pos_ + 4 > s_.size()) return false;
          c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
        } else {
          c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
        }
      }
      *out += c;
    }
    return Eat('"');
  }
  /// Fixed-point microseconds ("1234.567") to integer nanoseconds.
  bool Micros(int64_t* ns) {
    int64_t whole = 0;
    if (!Int(&whole) || !Eat('.')) return false;
    const size_t start = pos_;
    int64_t frac = 0;
    if (!Int(&frac) || pos_ - start != 3) return false;
    *ns = whole * 1000 + frac;
    return true;
  }
  bool Int(int64_t* out) {
    const char* first = s_.data() + pos_;
    auto [ptr, ec] = std::from_chars(first, s_.data() + s_.size(), *out);
    if (ec != std::errc()) return false;
    pos_ += static_cast<size_t>(ptr - first);
    return true;
  }
  bool Done() const { return pos_ == s_.size(); }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

bool ParseEvent(Reader& r, TraceEvent* e) {
  if (!r.Eat('{')) return false;
  bool first = true;
  std::string key;
  std::string value;
  while (!r.Eat('}')) {
    if (!first && !r.Eat(',')) return false;
    first = false;
    if (!r.String(&key) || !r.Eat(':')) return false;
    if (key == "ph" || key == "cat" || key == "name" || key == "s") {
      if (!r.String(&value)) return false;
      if (key == "cat") e->cat = value;
      if (key == "name") e->name = value;
    } else if (key == "ts") {
      if (!r.Micros(&e->ts_ns)) return false;
    } else if (key == "dur") {
      if (!r.Micros(&e->dur_ns)) return false;
    } else if (key == "pid") {
      if (!r.Int(&e->pid)) return false;
    } else if (key == "tid") {
      if (!r.Int(&e->tid)) return false;
    } else if (key == "args") {
      if (!r.Eat('{') || !r.String(&key) || !r.Eat(':') ||
          !r.String(&e->arg) || !r.Eat('}')) {
        return false;
      }
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string FormatNumber(double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

int64_t TraceSummary::Add(const std::string& json) {
  Reader r(json);
  std::string key;
  if (!r.Eat('{') || !r.String(&key) || key != "traceEvents" || !r.Eat(':') ||
      !r.Eat('[')) {
    return -1;
  }
  std::vector<SpanRec> stmt_spans;
  std::map<std::string, int> stmt_index;  // Statement id -> "stmt" span.
  std::vector<std::pair<std::string, SpanRec>> db_spans;
  int64_t count = 0;
  while (!r.Eat(']')) {
    if (count > 0 && !r.Eat(',')) return -1;
    TraceEvent e;
    if (!ParseEvent(r, &e)) return -1;
    ++count;
    if (e.cat == "pool") {
      Process& p = processes_[e.tid];
      p.kinds.insert(e.name);
      p.ns += e.dur_ns;
    } else if (e.cat == "net") {
      net_ns_ += e.dur_ns;
    } else if (e.cat == "gdh" && e.name.starts_with("2pc.")) {
      twopc_ns_ += e.dur_ns;
    } else if (e.cat == "bench" && e.name == "stmt") {
      stmt_index[e.arg] = static_cast<int>(stmt_spans.size());
      stmt_spans.push_back({e.ts_ns, e.ts_ns + e.dur_ns, -1});
    } else if (e.cat == "bench" && e.name == "db") {
      db_spans.push_back({e.arg, {e.ts_ns, e.ts_ns + e.dur_ns, -1}});
    }
  }
  if (!r.Eat('}') || !r.Done()) return -1;
  // A statement's two spans are recorded together, so they share a chunk.
  const size_t roots = stmt_spans.size();
  for (auto& [id, span] : db_spans) {
    auto it = stmt_index.find(id);
    span.parent = it == stmt_index.end() ? -1 : it->second;
    stmt_spans.push_back(span);
  }
  const std::vector<int64_t> self = SelfTimes(stmt_spans);
  for (size_t i = 0; i < roots; ++i) admission_ns_ += self[i];
  statements_ += static_cast<int64_t>(roots);
  events_ += count;
  return count;
}

std::map<std::string, int64_t> TraceSummary::GroupNs(int64_t gdh_pid) const {
  std::map<std::string, int64_t> out;
  for (const auto& [pid, p] : processes_) {
    out[ProcessGroup(p.kinds, pid, gdh_pid)] += p.ns;
  }
  return out;
}

std::vector<Metric> EndToEnd(const RunResult& run) {
  const std::vector<int64_t> latencies = MeasuredLatencies(run);
  const double window_s =
      static_cast<double>(run.window_end_ns - run.window_start_ns) / 1e9;
  return {
      {"p50_ms", Ms(NearestRank(latencies, 0.50)), "ms"},
      {"p99_ms", Ms(NearestRank(latencies, 0.99)), "ms"},
      {"answered_qps",
       window_s > 0 ? static_cast<double>(latencies.size()) / window_s : 0,
       "1/s"},
      {"setup_s", QuartilesOf(run.setup_virtual_s).median, "s"},
      {"host_heap_mb", static_cast<double>(run.host_heap_bytes) / kMiB, "MiB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& run, const RunResult& traced,
                             const TraceSummary& trace) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // Counts of what the run did.
  uint64_t answered = 0;
  uint64_t failed = 0;
  KindBuckets kinds;
  std::vector<int64_t> queue_wait;
  for (const StmtRecord& s : run.stmts) {
    failed += s.ok ? 0 : 1;
    if (!s.measured || !s.ok) continue;
    ++answered;
    kinds.Add(s.kind, s.reply_ns - s.arrival_ns);
    queue_wait.push_back(s.submit_ns - s.arrival_ns);
  }
  add("samples", static_cast<double>(answered), "count");
  add("fail_frac",
      run.stmts.empty() ? 0
                        : static_cast<double>(failed) /
                              static_cast<double>(run.stmts.size()),
      "frac");
  for (const std::string& kind : StatementKinds()) {
    add("p50_ms." + kind, Ms(kinds.P50(kind)), "ms");
  }
  add("pe_mem_mb", static_cast<double>(run.pe_mem_high_water_bytes) / kMiB,
      "MiB");

  // serve: admission queue (reply - arrival minus PrismaDb's response).
  add("serve.queue_wait_ms.p50", Ms(NearestRank(queue_wait, 0.50)), "ms");
  add("serve.queue_wait_ms.p99", Ms(NearestRank(queue_wait, 0.99)), "ms");
  // The machine's own figures, read after the run.
  out.insert(out.end(), run.layer.begin(), run.layer.end());

  // trace: virtual time per statement, from the traced run's spans.
  const double stmts = static_cast<double>(trace.statements());
  const std::map<std::string, int64_t> group_ns = trace.GroupNs(traced.gdh_pid);
  auto per_stmt_ms = [&](int64_t ns) {
    return stmts > 0 ? static_cast<double>(ns) / 1e6 / stmts : 0;
  };
  for (const char* group :
       {"gdh", "coordinator", "ofm", "exchange_olap", "fixpoint"}) {
    auto it = group_ns.find(group);
    add(std::string("trace.self_ms.") + group,
        per_stmt_ms(it == group_ns.end() ? 0 : it->second), "ms");
  }
  add("trace.net_ms", per_stmt_ms(trace.net_ns()), "ms");
  add("trace.2pc_ms", per_stmt_ms(trace.twopc_ns()), "ms");
  add("trace.admission_ms", per_stmt_ms(trace.admission_ns()), "ms");
  add("trace.events", static_cast<double>(trace.events()), "count");

  // host: informational, never part of the end-to-end set.
  const Quartiles setup = QuartilesOf(run.setup_host_s);
  add("host.setup_s", setup.median, "s");
  add("host.setup_s.q1", setup.q1, "s");
  add("host.setup_s.q3", setup.q3, "s");
  add("host.run_s", run.run_host_s, "s");
  add("host.us_per_stmt", stmts > 0 ? run.run_host_s * 1e6 / stmts : 0, "us");
  add("host.sim_events_per_s",
      run.run_host_s > 0 ? static_cast<double>(run.sim_events) / run.run_host_s
                         : 0,
      "1/s");
  const Quartiles parse = QuartilesOf(SqlParseMicros(run.sql_texts));
  add("host.sql_parse_us", parse.median, "us");
  add("host.sql_parse_us.q1", parse.q1, "us");
  add("host.sql_parse_us.q3", parse.q3, "us");
  add("host.trace_overhead", traced.run_host_s - run.run_host_s, "s");
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace prisma::vbench
