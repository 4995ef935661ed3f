#include "gdh/query_process.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "gdh/exchange_process.h"
#include "gdh/fixpoint_process.h"
#include "gdh/plan_cache.h"
#include "prismalog/engine.h"
#include "prismalog/parser.h"
#include "sql/binder.h"
#include "common/str_util.h"
#include "sql/normalize.h"
#include "sql/parser.h"

namespace prisma::gdh {

namespace {

/// Structural key of a local part, insensitive to schema qualifiers
/// ("a.cid" vs "b.cid") so that self-join sides compare equal: node kinds
/// plus positional predicate/projection text plus scan column types.
std::string PartShapeKey(const algebra::Plan& plan) {
  std::string out;
  const algebra::Plan* node = &plan;
  while (true) {
    out += algebra::PlanKindName(node->kind());
    if (node->kind() == algebra::PlanKind::kScan) {
      for (const Column& c : node->schema().columns()) {
        out += ':';
        out += DataTypeName(c.type);
      }
      return out;
    }
    if (node->kind() == algebra::PlanKind::kSelect) {
      out += '[';
      out += static_cast<const algebra::SelectPlan*>(node)
                 ->predicate()
                 .ToString();
      out += ']';
    } else if (node->kind() == algebra::PlanKind::kProject) {
      out += '[';
      for (const auto& e :
           static_cast<const algebra::ProjectPlan*>(node)->exprs()) {
        out += e->ToString();
        out += ',';
      }
      out += ']';
    } else if (node->kind() == algebra::PlanKind::kAggregate) {
      out += '[';
      out += node->ToString();
      out += ']';
    }
    out += '/';
    node = node->child();
  }
}

/// A shuffled group-by: its merge consumers' replies are the OLAP gather.
bool IsGroupByShuffle(const LocalPart& part) {
  return part.exchange != nullptr && part.exchange->group_by();
}

/// An OLAP part (DESIGN.md §14.4), a shuffled group-by or sorted runs: its
/// producers' stream bits count as olap.shuffle_bits.
bool IsOlapPart(const LocalPart& part) {
  return part.sorted_runs || IsGroupByShuffle(part);
}

}  // namespace

QueryProcess::QueryProcess(Config config)
    : config_(std::move(config)),
      rpcs_(this, config_.machine.retransmit,
            {[this](const Rpcs::PendingRpc& rpc) {
               return ResolveTarget(rpc.target);
             },
             // Crash failover happens at retransmission time: if the
             // addressed replica died after scatter, re-aim at the
             // surviving one first.
             [this](uint64_t, Rpcs::PendingRpc& rpc) {
               if (rpc.target != SIZE_MAX) MaybeFailover(rpc.target, rpc);
               return true;
             },
             [this](uint64_t id, const Rpcs::PendingRpc& rpc) {
               RpcExhausted(id, rpc.target);
             }}),
      done_(this, config_.gdh, kMailStatementDone, kMailStmtDoneResend,
            config_.machine.retransmit.resend_ns,
            std::numeric_limits<int>::max()) {}

void QueryProcess::OnStart() {
  start_time_ = runtime()->simulator()->now();
  last_progress_ = start_time_;
  // Watchdog against lost fragments / crashed OFMs: a statement that
  // makes no progress for kWatchdogNs fails with a typed kUnavailable.
  timeout_event_ = SendSelfAfter(kWatchdogNs, kMailQueryTimeout);
  if (config_.statement->is_prismalog) {
    StartPrismalog();
  } else {
    StartSql();
  }
}

// ----------------------------------------------------------- Hardened RPC

void QueryProcess::SendRpc(uint64_t request_id, const char* kind,
                           std::any body, int64_t size_bits,
                           size_t work_index) {
  // GDH-bound RPCs are never abandoned: the GDH lives on PE 0, which no
  // fault plan crashes, and it answers lock requests only once granted —
  // so a quiet GDH means a queued lock behind a failover-stalled writer,
  // not a crash. Keep retransmitting; the query watchdog bounds the wait.
  const int max_attempts = work_index == SIZE_MAX
                               ? std::numeric_limits<int>::max()
                               : config_.machine.retransmit.attempts;
  rpcs_.Send(request_id, work_index, kind, std::move(body), size_bits,
             max_attempts);
}

bool QueryProcess::SettleRpc(uint64_t request_id) {
  return rpcs_.Settle(request_id);
}

const FragmentInfo* QueryProcess::FindFragment(
    const std::string& table, const std::string& fragment) const {
  auto info = config_.dictionary->GetTable(table);
  if (!info.ok()) return nullptr;
  for (const FragmentInfo& frag : (*info)->fragments) {
    if (frag.name == fragment) return &frag;
  }
  return nullptr;
}

pool::ProcessId QueryProcess::ResolveTarget(size_t work_index) const {
  if (work_index == SIZE_MAX) return config_.gdh;
  const FragmentWork& w = (*work_)[work_index];
  // Fragment names are stable across respawns, pids are not: resolve
  // through the dictionary so retransmissions chase a replacement OFM.
  const FragmentInfo* frag = FindFragment(w.table, w.fragment);
  return frag != nullptr ? frag->ReplicaOfm(w.replica) : w.ofm;
}

bool QueryProcess::ServesReads(const FragmentInfo& frag, int replica) const {
  return frag.replica_state(replica) == ReplicaState::kInSync &&
         runtime()->IsAlive(frag.ReplicaOfm(replica));
}

int QueryProcess::ChooseReadReplica(const FragmentInfo& frag) const {
  if (!frag.replicated) return 0;
  const int primary = frag.primary_replica;
  if (ServesReads(frag, primary)) return primary;
  const int peer = 1 - primary;
  if (ServesReads(frag, peer)) return peer;
  // Both replicas down or stale: address the primary and let the RPC
  // layer degrade to a typed Unavailable — never a wrong answer.
  return primary;
}

std::string QueryProcess::DescribeWorkTarget(const FragmentWork& w,
                                             net::NodeId* pe) const {
  std::string name = w.fragment;
  if (const FragmentInfo* frag = FindFragment(w.table, w.fragment)) {
    name = frag->ReplicaName(w.replica);
    *pe = frag->ReplicaPe(w.replica);
  }
  return "fragment " + name + " on PE " + std::to_string(*pe);
}

void QueryProcess::CountUnavailable(net::NodeId pe, const std::string& table) {
  // Registered only when a query actually degrades, so fault-free metric
  // dumps are unchanged.
  if (config_.machine.metrics == nullptr) return;
  config_.machine.metrics
      ->GetCounter("query.unavailable",
                   {{"pe", std::to_string(pe)}, {"table", table}})
      ->Increment();
}

void QueryProcess::MaybeFailover(size_t work_index, Rpcs::PendingRpc& rpc) {
  FragmentWork& w = (*work_)[work_index];
  const FragmentInfo* frag = FindFragment(w.table, w.fragment);
  if (frag == nullptr || !frag->replicated) return;
  const FragmentInfo* second =
      w.second_fragment.empty()
          ? nullptr
          : FindFragment(w.second_table, w.second_fragment);
  int choice = ChooseReadReplica(*frag);
  const int peer = 1 - w.replica;
  if (choice == w.replica && !w.request.stream.has_value() &&
      ServesReads(*frag, peer) &&
      (second == nullptr || ServesReads(*second, peer))) {
    // Silence failover: the addressed replica is alive but did not answer
    // in time: its PE may be cut off, or down while a process spawned
    // there after the crash lives on. The peer answers identically, so a
    // reply-based read tries it next. (Streaming producers only move off
    // a dead replica: two live ones would both stream the same run.)
    choice = peer;
  }
  if (choice == w.replica) return;
  // Crash failover: rebuild the request around the surviving replica,
  // renaming the plan's scans. The request id is kept — a late reply
  // from the old target settles the same RPC, and both replicas answer
  // identically (the statement's shared lock on the base fragment name
  // blocks new commits machine-wide).
  const std::string old_name = frag->ReplicaName(w.replica);
  const std::string new_name = frag->ReplicaName(choice);
  std::unique_ptr<algebra::Plan> plan =
      CloneWithScanRenamed(*w.request.plan, old_name, new_name);
  if (second != nullptr) {
    // The co-located partner moves with the anchor: aligned placement
    // puts equal replica slots on equal PEs.
    plan = CloneWithScanRenamed(*plan, second->ReplicaName(w.replica),
                                second->ReplicaName(choice));
  }
  w.request.plan = std::shared_ptr<const algebra::Plan>(std::move(plan));
  // The surviving replica gets the renamed plan whole, even where the
  // request named it by id: nothing is on record for that OFM.
  auto request = std::make_shared<ExecPlanRequest>(
      *std::any_cast<std::shared_ptr<ExecPlanRequest>>(rpc.body));
  request->plan = w.request.plan;
  rpc.size_bits = request->WireBits();
  rpc.body = request;
  w.replica = choice;
  w.ofm = frag->ReplicaOfm(choice);
}

void QueryProcess::RpcExhausted(uint64_t request_id, size_t work_index) {
  // Degradation report (DESIGN.md §13): name the unreachable replica and
  // its PE, and count the failure under query.unavailable{pe,table}.
  const FragmentWork& w = (*work_)[work_index];
  net::NodeId target_pe = 0;
  const std::string target = DescribeWorkTarget(w, &target_pe);
  SettleRpc(request_id);
  CountUnavailable(target_pe, w.table);
  Reply(UnavailableError(target + " did not answer after repeated "
                         "retransmissions (crashed PE?)"),
        Schema(), nullptr);
}

// ------------------------------------------------------------------ Reply

void QueryProcess::Reply(Status status, Schema schema,
                         std::shared_ptr<std::vector<Tuple>> tuples) {
  if (finished_) return;
  finished_ = true;
  runtime()->simulator()->Cancel(timeout_event_);
  rpcs_.SettleAll();
  // Exchange consumers live exactly as long as their statement: killing
  // them here also stops their reply-retransmission timers.
  for (const pool::ProcessId pid : consumer_pids_) {
    runtime()->Kill(pid);
  }
  consumer_pids_.clear();
  const sim::SimTime now = runtime()->simulator()->now();
  obs::MetricsRegistry* metrics = config_.machine.metrics;
  if (metrics != nullptr) {
    const obs::Labels q = {
        {"query", std::to_string(config_.statement->request_id)}};
    metrics->GetCounter("query.tuples_gathered", q)
        ->Increment(tuples_gathered_);
    metrics->GetCounter("query.fragments_contacted", q)->Increment(completed_);
    metrics->GetGauge("query.response_ns", q)->Set(now - start_time_);
    metrics->GetGauge("query.last_gather_bits")->Set(gather_bits_);
    if (forward_runs_ && status.ok()) {
      metrics->GetCounter("query.reply_streamed")->Increment();
    }
    for (size_t i = 0; i < parts_->size(); ++i) {
      const std::optional<uint64_t> rows = (*parts_)[i].group_rows;
      if (!rows.has_value()) continue;
      // The path each costed GROUP BY took, and the q-error of the rows
      // it gathered, in percent (100: exact; DESIGN.md §14.2).
      const GroupByChoice& choice = *split_->parts[i].group_by;
      metrics->GetCounter("olap.group_by_paths",
                          {{"path", GroupByPathName(choice.path)}})
          ->Increment();
      metrics->GetGauge("olap.last_group_qerror_pct")
          ->Set(static_cast<int64_t>(std::llround(
              100 * QError(choice.gathered_rows(),
                           static_cast<double>(*rows)))));
    }
    // The OLAP parts scattered: a statement with any has work entries
    // once it scattered, and none before.
    const size_t olap_parts =
        work_->empty() ? 0
                       : std::count_if(split_->parts.begin(),
                                       split_->parts.end(), IsOlapPart);
    if (olap_parts > 0) {
      // Wire accounting of the OLAP parts (DESIGN.md §14.4): shuffle =
      // first transmissions of the producers' streams (group-by shuffles
      // and sorted runs), gather = group-by consumer replies.
      metrics->GetCounter("olap.parts", q)->Increment(olap_parts);
      metrics->GetCounter("olap.shuffle_bits", q)
          ->Increment(olap_shuffle_bits_);
      metrics->GetCounter("olap.gather_bits", q)->Increment(olap_gather_bits_);
      // Unlabeled "last query" figures for benches and tests.
      metrics->GetGauge("olap.last_shuffle_bits")->Set(olap_shuffle_bits_);
      metrics->GetGauge("olap.last_gather_bits")->Set(olap_gather_bits_);
    }
  }
  obs::Tracer* tracer = config_.machine.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Span(
        "gdh", config_.statement->is_prismalog ? "prismalog" : "query",
        start_time_, now, pe(), self(), "request",
        std::to_string(config_.statement->request_id));
  }
  if (status.ok() && tuples != nullptr &&
      (frames_sent_ > 0 ||
       tuples->size() > config_.machine.exchange_batch_rows)) {
    unframed_.insert(unframed_.end(), std::make_move_iterator(tuples->begin()),
                     std::make_move_iterator(tuples->end()));
    SendFrames(schema, /*last=*/true);
  } else {
    auto reply = std::make_shared<ClientReply>();
    reply->request_id = config_.statement->request_id;
    reply->status = std::move(status);
    reply->schema = std::move(schema);
    if (tuples != nullptr) reply->rows = EncodeRows(*tuples);
    SendMail(config_.client, kMailClientReply, reply, reply->WireBits());
  }
  auto done = std::make_shared<StatementDone>();
  done->txn = config_.lock_txn;
  // A faulty interconnect may drop it, leaving the GDH holding this
  // statement's locks forever: it is resent until the GDH reaps this
  // process (the timer dies with it).
  done_.Send(done, kControlBits);
}

void QueryProcess::SendFrames(const Schema& schema, bool last) {
  // Frames need no acks, dedup or retransmission: client traffic models
  // the host interface and is never faulted, and a crash of this PE is
  // answered by the GDH's typed error, which discards the partial train.
  const size_t batch =
      std::max<uint64_t>(1, config_.machine.exchange_batch_rows);
  size_t begin = 0;
  auto send = [&](size_t end, bool is_last) {
    auto frame = std::make_shared<ClientReply>();
    frame->request_id = config_.statement->request_id;
    if (frames_sent_ == 0) frame->schema = schema;
    frame->rows = EncodeRows(
        std::span<const Tuple>(unframed_).subspan(begin, end - begin));
    frame->frame = frames_sent_++;
    frame->last = is_last;
    SendMail(config_.client, kMailClientReply, frame, frame->WireBits());
    begin = end;
  };
  while (unframed_.size() - begin > batch) send(begin + batch, false);
  if (last) {
    send(unframed_.size(), true);
    unframed_.clear();
  } else {
    unframed_.erase(unframed_.begin(), unframed_.begin() + begin);
  }
}

// ------------------------------------------------------------------- SQL

void QueryProcess::StartSql() {
  // Probe the shared plan cache first (DESIGN.md §15.4): a repeated
  // parameterized statement reuses the immutable split plan and skips the
  // per-query parser/optimizer instance entirely. Only plain SELECTs are
  // cached. EXPLAIN is a diagnostic of the planning work itself, so it
  // always runs it; EXPLAIN ANALYZE profiles what its SELECT would run,
  // which is the cached plan when there is one (peeked, so the SELECT's
  // hit rate does not move).
  PlanCache* plan_cache = config_.machine.plan_cache;
  PlanCache::Key cache_key;
  bool cacheable = false;
  if (plan_cache != nullptr) {
    auto normalized = sql::NormalizeStatement(config_.statement->text);
    constexpr std::string_view kAnalyze = "EXPLAIN ANALYZE ";
    std::string_view fingerprint =
        normalized.ok() ? std::string_view(normalized->fingerprint) : "";
    const bool analyze = fingerprint.starts_with(kAnalyze);
    if (analyze) fingerprint.remove_prefix(kAnalyze.size());
    if (fingerprint.starts_with("SELECT")) {
      cacheable = !analyze;
      cache_key.fingerprint = std::string(fingerprint);
      cache_key.params = std::move(normalized->params);
      ChargeCpu(runtime()->costs().plan_cache_probe_ns);
      auto hit = analyze ? plan_cache->Peek(cache_key)
                         : plan_cache->Lookup(cache_key);
      if (hit != nullptr) {
        explain_ = analyze_ = analyze;
        split_ = hit->split;
        optimizer_report_ = hit->optimizer_report;
        plan_entry_ = hit->id;
        AcquireSelectLocks();
        return;
      }
    }
  }

  // Parsing + optimizing burns this coordinator's PE — the per-query
  // "instance of the parser and optimizer" of §2.2.
  ChargeCpu(runtime()->costs().optimize_ns);
  auto parsed = sql::ParseSql(config_.statement->text);
  if (!parsed.ok()) {
    Reply(parsed.status(), Schema(), nullptr);
    return;
  }
  explain_ = parsed->explain;
  analyze_ = parsed->analyze;
  auto bound = sql::BindStatement(*parsed, *config_.dictionary);
  if (!bound.ok()) {
    Reply(bound.status(), Schema(), nullptr);
    return;
  }
  if (bound->kind != sql::Statement::Kind::kSelect) {
    Reply(InternalError("query coordinator received non-SELECT"), Schema(),
          nullptr);
    return;
  }

  Optimizer optimizer(config_.dictionary, config_.machine.rules);
  auto optimized =
      optimizer.Optimize(std::move(bound->plan), &optimizer_report_);
  if (!optimized.ok()) {
    Reply(optimized.status(), Schema(), nullptr);
    return;
  }

  const GroupByCosts costs =
      MachineGroupByCosts(runtime()->network()->topology(),
                          runtime()->network()->params(), runtime()->costs());
  auto split = SplitPlanForFragments(std::move(optimized).value(),
                                     *config_.dictionary,
                                     config_.machine.rules, costs);
  if (!split.ok()) {
    Reply(split.status(), Schema(), nullptr);
    return;
  }
  split_ = std::make_shared<const DistributedPlan>(std::move(split).value());
  if (cacheable) {
    auto entry = std::make_shared<PlanCache::Entry>();
    entry->split = split_;
    entry->optimizer_report = optimizer_report_;
    if (auto stored = plan_cache->Insert(cache_key, std::move(entry))) {
      plan_entry_ = stored->id;
    }
  }

  if (explain_ && !analyze_) {
    ReplyExplain();
    return;
  }

  AcquireSelectLocks();
}

void QueryProcess::AcquireSelectLocks() {
  // Shared locks on the fragments this statement can actually touch
  // (selections pinning the fragmentation key prune the rest).
  std::set<std::string> resources;
  parts_->assign(split_->parts.size(), Part{});
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const LocalPart& part = split_->parts[i];
    std::vector<int>& fragments = (*parts_)[i].fragments;
    if (part.exchange != nullptr) {
      // Exchange part: every fragment of every input is read on its own
      // PE, so lock all of them; the part's fragment list is the anchor
      // table's (one consumer per anchor fragment).
      const TableInfo* anchor = nullptr;
      for (const ExchangeSpec::Input& input : part.exchange->inputs) {
        auto info = config_.dictionary->GetTable(input.table);
        if (!info.ok()) {
          Reply(info.status(), Schema(), nullptr);
          return;
        }
        for (const FragmentInfo& frag : (*info)->fragments) {
          resources.insert(frag.name);
        }
        if (input.table == part.exchange->anchor_table) anchor = *info;
      }
      PRISMA_CHECK(anchor != nullptr);
      fragments.reserve(anchor->fragments.size());
      for (size_t f = 0; f < anchor->fragments.size(); ++f) {
        fragments.push_back(static_cast<int>(f));
      }
      continue;
    }
    auto info = config_.dictionary->GetTable(part.table);
    if (!info.ok()) {
      Reply(info.status(), Schema(), nullptr);
      return;
    }
    fragments = PruneFragmentsForPart(**info, *part.plan);
    for (const int f : fragments) {
      resources.insert((*info)->fragments[f].name);
    }
    if (!part.second_table.empty()) {
      // Co-located join: the partner's aligned fragments are read too.
      auto second = config_.dictionary->GetTable(part.second_table);
      if (!second.ok()) {
        Reply(second.status(), Schema(), nullptr);
        return;
      }
      for (const int f : fragments) {
        resources.insert((*second)->fragments[f].name);
      }
    }
  }
  RequestLocks({resources.begin(), resources.end()});
}

void QueryProcess::RequestLocks(std::vector<std::string> resources) {
  auto request = std::make_shared<LockBatchRequest>();
  request->request_id = next_request_id_++;
  request->txn = config_.lock_txn;
  request->resources = std::move(resources);
  request->exclusive = false;
  SendRpc(request->request_id, kMailLockBatch, request, kControlBits,
          SIZE_MAX);
}

void QueryProcess::Scatter() {
  // Build the per-fragment work list.
  work_->clear();
  size_t consumer_replies = 0;
  // Identical parts (common subexpressions, e.g. self-joins) are
  // scattered once and their gathered result shared (§2.4).
  std::map<std::string, size_t> part_shapes;
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const LocalPart& part = split_->parts[i];
    if (part.exchange != nullptr) {
      // Exchange parts (joins and group-bys) bypass CSE: their rendered
      // plan is not the executed artifact, and their gather is fed by
      // dedicated consumers rather than a shareable per-fragment scan.
      consumer_replies += ScatterExchangePart(i);
      continue;
    }
    if (part.sorted_runs) {
      // So do sorted runs: they stream here instead of replying.
      ScatterRunsPart(i);
      continue;
    }
    if (part.fixpoint) {
      // And the fixpoint: its partitions stream their result here.
      consumer_replies += ScatterFixpointPart(i);
      continue;
    }
    if (config_.machine.rules.detect_common_subexpressions) {
      const std::string key = part.table + "\n" + PartShapeKey(*part.plan);
      auto [it, inserted] = part_shapes.try_emplace(key, i);
      if (!inserted) {
        (*parts_)[i].duplicate_of = it->second;
        continue;
      }
    }
    auto info = config_.dictionary->GetTable(part.table);
    PRISMA_CHECK(info.ok());
    const TableInfo* second = nullptr;
    if (!part.second_table.empty()) {
      auto second_or = config_.dictionary->GetTable(part.second_table);
      PRISMA_CHECK(second_or.ok());
      second = *second_or;
    }
    for (const int f : (*parts_)[i].fragments) {
      AddFragmentWork(i, part.table, (*info)->fragments[f], *part.plan,
                      part.second_table,
                      second != nullptr ? &second->fragments[f] : nullptr);
    }
  }
  // Forwarding (DESIGN.md §15.5): the answer IS the merge of the sorted
  // runs when the global plan merely scans them.
  forward_runs_ =
      !analyze_ && split_->parts.size() == 1 &&
      split_->parts[0].sorted_runs &&
      split_->global->kind() == algebra::PlanKind::kScan &&
      static_cast<const algebra::ScanPlan&>(*split_->global).table() ==
          PartName(0);
  StartGather(consumer_replies);
  const sim::SimTime resend_ns = config_.machine.retransmit.resend_ns;
  if (!fx_pids_.empty() && resend_ns > 0) {
    // Faulty interconnect: the fixpoint's start/round/harvest directives
    // can be lost, so rebroadcast the current ones until the query
    // finishes (every handler at the PEs is idempotent).
    SendSelfAfter(resend_ns, kMailFixpointCtrlResend);
  }
}

void QueryProcess::StartGather(size_t consumer_replies) {
  next_work_ = 0;
  outstanding_ = 0;
  completed_ = 0;
  expected_replies_ = work_->size() + consumer_replies;
  if (expected_replies_ == 0) {
    FinishGather();
    return;
  }
  if (config_.machine.rules.parallel_fragments) {
    // Scatter everything at once — fragment parallelism (§2.2).
    while (next_work_ < work_->size()) SendNextFragmentPlan();
  } else if (!work_->empty()) {
    // Ablation: one fragment at a time.
    SendNextFragmentPlan();
  }
}

uint64_t QueryProcess::ExchangeId(size_t part_index) const {
  return (config_.statement->request_id << 16) |
         static_cast<uint64_t>(part_index);
}

size_t QueryProcess::ScatterExchangePart(size_t part_index) {
  const ExchangeSpec& ex = *split_->parts[part_index].exchange;
  auto anchor_or = config_.dictionary->GetTable(ex.anchor_table);
  PRISMA_CHECK(anchor_or.ok());
  const TableInfo* anchor = *anchor_or;
  std::vector<const TableInfo*> inputs;
  for (const ExchangeSpec::Input& input : ex.inputs) {
    auto info = config_.dictionary->GetTable(input.table);
    PRISMA_CHECK(info.ok());
    inputs.push_back(*info);
  }
  const uint64_t exchange_id = ExchangeId(part_index);
  const bool broadcast = ex.strategy == ExchangeStrategy::kBroadcastLeft ||
                         ex.strategy == ExchangeStrategy::kBroadcastRight;
  const int sides = static_cast<int>(ex.inputs.size());

  // One consumer per anchor fragment, co-located with it. Consumers are
  // not RPC targets (nothing is retransmitted *to* them); their replies
  // are counted into the gather via request_part_, and a lost reply is
  // repaired by the consumer's own resend timer.
  std::vector<pool::ProcessId> consumers;
  consumers.reserve(anchor->fragments.size());
  for (size_t c = 0; c < anchor->fragments.size(); ++c) {
    const FragmentInfo& frag = anchor->fragments[c];
    // Read routing: the consumer co-locates with whichever anchor replica
    // currently serves reads, and rescans that replica's fragment.
    const int replica = ChooseReadReplica(frag);
    const std::string anchor_name = frag.ReplicaName(replica);
    ExchangeConsumerProcess::Config cc;
    cc.exchange_id = exchange_id;
    cc.index = c;
    cc.fragment = anchor_name;
    cc.coordinator = self();
    cc.reply_request_id = next_request_id_++;
    for (int s = 0; s < sides; ++s) {
      ExchangeConsumerProcess::SideSpec& spec = s == 0 ? cc.left : cc.right;
      spec.moving = ExchangeSideMoves(ex.strategy, s);
      if (spec.moving) {
        spec.producers = inputs[s]->fragments.size();
      } else {
        // The stationary side is the anchor table: this consumer rescans
        // its own co-located fragment.
        spec.local_plan =
            std::shared_ptr<const algebra::Plan>(CloneWithScanRenamed(
                *ex.inputs[s].plan, ex.inputs[s].table, anchor_name));
      }
    }
    cc.build_side = ex.build_side;
    cc.keys = ex.keys;
    cc.predicate = ex.predicate;
    cc.post_plan = ex.post_plan;
    cc.input_schema = ex.schema;
    cc.machine = config_.machine;
    request_part_[cc.reply_request_id] = {part_index, 0};
    const pool::ProcessId pid = runtime()->Spawn(
        frag.ReplicaPe(replica),
        std::make_unique<ExchangeConsumerProcess>(std::move(cc)));
    consumer_pids_.push_back(pid);
    consumers.push_back(pid);
  }

  // One producer work entry per fragment of each moving side; these go
  // through the hardened-RPC path like plain fragment plans.
  for (int s = 0; s < sides; ++s) {
    if (!ExchangeSideMoves(ex.strategy, s)) continue;
    for (size_t f = 0; f < inputs[s]->fragments.size(); ++f) {
      ExecPlanRequest::Stream& stream = AddShuffleProducer(
          part_index, exchange_id, s, f, ex.inputs[s].table,
          inputs[s]->fragments[f], *ex.inputs[s].plan, consumers);
      stream.mode = broadcast ? ExecPlanRequest::Stream::Mode::kBroadcast
                              : ExecPlanRequest::Stream::Mode::kHash;
      stream.partition_column = ex.inputs[s].route_column;
      stream.keep_nulls = ex.inputs[s].keep_nulls;
    }
  }
  return consumers.size();
}

void QueryProcess::ScatterRunsPart(size_t part_index) {
  const LocalPart& part = split_->parts[part_index];
  auto info_or = config_.dictionary->GetTable(part.table);
  PRISMA_CHECK(info_or.ok());
  const TableInfo& table = **info_or;
  Part& record = (*parts_)[part_index];
  const std::vector<int>& fragments = record.fragments;
  const uint64_t exchange_id = ExchangeId(part_index);
  in_.emplace(this, ConsumerOptions(exchange_id, 0, config_.machine,
                                    {{"fragment", "coordinator"}},
                                    /*fixpoint=*/false));
  in_->Expect(0, fragments.size());
  in_part_ = part_index;
  record.runs.resize(fragments.size());
  record.first_work = work_->size();
  for (size_t r = 0; r < fragments.size(); ++r) {
    // Broadcast to one consumer: the run leaves in sorted order, with no
    // per-row routing.
    AddShuffleProducer(part_index, exchange_id, 0, r, part.table,
                       table.fragments[fragments[r]], *part.plan, {self()})
        .mode = ExecPlanRequest::Stream::Mode::kBroadcast;
  }
}

QueryProcess::FragmentWork& QueryProcess::AddFragmentWork(
    size_t part_index, const std::string& table, const FragmentInfo& frag,
    const algebra::Plan& plan, const std::string& second_table,
    const FragmentInfo* second) {
  // Read routing: address the fragment's primary replica, or the
  // surviving backup when the primary's PE is down (DESIGN.md §13).
  const int replica = ChooseReadReplica(frag);
  std::unique_ptr<algebra::Plan> local =
      CloneWithScanRenamed(plan, table, frag.ReplicaName(replica));
  FragmentWork& w = work_->emplace_back();
  if (second != nullptr) {
    // The co-located partner reads the SAME replica slot: aligned
    // placement keeps equal slots of aligned fragments on one PE.
    local = CloneWithScanRenamed(*local, second_table,
                                 second->ReplicaName(replica));
    w.second_table = second_table;
    w.second_fragment = second->name;
  }
  w.ofm = frag.ReplicaOfm(replica);
  w.request.plan = std::shared_ptr<const algebra::Plan>(std::move(local));
  w.request.profile = analyze_;
  w.part = part_index;
  w.table = table;
  w.fragment = frag.name;
  w.replica = replica;
  return w;
}

ExecPlanRequest::Stream& QueryProcess::AddShuffleProducer(
    size_t part_index, uint64_t exchange_id, int side, size_t producer,
    const std::string& table, const FragmentInfo& frag,
    const algebra::Plan& plan, std::vector<pool::ProcessId> consumers) {
  ExecPlanRequest::Stream& stream =
      AddFragmentWork(part_index, table, frag, plan).request.stream.emplace();
  stream.exchange_id = exchange_id;
  stream.side = side;
  stream.producer = producer;
  stream.consumers = std::move(consumers);
  return stream;
}

void QueryProcess::HandleStreamBatch(const pool::Mail& mail) {
  if (finished_ || !in_.has_value()) return;
  Part& part = (*parts_)[in_part_];
  const bool runs = split_->parts[in_part_].sorted_runs;
  const Status status =
      in_->Receive(mail, [&](StreamReceiver::Delivery& delivery) {
        tuples_gathered_ += delivery.rows.size();
        auto rows = std::make_move_iterator(delivery.rows.begin());
        auto end = std::make_move_iterator(delivery.rows.end());
        if (runs) {
          std::deque<Tuple>& run = part.runs[delivery.producer];
          run.insert(run.end(), rows, end);
          // A run that makes progress has a live producer: its plan RPC
          // gets a fresh budget, so a long run under loss is not failed
          // while its batches are still arriving.
          rpcs_.Renew(
              (*work_)[part.first_work + delivery.producer].request.request_id);
        } else {
          part.gathered.insert(part.gathered.end(), rows, end);
          // A stream's eos is delivered once, duplicates never.
          if (in_->Done(delivery.side, delivery.producer)) --fx_streams_owed_;
        }
        NoteProgress();
        return Status::OK();
      });
  if (!status.ok()) {
    Reply(status, Schema(), nullptr);
  } else if (runs) {
    MergeRuns();
  } else {
    MaybeHarvest();
  }
}

void QueryProcess::MergeRuns() {
  Part& part = (*parts_)[in_part_];
  std::vector<std::deque<Tuple>>& runs = part.runs;
  // The part's plan is Sort(...) or Limit(n, Sort(...)); its keys are
  // plain columns (TrySortedRuns lowers no other shape).
  const algebra::Plan* sort = split_->parts[in_part_].plan.get();
  if (sort->kind() == algebra::PlanKind::kLimit) sort = sort->child();
  const std::vector<algebra::SortKey>& keys =
      static_cast<const algebra::SortPlan&>(*sort).keys();
  auto before = [&keys](const Tuple& a, const Tuple& b) {
    // The executor's Sort comparator (Value::Compare per key, flipped for
    // DESC); ties keep the lower run first.
    for (const algebra::SortKey& key : keys) {
      const size_t column = key.expr->column_index();
      const int c = a.at(column).Compare(b.at(column));
      if (c != 0) return key.descending ? c > 0 : c < 0;
    }
    return false;
  };
  std::vector<Tuple>& out = forward_runs_ ? unframed_ : part.gathered;
  uint64_t merged = 0;
  while (true) {
    // A row may leave only once every unfinished run shows its head: an
    // empty unfinished run could still deliver a smaller one.
    size_t next = SIZE_MAX;
    bool blocked = false;
    for (size_t r = 0; r < runs.size(); ++r) {
      if (runs[r].empty()) {
        blocked = blocked || !in_->Done(0, r);
      } else if (next == SIZE_MAX ||
                 before(runs[r].front(), runs[next].front())) {
        next = r;
      }
    }
    if (blocked || next == SIZE_MAX) break;
    out.push_back(std::move(runs[next].front()));
    runs[next].pop_front();
    ++merged;
  }
  // A k-way merge compares log2(k) times per row; emitting the row stands
  // in for the global plan's Scan(part) it would otherwise pass through.
  const size_t k = std::max<size_t>(runs.size(), 1);
  const auto log2_k = static_cast<sim::SimTime>(std::bit_width(k - 1));
  const pool::CostModel& costs = runtime()->costs();
  ChargeCpu(static_cast<sim::SimTime>(merged) *
            (log2_k * costs.compare_ns + costs.tuple_ns));
  if (forward_runs_ && merged > 0) {
    SendFrames(split_->global->schema(), /*last=*/false);
  }
}

void QueryProcess::SendNextFragmentPlan() {
  ++outstanding_;
  SendFragmentPlan(next_work_++, /*by_id_ok=*/true);
}

void QueryProcess::SendFragmentPlan(size_t index, bool by_id_ok) {
  FragmentWork& w = (*work_)[index];
  const int side = w.request.stream.has_value() ? w.request.stream->side : 0;
  // Only plans of a cached split have an identity an OFM can keep.
  const PlanRef ref =
      plan_entry_ != 0 ? PlanRef{plan_entry_, w.part, side} : PlanRef{};
  const bool by_id =
      by_id_ok && ref.entry != 0 &&
      config_.machine.plan_cache->Resident(ref, ResolveTarget(index));
  w.request.request_id = next_request_id_++;
  request_part_[w.request.request_id] = {w.part, side, index};
  auto request = std::make_shared<ExecPlanRequest>(w.request);
  if (by_id) request->plan = nullptr;
  request->plan_ref = ref;
  const int64_t bits = request->WireBits();
  SendRpc(request->request_id,
          request->stream.has_value() ? kMailShufflePlan : kMailExecPlan,
          request, bits, index);
  if (analyze_) {
    PlanShipping& shipping = (*parts_)[w.part].shipping;
    if (by_id) {
      ++shipping.by_id;
    } else {
      ++shipping.whole;
      shipping.whole_bits += bits;
    }
  }
}

void QueryProcess::HandlePlanReply(const pool::Mail& mail) {
  if (finished_) return;
  auto reply = std::any_cast<std::shared_ptr<ExecPlanReply>>(mail.body);
  SettleRpc(reply->request_id);
  auto it = request_part_.find(reply->request_id);
  if (it == request_part_.end()) return;  // Stale or duplicate.
  const ReplySlot slot = it->second;
  request_part_.erase(it);
  NoteProgress();
  const PlanRef ref{plan_entry_, slot.part, slot.side};
  if (reply->plan_not_resident) {
    // The OFM no longer holds the plan (its FIFO evicted it, or it was
    // respawned): ship it whole, under a fresh request id since shuffle
    // replies are cached by request id.
    config_.machine.plan_cache->ForgetResident(ref, mail.from);
    SendFragmentPlan(slot.work, /*by_id_ok=*/false);
    return;
  }
  --outstanding_;
  ++completed_;
  if (!reply->status.ok()) {
    Reply(reply->status, Schema(), nullptr);
    return;
  }
  if (slot.work != SIZE_MAX) {
    // The answering OFM holds the plan now, whichever way it went out.
    if (ref.entry != 0) {
      config_.machine.plan_cache->NoteResident(ref, mail.from);
    }
    if (IsOlapPart(split_->parts[slot.part])) {
      // OLAP producer settled: attribute its first-transmission data-plane
      // bits (retransmissions excluded by the OFM).
      olap_shuffle_bits_ += reply->shuffle_wire_bits;
    }
  }
  // One decode for every gather: a corrupt frame fails the statement with
  // its typed error, never a partial result.
  StatusOr<std::vector<Tuple>> rows = TupleBatchRows(reply->rows);
  if (!rows.ok()) {
    Reply(rows.status(), Schema(), nullptr);
    return;
  }
  if (slot.work == SIZE_MAX && split_->parts[slot.part].fixpoint) {
    // A partition's harvest reply: a status and its result streams' bits.
    fx_result_bits_ += reply->shuffle_wire_bits;
  }
  if (reply->rows != nullptr) {
    // Merging gathered tuples costs coordinator CPU.
    ChargeCpu(static_cast<sim::SimTime>(rows->size()) *
              runtime()->costs().tuple_ns);
    tuples_gathered_ += rows->size();
    // Group-by consumer replies are the OLAP gather (DESIGN.md §14.4).
    uint64_t& bits = IsGroupByShuffle(split_->parts[slot.part])
                         ? olap_gather_bits_
                         : gather_bits_;
    bits += static_cast<uint64_t>(reply->WireBits());
    std::vector<Tuple>& sink = (*parts_)[slot.part].gathered;
    sink.insert(sink.end(), std::make_move_iterator(rows->begin()),
                std::make_move_iterator(rows->end()));
  }
  if (reply->profile != nullptr) {
    auto [profile, fresh] = (*parts_)[slot.part].profiles.try_emplace(
        slot.side, *reply->profile);
    if (!fresh) obs::MergeProfile(&profile->second, *reply->profile);
  }
  if (completed_ == expected_replies_) {
    FinishGather();
    return;
  }
  if (!config_.machine.rules.parallel_fragments && next_work_ < work_->size()) {
    SendNextFragmentPlan();
  }
}

void QueryProcess::FinishGather() {
  // Every run producer has settled, so every run is complete here (a
  // producer settles once this coordinator acked its final batch): merge
  // what is left.
  if (in_.has_value() && split_->parts[in_part_].sorted_runs) {
    MergeRuns();
    for (const std::deque<Tuple>& run : (*parts_)[in_part_].runs) {
      PRISMA_CHECK(run.empty());
    }
  }
  if (forward_runs_) {
    // Every merged row has been framed; the held-back tail carries `last`.
    auto tail = std::make_shared<std::vector<Tuple>>();
    tail->swap(unframed_);
    Reply(Status::OK(), split_->global->schema(), std::move(tail));
    return;
  }
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    Part& part = (*parts_)[i];
    if (IsGroupByShuffle(split_->parts[i])) {
      // The merge consumers reply with disjoint group sets whose keys
      // interleave across consumers; sorting the gathered rows restores
      // the single-node aggregate's output order (its group map iterates
      // in ascending key order, group rows are unique on their leading
      // key columns, so whole-tuple order IS group-key order).
      std::sort(part.gathered.begin(), part.gathered.end());
      ChargeCpu(static_cast<sim::SimTime>(part.gathered.size()) *
                runtime()->costs().compare_ns);
    }
    // A deduplicated part shares the result of the earlier one.
    if (part.duplicate_of != SIZE_MAX) {
      part.gathered = (*parts_)[part.duplicate_of].gathered;
    }
    // What each costed GROUP BY really gathered, against its estimate.
    if (split_->parts[i].group_by.has_value()) {
      part.group_rows = part.gathered.size();
    }
  }
  if (!config_.statement->is_prismalog) {
    RunGlobalPhase();
  } else if (split_->parts.size() == 1 && split_->parts[0].fixpoint) {
    RunFixpointPhase();
  } else {
    RunPrismalogPhase();
  }
}

void QueryProcess::RunGlobalPhase() {
  // Materialize each gathered part as a resident relation and execute the
  // global plan over them.
  exec::MapTableResolver resolver;
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const Status loaded =
        resolver.Load(PartName(i), split_->parts[i].plan->schema(),
                      std::move((*parts_)[i].gathered));
    if (!loaded.ok()) {
      Reply(loaded, Schema(), nullptr);
      return;
    }
  }
  exec::ExecOptions exec_opts;
  exec_opts.expr_mode = config_.machine.expr_mode;
  exec_opts.costs = runtime()->costs();
  exec_opts.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  exec_opts.enable_subtree_cache = optimizer_report_.enable_subtree_cache;
  exec_opts.profile = analyze_;
  exec::Executor executor(&resolver, exec_opts);
  auto result = executor.Execute(*split_->global);
  if (!result.ok()) {
    Reply(result.status(), Schema(), nullptr);
    return;
  }
  if (analyze_ && executor.profile().has_value()) {
    ReplyAnalyze(*executor.profile());
    return;
  }
  Reply(Status::OK(), split_->global->schema(),
        std::make_shared<std::vector<Tuple>>(std::move(result).value()));
}

std::string QueryProcess::OptimizerLine() const {
  return StrFormat("optimizer: %d selection(s) pushed, %d join reorder(s), "
                   "%d common subtree(s), aggregate pushdown: %s, "
                   "co-located joins: %d, exchange joins: %d, "
                   "olap parts: %d",
                   optimizer_report_.selections_pushed,
                   optimizer_report_.joins_reordered,
                   optimizer_report_.common_subtrees,
                   split_->pushed_aggregate ? "yes" : "no",
                   split_->colocated_joins, split_->exchange_joins,
                   split_->olap_parts);
}

std::string QueryProcess::GroupByLine(const GroupByChoice& choice) {
  return StrFormat("  group-by path: %s, ~%.0f group(s) from ~%.0f partial "
                   "row(s); modelled gather %.0f us, shuffle %.0f us",
                   GroupByPathName(choice.path), choice.groups,
                   choice.partial_rows, choice.gather_ns / 1e3,
                   choice.shuffle_ns / 1e3);
}

double QueryProcess::QError(double estimate, double actual) {
  const double e = std::max(1.0, estimate);
  const double a = std::max(1.0, actual);
  return std::max(e, a) / std::min(e, a);
}

std::string QueryProcess::PartHeading(size_t i, size_t fan,
                                      bool explain) const {
  const LocalPart& part = split_->parts[i];
  if (part.sorted_runs) {
    return StrFormat("part %zu (sorted runs over %s, %zu fragment(s)%s):", i,
                     part.table.c_str(), fan,
                     explain ? ", merged at the coordinator" : "");
  }
  if (part.second_table.empty()) {
    return StrFormat("part %zu (table %s, %zu fragment(s)):", i,
                     part.table.c_str(), fan);
  }
  return StrFormat("part %zu (co-located join %s x %s, %zu fragment "
                   "pair(s)):",
                   i, part.table.c_str(), part.second_table.c_str(), fan);
}

void QueryProcess::ReplyExplain() {
  // One STRING row per output line: optimizer summary, the global plan,
  // then each local part and its fragment fan-out.
  auto lines = std::make_shared<std::vector<Tuple>>();
  auto emit = [&](const std::string& text) {
    lines->push_back(Tuple({Value::String(text)}));
  };
  emit(OptimizerLine());
  emit("global plan (runs at the query coordinator):");
  for (const std::string& line :
       Split(split_->global->ToString(), '\n')) {
    if (!line.empty()) emit("  " + line);
  }
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const LocalPart& part = split_->parts[i];
    if (part.exchange != nullptr) {
      const ExchangeSpec& ex = *part.exchange;
      auto anchor = config_.dictionary->GetTable(ex.anchor_table);
      const size_t fan = anchor.ok() ? (*anchor)->fragments.size() : 0;
      if (ex.group_by()) {
        emit(StrFormat("part %zu (olap group-by over %s, %s, %zu "
                       "fragment(s), %zu merge consumer(s)):",
                       i, ex.anchor_table.c_str(),
                       GroupByPathName(part.group_by->path), fan, fan));
        emit(GroupByLine(*part.group_by));
      } else {
        emit(StrFormat("part %zu (exchange join %s x %s, %s, %zu "
                       "consumer(s), ~%.0f row(s) on the wire):",
                       i, ex.inputs[0].table.c_str(),
                       ex.inputs[1].table.c_str(),
                       ExchangeStrategyName(ex.strategy), fan,
                       ex.moved_rows));
      }
      for (const std::string& line : Split(part.plan->ToString(), '\n')) {
        if (!line.empty()) emit("  " + line);
      }
      continue;
    }
    auto info = config_.dictionary->GetTable(part.table);
    emit(PartHeading(
        i, info.ok() ? PruneFragmentsForPart(**info, *part.plan).size() : 0,
        /*explain=*/true));
    if (part.group_by.has_value()) emit(GroupByLine(*part.group_by));
    for (const std::string& line : Split(part.plan->ToString(), '\n')) {
      if (!line.empty()) emit("  " + line);
    }
  }
  Schema schema;
  schema.AddColumn("plan", DataType::kString);
  Reply(Status::OK(), std::move(schema), std::move(lines));
}

void QueryProcess::ReplyAnalyze(const obs::OperatorProfile& global) {
  // Same single-column shape as EXPLAIN, but with measured figures: the
  // executed global plan plus each part's fragment profiles merged
  // node-wise (invocations = fragments that ran the plan).
  auto lines = std::make_shared<std::vector<Tuple>>();
  auto emit = [&](const std::string& text) {
    lines->push_back(Tuple({Value::String(text)}));
  };
  emit(OptimizerLine());
  emit("global plan (ran at the query coordinator):");
  std::vector<std::string> rendered;
  obs::RenderProfile(global, 1, &rendered);
  for (const std::string& line : rendered) emit(line);
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const LocalPart& part = split_->parts[i];
    const Part& record = (*parts_)[i];
    if (record.duplicate_of != SIZE_MAX) {
      emit(StrFormat("part %zu (table %s): reuses part %zu "
                     "(common subexpression)",
                     i, part.table.c_str(), record.duplicate_of));
      continue;
    }
    // Fragment profiles of one producer side, merged over its fragments.
    auto emit_profile = [&](int side, int indent) {
      auto profile = record.profiles.find(side);
      if (profile == record.profiles.end()) {
        emit(std::string(static_cast<size_t>(indent) * 2, ' ') +
             "(no fragments executed)");
        return;
      }
      rendered.clear();
      obs::RenderProfile(profile->second, indent, &rendered);
      for (const std::string& line : rendered) emit(line);
    };
    // How the part's fragment plans reached the OFMs (DESIGN.md §15.4).
    auto emit_shipping = [&] {
      const PlanShipping& shipping = record.shipping;
      emit(StrFormat("  plans shipped: %zu whole (%lld bits), %zu by id",
                     shipping.whole,
                     static_cast<long long>(shipping.whole_bits),
                     shipping.by_id));
    };
    const ExchangeSpec* ex = part.exchange.get();
    if (ex != nullptr && !ex->group_by()) {
      emit(StrFormat("part %zu (exchange join %s x %s, %s, %zu "
                     "consumer(s)):",
                     i, ex->inputs[0].table.c_str(),
                     ex->inputs[1].table.c_str(),
                     ExchangeStrategyName(ex->strategy),
                     record.fragments.size()));
      emit_shipping();
      for (int side = 0; side < 2; ++side) {
        if (!ExchangeSideMoves(ex->strategy, side)) continue;
        emit(StrFormat("  %s producers (%s):", side == 0 ? "left" : "right",
                       ex->inputs[side].table.c_str()));
        emit_profile(side, 2);
      }
      continue;
    }
    emit(ex != nullptr
             ? StrFormat("part %zu (olap group-by over %s, %zu merge "
                         "consumer(s)), producers:",
                         i, ex->anchor_table.c_str(),
                         record.fragments.size())
             : PartHeading(i, record.fragments.size(), /*explain=*/false));
    if (record.group_rows.has_value()) {
      const GroupByChoice& choice = *part.group_by;
      const uint64_t rows = *record.group_rows;
      emit(StrFormat("  group-by path: %s, %llu row(s) gathered, ~%.0f "
                     "estimated, q-error %.2f",
                     GroupByPathName(choice.path),
                     static_cast<unsigned long long>(rows),
                     choice.gathered_rows(),
                     QError(choice.gathered_rows(),
                            static_cast<double>(rows))));
    }
    emit_shipping();
    emit_profile(0, 1);
  }
  Schema schema;
  schema.AddColumn("plan", DataType::kString);
  Reply(Status::OK(), std::move(schema), std::move(lines));
}

// -------------------------------------------------------------- PRISMAlog

void QueryProcess::StartPrismalog() {
  ChargeCpu(runtime()->costs().optimize_ns);
  // A leading EXPLAIN keyword asks for the evaluation strategy instead of
  // the answers (mirroring the SQL front end).
  plog_text_ = config_.statement->text;
  {
    size_t i = 0;
    while (i < plog_text_.size() &&
           isspace(static_cast<unsigned char>(plog_text_[i]))) {
      ++i;
    }
    constexpr std::string_view kExplain = "explain";
    if (plog_text_.size() > i + kExplain.size() &&
        EqualsIgnoreCase(plog_text_.substr(i, kExplain.size()), kExplain) &&
        isspace(static_cast<unsigned char>(plog_text_[i + kExplain.size()]))) {
      explain_ = true;
      plog_text_ = plog_text_.substr(i + kExplain.size());
    }
  }
  auto program = prismalog::ParsePrismalog(plog_text_);
  if (!program.ok()) {
    Reply(program.status(), Schema(), nullptr);
    return;
  }

  // Linear-recursion programs whose goal is the full closure of one
  // fragmented, dictionary-resident edge relation run as a distributed
  // semi-naive fixpoint (DESIGN.md §11): the recursion executes where the
  // data lives.
  const TableInfo* closure_edges = nullptr;
  if (program->query.has_value()) {
    auto tc = prismalog::DetectLinearTc(*program);
    if (tc.has_value() && program->query->predicate == tc->closure_pred &&
        program->query->args.size() == 2 &&
        !config_.dictionary->HasTable(tc->closure_pred)) {
      auto info = config_.dictionary->GetTable(tc->edge_pred);
      if (info.ok() && (*info)->schema.columns().size() == 2) {
        closure_edges = *info;
      }
    }
  }
  // The program is planned like a SELECT (§2.3): one fixpoint part over
  // the closure's edge relation, or else one local part per base table
  // the program reads, whose gathered extension the stratified engine
  // evaluates here.
  auto split = std::make_shared<DistributedPlan>();
  auto add_scan_part = [&split](const TableInfo& info) {
    LocalPart part;
    part.table = info.name;
    part.plan = algebra::ScanPlan::Create(info.name, info.schema);
    split->parts.push_back(std::move(part));
  };
  if (closure_edges != nullptr) {
    add_scan_part(*closure_edges);
    split->parts.back().fixpoint = true;
  } else if (explain_) {
    // Non-recursive (or non-fixpoint) programs: the stratified engine at
    // the coordinator is the only strategy; say so.
    auto lines = std::make_shared<std::vector<Tuple>>();
    lines->push_back(Tuple({Value::String(
        "prismalog: stratified semi-naive evaluation at the coordinator "
        "(no distributed fixpoint pattern detected)")}));
    Schema schema;
    schema.AddColumn("plan", DataType::kString);
    Reply(Status::OK(), std::move(schema), std::move(lines));
    return;
  } else {
    // Base tables = every predicate present in the dictionary, in name
    // order (the order of the lock request and the scatter).
    std::map<std::string, const TableInfo*> tables;
    auto consider = [&](const std::string& pred) {
      auto info = config_.dictionary->GetTable(pred);
      if (info.ok()) tables.emplace(pred, *info);
    };
    for (const prismalog::Rule& rule : program->rules) {
      consider(rule.head.predicate);
      for (const prismalog::BodyElem& elem : rule.body) {
        if (elem.kind == prismalog::BodyElem::Kind::kAtom) {
          consider(elem.atom.predicate);
        }
      }
    }
    if (program->query.has_value()) consider(program->query->predicate);
    for (const auto& [name, info] : tables) add_scan_part(*info);
  }
  split_ = std::move(split);
  if (explain_) {
    ReplyFixpointExplain();
    return;
  }
  AcquireSelectLocks();
}

void QueryProcess::RunPrismalogPhase() {
  // Each part's gathered extension becomes a relation named after its
  // table, which the program's atoms reference.
  exec::MapTableResolver resolver;
  for (size_t i = 0; i < split_->parts.size(); ++i) {
    const LocalPart& part = split_->parts[i];
    const Status loaded = resolver.Load(part.table, part.plan->schema(),
                                        std::move((*parts_)[i].gathered));
    if (!loaded.ok()) {
      Reply(loaded, Schema(), nullptr);
      return;
    }
  }
  prismalog::EngineOptions options;
  options.costs = runtime()->costs();
  options.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  options.tc_algorithm = config_.machine.fixpoint_algorithm;
  prismalog::Engine engine(&resolver, config_.dictionary, options);
  auto program = prismalog::ParsePrismalog(plog_text_);
  PRISMA_CHECK(program.ok());
  auto result = engine.Run(*program);
  if (!result.ok()) {
    Reply(result.status(), Schema(), nullptr);
    return;
  }
  Reply(Status::OK(), result->schema,
        std::make_shared<std::vector<Tuple>>(std::move(result->tuples)));
}

// ---------------------------------------------------- Distributed fixpoint

size_t QueryProcess::ScatterFixpointPart(size_t part_index) {
  const LocalPart& part = split_->parts[part_index];
  auto info_or = config_.dictionary->GetTable(part.table);
  PRISMA_CHECK(info_or.ok());
  const TableInfo& table = **info_or;
  fx_num_pes_ = table.fragments.size();
  // Nothing to recurse over: the gather finishes at once and the answer
  // comes from an empty extension.
  if (fx_num_pes_ == 0) return 0;
  fixpoint_id_ = ExchangeId(part_index);
  // The partitions' result streams: a side per round (made on its first
  // batch), a producer per partition, one batch in flight each.
  StreamReceiver::Options results =
      ConsumerOptions(fixpoint_id_, 0, config_.machine,
                      {{"pe", "coordinator"}}, /*fixpoint=*/true);
  results.credit_window = FixpointPeProcess::kResultWindow;
  in_.emplace(this, std::move(results));
  in_->ExpectOthers(fx_num_pes_);
  in_part_ = part_index;

  // One fixpoint partition per edge fragment, co-located with the replica
  // that serves its reads (DESIGN.md §13), like the edge producer below:
  // its slice of E (hash-partitioned on the first column) stays local,
  // and so does the delta ⋈ E join (pairs are owned by their second
  // endpoint's hash).
  fx_pids_.reserve(fx_num_pes_);
  for (size_t i = 0; i < fx_num_pes_; ++i) {
    const FragmentInfo& frag = table.fragments[i];
    FixpointPeProcess::Config fc;
    fc.fixpoint_id = fixpoint_id_;
    fc.index = i;
    fc.num_pes = fx_num_pes_;
    fc.edge_producers = fx_num_pes_;
    fc.coordinator = self();
    fc.reply_request_id = next_request_id_++;
    fc.machine = config_.machine;
    request_part_[fc.reply_request_id] = {part_index, 0};
    const pool::ProcessId pid = runtime()->Spawn(
        frag.ReplicaPe(ChooseReadReplica(frag)),
        std::make_unique<FixpointPeProcess>(std::move(fc)));
    consumer_pids_.push_back(pid);  // Reaped in Reply(), like consumers.
    fx_pids_.push_back(pid);
  }
  fx_start_msg_ = std::make_shared<FixpointStartMsg>();
  fx_start_msg_->fixpoint_id = fixpoint_id_;
  fx_start_msg_->peers = fx_pids_;
  for (const pool::ProcessId pid : fx_pids_) {
    SendMail(pid, kMailFixpointStart, fx_start_msg_, kControlBits);
  }

  // Edge shuffle (side 0): every fragment OFM streams its slice to every
  // partition through the ordinary shuffle-producer path, hardened-RPC
  // and read routing and all. Hash-routed on column 0 (the request's
  // defaults).
  for (size_t f = 0; f < fx_num_pes_; ++f) {
    AddShuffleProducer(part_index, fixpoint_id_, 0, f, part.table,
                       table.fragments[f], *part.plan, fx_pids_);
  }
  // The gather waits for every shuffle producer plus every partition's
  // harvest reply; the rows arrive on the result streams before it.
  return fx_num_pes_;
}

void QueryProcess::HandleFixpointVote(const pool::Mail& mail) {
  if (finished_) return;
  auto msg = std::any_cast<std::shared_ptr<FixpointVoteMsg>>(mail.body);
  if (msg->fixpoint_id != fixpoint_id_) return;
  if (msg->pe >= fx_num_pes_) return;
  // Round barrier: one admitted vote per (round, PE). Late votes of
  // finished rounds, retransmitted votes of the current one and any vote
  // after the harvest (the last round's voter set stays full) are
  // rejected; retransmitted mail is at-least-once.
  if (msg->round != fx_round_ || fx_voters_.size() >= fx_num_pes_ ||
      !fx_voters_.insert(msg->pe).second) {
    return;
  }
  NoteProgress();
  if (msg->absorbed_new > 0) {
    // The partition now streams this round's fresh pairs here.
    fx_any_new_ = true;
    ++fx_streams_owed_;
  }
  fx_delta_total_ += msg->absorbed_new;
  fx_pairs_total_ += msg->pairs_derived;
  fx_wire_total_ += msg->wire_bits;
  obs::MetricsRegistry* metrics = config_.machine.metrics;
  const obs::Labels q = {
      {"query", std::to_string(config_.statement->request_id)}};
  if (metrics != nullptr) {
    metrics->GetCounter("fixpoint.delta_tuples", q)
        ->Increment(msg->absorbed_new);
    metrics->GetCounter("fixpoint.wire_bits", q)->Increment(msg->wire_bits);
  }
  if (fx_voters_.size() < fx_num_pes_) return;

  // Termination barrier: every partition finished round fx_round_. If any
  // of them absorbed a new pair the global delta is non-empty — run
  // another round; otherwise the fixpoint is reached — harvest once the
  // result streams are in (the barrier is left open: further
  // round-`fx_round_` votes are stale).
  if (fx_any_new_) {
    fx_any_new_ = false;
    ++fx_round_;
    fx_voters_.clear();
    DirectFixpoint(/*harvest=*/false);
    return;
  }
  if (metrics != nullptr) {
    metrics->GetGauge("fixpoint.rounds", q)->Set(fx_round_);
    // Unlabeled "last query" figures for benches and tests.
    metrics->GetGauge("fixpoint.last_rounds")->Set(fx_round_);
    metrics->GetGauge("fixpoint.last_delta_tuples")->Set(fx_delta_total_);
    metrics->GetGauge("fixpoint.last_pairs_derived")->Set(fx_pairs_total_);
    metrics->GetGauge("fixpoint.last_wire_bits")->Set(fx_wire_total_);
  }
  fx_harvest_due_ = true;
  MaybeHarvest();
}

void QueryProcess::MaybeHarvest() {
  if (!fx_harvest_due_ || fx_streams_owed_ != 0) return;
  fx_harvest_due_ = false;
  DirectFixpoint(/*harvest=*/true);
}

void QueryProcess::DirectFixpoint(bool harvest) {
  fx_round_msg_ = std::make_shared<FixpointRoundMsg>();
  fx_round_msg_->fixpoint_id = fixpoint_id_;
  fx_round_msg_->round = fx_round_;
  fx_round_msg_->harvest = harvest;
  for (const pool::ProcessId pid : fx_pids_) {
    SendMail(pid, kMailFixpointRound, fx_round_msg_, kControlBits);
  }
}

void QueryProcess::BroadcastFixpointCtrl() {
  if (finished_) return;
  for (const pool::ProcessId pid : fx_pids_) {
    if (fx_start_msg_ != nullptr) {
      SendMail(pid, kMailFixpointStart, fx_start_msg_, kControlBits);
    }
    if (fx_round_msg_ != nullptr) {
      SendMail(pid, kMailFixpointRound, fx_round_msg_, kControlBits);
    }
  }
  SendSelfAfter(config_.machine.retransmit.resend_ns, kMailFixpointCtrlResend);
}

void QueryProcess::RunFixpointPhase() {
  obs::MetricsRegistry* metrics = config_.machine.metrics;
  if (metrics != nullptr && !fx_pids_.empty()) {
    metrics
        ->GetCounter("fixpoint.result_bits",
                     {{"query", std::to_string(config_.statement->request_id)}})
        ->Increment(fx_result_bits_);
    metrics->GetGauge("fixpoint.last_result_bits")->Set(fx_result_bits_);
  }
  // Every round's fresh pairs of every partition arrived once, each
  // stream in Tuple order; sorting them reproduces the single-node
  // operator's output exactly.
  std::vector<Tuple> merged = std::move((*parts_)[0].gathered);
  std::sort(merged.begin(), merged.end());
  ChargeCpu(static_cast<sim::SimTime>(merged.size()) *
            runtime()->costs().compare_ns);
  auto program = prismalog::ParsePrismalog(plog_text_);
  PRISMA_CHECK(program.ok() && program->query.has_value());
  prismalog::QueryResult result =
      prismalog::AnswerGoal(*program->query, merged);
  Reply(Status::OK(), std::move(result.schema),
        std::make_shared<std::vector<Tuple>>(std::move(result.tuples)));
}

void QueryProcess::ReplyFixpointExplain() {
  const LocalPart& part = split_->parts[0];
  auto info_or = config_.dictionary->GetTable(part.table);
  PRISMA_CHECK(info_or.ok());
  const TableInfo& table = **info_or;
  auto lines = std::make_shared<std::vector<Tuple>>();
  auto emit = [&](const std::string& text) {
    lines->push_back(Tuple({Value::String(text)}));
  };
  emit(StrFormat("prismalog: linear recursion over %s detected, evaluated "
                 "as a distributed fixpoint",
                 part.table.c_str()));
  auto plan = algebra::FixpointPlan::Create(
      part.plan->Clone(), TcAlgorithmName(config_.machine.fixpoint_algorithm),
      std::max<size_t>(table.fragments.size(), 1));
  PRISMA_CHECK(plan.ok());
  for (const std::string& line : Split((*plan)->ToString(), '\n')) {
    if (!line.empty()) emit("  " + line);
  }
  emit(StrFormat("  edge relation: %zu fragment(s), shuffled by "
                 "hash(column 0); pairs owned by hash(second endpoint); "
                 "per-round all-to-all delta streams over exchange "
                 "channels; each round's fresh pairs stream to the "
                 "coordinator during the rounds; coordinator barrier ends "
                 "when all deltas are empty",
                 table.fragments.size()));
  Schema schema;
  schema.AddColumn("plan", DataType::kString);
  Reply(Status::OK(), std::move(schema), std::move(lines));
}

// ------------------------------------------------------------------ Mail
//
// Handler contract (D5): a query coordinator consumes replies to the RPCs
// it fans out (locks, plans, fixpoint votes), the sorted runs and fixpoint
// results streamed to it, plus its own timeout mail.
// PRISMA_HANDLES(kMailLockBatchReply, kMailExecPlanReply, kMailFixpointVote)
// PRISMA_HANDLES(kMailTupleBatch)
// PRISMA_HANDLES(kMailFixpointCtrlResend, kMailRpcTimeout)
// PRISMA_HANDLES(kMailStmtDoneResend, kMailQueryTimeout)

void QueryProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailLockBatchReply) {
    auto reply = std::any_cast<std::shared_ptr<LockBatchReply>>(mail.body);
    if (!SettleRpc(reply->request_id)) return;  // Duplicate.
    NoteProgress();
    if (!reply->status.ok()) {
      Reply(reply->status, Schema(), nullptr);
      return;
    }
    Scatter();
  } else if (mail.kind == kMailExecPlanReply) {
    HandlePlanReply(mail);
  } else if (mail.kind == kMailTupleBatch) {
    HandleStreamBatch(mail);
  } else if (mail.kind == kMailFixpointVote) {
    HandleFixpointVote(mail);
  } else if (mail.kind == kMailFixpointCtrlResend) {
    BroadcastFixpointCtrl();
  } else if (mail.kind == kMailRpcTimeout) {
    rpcs_.OnTimeout(mail);
  } else if (mail.kind == kMailStmtDoneResend) {
    done_.OnTimer();
  } else if (mail.kind == kMailQueryTimeout) {
    const sim::SimTime quiet = runtime()->simulator()->now() - last_progress_;
    if (quiet < kWatchdogNs) {
      // Progress since the timer was armed: wait out a full quiet stretch.
      timeout_event_ = SendSelfAfter(kWatchdogNs - quiet, kMailQueryTimeout);
      return;
    }
    // Degradation report: name a fragment the gather is still waiting on,
    // if any RPC is outstanding (otherwise the stall is elsewhere, e.g. a
    // consumer that lost its PE).
    std::string detail = "query timed out (fragment unreachable?)";
    net::NodeId target_pe = 0;
    std::string table = "(unknown)";
    for (const auto& [id, rpc] : rpcs_.calls()) {
      if (rpc.target == SIZE_MAX) continue;
      const FragmentWork& w = (*work_)[rpc.target];
      table = w.table;
      detail = "query timed out awaiting " +
               DescribeWorkTarget(w, &target_pe) + " (crashed PE?)";
      break;
    }
    CountUnavailable(target_pe, table);
    Reply(UnavailableError(std::move(detail)), Schema(), nullptr);
  }
}

}  // namespace prisma::gdh
