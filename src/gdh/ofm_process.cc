#include "gdh/ofm_process.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "gdh/pe_registry.h"
#include "gdh/plan_cache.h"

namespace prisma::gdh {

OfmProcess::OfmProcess(Config config)
    : config_(std::move(config)),
      shuffle_out_(this, ProducerOptions(kMailBatchResend,
                                         [this](uint64_t token) {
                                           FinishShuffle(
                                               token, NoProgress("shuffle"));
                                         })),
      resync_out_(this, ProducerOptions(kMailResyncPump,
                                        [this](uint64_t token) {
                                          FinishResyncSource(
                                              token, ResyncStalled());
                                        })),
      deltas_(this, config_.machine.retransmit,
              {[](const RpcClient<pool::ProcessId>::PendingRpc& rpc) {
                 return rpc.target;
               },
               nullptr,
               [this](uint64_t token,
                      const RpcClient<pool::ProcessId>::PendingRpc&) {
                 FinishResyncSource(token, ResyncStalled());
               }}),
      // A resync target counts the bulk copy as its source does; other
      // OFMs receive none and register no series.
      bulk_in_(this,
               config_.resync_id == 0
                   ? StreamReceiver::Options{}
                   : ConsumerOptions(config_.resync_id, 0, config_.machine,
                                     {{"fragment", config_.fragment_name}},
                                     /*fixpoint=*/false)) {
  bulk_in_.Expect(0, 1);
}

StreamSender::Options OfmProcess::ProducerOptions(
    const char* resend_kind, std::function<void(uint64_t)> exhausted) {
  StreamSender::Options options;
  options.resend_kind = resend_kind;
  options.policy = config_.machine.retransmit;
  options.on_send = [this](const StreamSender::Stream&, int64_t bits, bool) {
    if (m_batches_sent_ == nullptr) return;
    m_batches_sent_->Increment();
    m_exchange_bytes_->Increment((bits - kControlBits) / 8);
    m_wire_bits_->Increment(bits);
  };
  options.on_exhausted = [exhausted = std::move(exhausted)](
                             const StreamSender::Stream& stream) {
    exhausted(stream.token);
  };
  if (config_.machine.metrics != nullptr) {
    options.retransmits = [this] {
      return config_.machine.metrics->GetCounter(
          "exchange.retransmits", {{"fragment", config_.fragment_name}});
    };
  }
  return options;
}

OfmProcess::~OfmProcess() {
  if (config_.machine.registry != nullptr && !ofm_.null()) {
    config_.machine.registry->Unregister(pe(), config_.fragment_name);
  }
}

void OfmProcess::OnStart() {
  // Plans run in the machine's expression mode at the runtime's costs; the
  // charge hook binds to this process so all OFM work lands on the
  // hosting PE's clock.
  config_.ofm.exec.expr_mode = config_.machine.expr_mode;
  config_.ofm.exec.costs = runtime()->costs();
  config_.ofm.exec.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  // Log and checkpoint writes go to this PE's disk as I/O requests owned
  // by this process (lost with it if it dies before they land).
  config_.ofm.disk = disk();
  config_.ofm.disk_owner = self();
  ofm_ = std::make_unique<exec::Ofm>(config_.fragment_name, config_.schema,
                                     config_.ofm);
  obs::MetricsRegistry* m = config_.machine.metrics;
  if (m != nullptr) {
    const obs::Labels labels = {{"fragment", config_.fragment_name}};
    m_tuples_scanned_ = m->GetCounter("ofm.tuples_scanned", labels);
    m_index_selections_ = m->GetCounter("ofm.index_selections", labels);
    m_full_scans_ = m->GetCounter("ofm.full_scans", labels);
    m_plans_executed_ = m->GetCounter("ofm.plans_executed", labels);
    m_writes_ = m->GetCounter("ofm.write_ops", labels);
    m_commits_ = m->GetCounter("ofm.txn_commits", labels);
    m_aborts_ = m->GetCounter("ofm.txn_aborts", labels);
    m_wal_records_ = m->GetCounter("ofm.wal_records", labels);
    m_wal_markers_ = m->GetCounter("ofm.wal_markers", labels);
    m_redo_applied_ = m->GetCounter("ofm.redo_applied", labels);
    m_recoveries_ = m->GetCounter("ofm.recoveries", labels);
  }
  // A new fragment (CREATE TABLE) erases what a dropped one of the same
  // name left on this PE's disk. The erasure is queued ahead of the
  // fragment's own first write, so restart recovery replays only this
  // table's log.
  if (!config_.recover && config_.resync_id == 0 && disk() != nullptr) {
    storage::StableWrite erase =
        exec::Ofm::EraseStaleState(disk()->store(), config_.fragment_name);
    if (!erase.empty()) WriteStable(std::move(erase));
  }
  // A resync target must start empty even if the PE's stable store holds
  // stale state for this fragment: the surviving replica is ahead of it,
  // and the bulk stream rebuilds the contents from there.
  if (config_.recover && config_.resync_id == 0) {
    PRISMA_CHECK_OK(ofm_->Recover());
    if (m_recoveries_ != nullptr) m_recoveries_->Increment();
    SyncDurabilityMetrics();
    if (Stalled() && config_.gdh != pool::kNoProcess) {
      SendDecisionRequest();
      SendSelfAfter(kDecisionRetryNs, kMailDecisionRetry);
    }
  }
  for (const IndexInfo& index : config_.indexes) {
    if (index.ordered) {
      PRISMA_CHECK_OK(ofm_->CreateBTreeIndex(index.name, index.columns));
    } else {
      PRISMA_CHECK_OK(ofm_->CreateHashIndex(index.name, index.columns));
    }
  }
  if (config_.machine.registry != nullptr) {
    config_.machine.registry->Register(pe(), config_.fragment_name, ofm_.get());
  }
}

bool OfmProcess::InDoubt(exec::TxnId txn) const {
  const std::vector<exec::TxnId>& undecided = ofm_->recovered_undecided();
  return std::find(undecided.begin(), undecided.end(), txn) !=
         undecided.end();
}

void OfmProcess::NoteFinished(exec::TxnId txn, bool committed) {
  if (txn == exec::kAutoCommit) return;
  EvictExpiredDedupState();
  if (!finished_->emplace(txn, committed).second) return;
  finished_order_.push_back({runtime()->simulator()->now(), txn});
}

void OfmProcess::EvictExpiredDedupState() {
  // Time-based, not count-based: an entry may only be dropped once every
  // sender's retry window (and any delayed duplicate) has lapsed, or a
  // retransmission would re-execute a non-idempotent write.
  const sim::SimTime cutoff =
      runtime()->simulator()->now() - config_.dedup_retention_ns;
  while (!reply_order_.empty() && reply_order_.front().first <= cutoff) {
    replies_->erase(reply_order_.front().second);
    reply_order_.pop_front();
  }
  while (!finished_order_.empty() && finished_order_.front().first <= cutoff) {
    finished_->erase(finished_order_.front().second);
    finished_order_.pop_front();
  }
}

void OfmProcess::SendDecisionRequest() {
  auto request = std::make_shared<DecisionRequest>();
  request->request_id = next_request_id_++;
  request->transactions = ofm_->recovered_undecided();
  SendMail(config_.gdh, kMailDecisionRequest, request, kControlBits);
}

bool OfmProcess::ReplayCached(pool::ProcessId from, uint64_t request_id) {
  auto it = replies_->find({from, request_id});
  if (it == replies_->end()) return false;
  ++dup_requests_;
  if (m_dup_requests_ == nullptr && config_.machine.metrics != nullptr) {
    // Registered on first duplicate so fault-free metric dumps are
    // unchanged.
    m_dup_requests_ = config_.machine.metrics->GetCounter(
        "ofm.dup_requests", {{"fragment", config_.fragment_name}});
  }
  if (m_dup_requests_ != nullptr) m_dup_requests_->Increment();
  // The original may still wait for its write to land (say, a duplicate
  // prepare during the force): answering now would be an early yes. It is
  // swallowed instead; the original reply leaves on landing.
  if (disk() != nullptr && !disk()->Durable(it->second.durable_at)) {
    return true;
  }
  SendMail(from, it->second.kind, it->second.body, it->second.size_bits);
  return true;
}

void OfmProcess::Respond(pool::ProcessId to, uint64_t request_id,
                         const char* kind, std::any body, int64_t size_bits,
                         pool::Disk::Ticket durable_at) {
  EvictExpiredDedupState();
  const auto key = std::make_pair(to, request_id);
  auto [it, inserted] = replies_->try_emplace(
      key, CachedReply{kind, body, size_bits, durable_at});
  if (inserted) {
    reply_order_.push_back({runtime()->simulator()->now(), key});
  }
  WhenDurable(durable_at, kMailDiskDone,
              [this, to, kind, body = std::move(body), size_bits] {
                SendMail(to, kind, body, size_bits);
              });
}

template <typename Reply>
void OfmProcess::RespondDurable(pool::ProcessId to, const char* kind,
                                std::shared_ptr<Reply> reply) {
  reply->commits_landed = ofm_->TakeSubmittedCommits();
  const uint64_t request_id = reply->request_id;
  const int64_t bits = reply->WireBits();
  Respond(to, request_id, kind, std::move(reply), bits, ofm_->last_write());
}

void OfmProcess::MaybeReplayStalled() {
  if (Stalled() || stalled_->empty()) return;
  std::vector<pool::Mail> replay = std::move(*stalled_);
  stalled_->clear();
  for (pool::Mail& mail : replay) OnMail(mail);
}

// Handler contract (D5): an OFM consumes the worker-side protocol — plan /
// write / txn-control execution, checkpointing, exchange data plane, 2PC
// decision recovery and the resync data plane.
// PRISMA_HANDLES(kMailExecPlan, kMailShufflePlan, kMailWrite, kMailTxnControl)
// PRISMA_HANDLES(kMailCheckpoint, kMailCreateIndex, kMailDecisionReply)
// PRISMA_HANDLES(kMailDecisionRetry, kMailBatchAck, kMailBatchResend)
// PRISMA_HANDLES(kMailTupleBatch, kMailResync, kMailResyncDelta)
// PRISMA_HANDLES(kMailResyncDeltaAck, kMailResyncPump, kMailDiskDone)
// PRISMA_HANDLES(kMailRpcTimeout)
void OfmProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailDiskDone) {
    RunDurable(mail);
    return;
  }
  if (mail.kind == kMailDecisionReply) {
    HandleDecisionReply(mail);
    return;
  }
  if (mail.kind == kMailDecisionRetry) {
    if (Stalled()) {
      SendDecisionRequest();
      SendSelfAfter(kDecisionRetryNs, kMailDecisionRetry);
    }
    return;
  }
  // Exchange data-plane mail is not a request: acks carry no request_id
  // (a late ack of a finished shuffle is simply ignored) and the resend
  // kind is a local timer.
  if (mail.kind == kMailBatchAck) {
    HandleBatchAck(mail);
    return;
  }
  if (mail.kind == kMailBatchResend) {
    shuffle_out_.OnTimer(mail);
    return;
  }
  // Resync data plane (DESIGN.md §13): bulk frames reach an OFM only as a
  // resync target (exchange consumers are separate processes), delta acks
  // only as a resync source, and the pump kind is a local timer.
  if (mail.kind == kMailTupleBatch) {
    HandleResyncBatch(mail);
    return;
  }
  if (mail.kind == kMailResyncDelta) {
    HandleResyncDelta(mail);
    return;
  }
  if (mail.kind == kMailResyncDeltaAck) {
    HandleResyncDeltaAck(mail);
    return;
  }
  if (mail.kind == kMailResyncPump) {
    resync_out_.OnTimer(mail);
    return;
  }
  if (mail.kind == kMailRpcTimeout) {
    deltas_.OnTimeout(mail);
    return;
  }
  // Everything else is a request carrying a request_id: answer duplicates
  // from the reply cache without re-executing.
  uint64_t request_id = 0;
  if (mail.kind == kMailExecPlan || mail.kind == kMailShufflePlan) {
    request_id =
        std::any_cast<std::shared_ptr<ExecPlanRequest>>(mail.body)->request_id;
  } else if (mail.kind == kMailWrite) {
    request_id =
        std::any_cast<std::shared_ptr<WriteRequest>>(mail.body)->request_id;
  } else if (mail.kind == kMailTxnControl) {
    request_id = std::any_cast<std::shared_ptr<TxnControlRequest>>(mail.body)
                     ->request_id;
  } else if (mail.kind == kMailCheckpoint) {
    request_id = std::any_cast<std::shared_ptr<CheckpointRequest>>(mail.body)
                     ->request_id;
  } else if (mail.kind == kMailCreateIndex) {
    request_id = std::any_cast<std::shared_ptr<CreateIndexRequest>>(mail.body)
                     ->request_id;
  } else if (mail.kind == kMailResync) {
    request_id =
        std::any_cast<std::shared_ptr<ResyncRequest>>(mail.body)->request_id;
  } else {
    // Unknown kinds are ignored (forward compatibility).
    return;
  }
  if (ReplayCached(mail.from, request_id)) return;
  if (Stalled()) {
    // In-doubt transactions are unresolved: only 2PC control addressed to
    // them proceeds (the decision may arrive as a direct commit/abort);
    // all other work waits so it cannot observe withheld effects or
    // interleave with the pending decisions.
    bool defer = true;
    if (mail.kind == kMailTxnControl) {
      auto request =
          std::any_cast<std::shared_ptr<TxnControlRequest>>(mail.body);
      defer = !InDoubt(request->txn);
    }
    if (defer) {
      stalled_->push_back(mail);
      return;
    }
  }
  if (mail.kind == kMailExecPlan || mail.kind == kMailShufflePlan) {
    HandleExecPlan(mail);
  } else if (mail.kind == kMailWrite) {
    HandleWrite(mail);
  } else if (mail.kind == kMailTxnControl) {
    HandleTxnControl(mail);
  } else if (mail.kind == kMailCheckpoint) {
    HandleCheckpoint(mail);
  } else if (mail.kind == kMailCreateIndex) {
    HandleCreateIndex(mail);
  } else if (mail.kind == kMailResync) {
    HandleResync(mail);
  }
}

void OfmProcess::HandleCheckpoint(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<CheckpointRequest>>(mail.body);
  auto reply = std::make_shared<WriteReply>();
  reply->request_id = request->request_id;
  reply->fragment = config_.fragment_name;
  if (resync_sources_->empty() && resync_cursors_->empty()) {
    reply->status = ofm_->Checkpoint();
  }
  // else: a resync is reading this fragment's WAL (active session, or a
  // bulk-phase cursor awaiting its cutover). Checkpointing now would
  // truncate the log out from under the delta cursor, so acknowledge but
  // skip; the next checkpoint round picks it up. The acknowledgment waits
  // for the snapshot to land.
  RespondDurable(mail.from, kMailWriteReply, reply);
}

void OfmProcess::HandleCreateIndex(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<CreateIndexRequest>>(mail.body);
  auto reply = std::make_shared<WriteReply>();
  reply->request_id = request->request_id;
  reply->fragment = config_.fragment_name;
  reply->status = request->ordered
                      ? ofm_->CreateBTreeIndex(request->index_name,
                                               request->columns)
                      : ofm_->CreateHashIndex(request->index_name,
                                              request->columns);
  Respond(mail.from, request->request_id, kMailWriteReply, reply,
          kControlBits);
}

std::shared_ptr<const algebra::Plan> OfmProcess::AdoptPlan(
    const pool::Mail& mail, uint64_t request_id,
    std::shared_ptr<const algebra::Plan> plan, const PlanRef& ref) {
  if (plan != nullptr) {
    // OFMs keep as many fragment plans as the plan cache keeps entries.
    const PlanCache* cache = config_.machine.plan_cache;
    const size_t capacity = cache != nullptr ? cache->capacity() : 0;
    if (ref.entry != 0 && capacity > 0 && plans_->emplace(ref, plan).second) {
      plan_order_.push_back(ref);
      if (plan_order_.size() > capacity) {
        plans_->erase(plan_order_.front());
        plan_order_.pop_front();
      }
    }
    return plan;
  }
  if (m_plan_hits_ == nullptr && config_.machine.metrics != nullptr) {
    const obs::Labels labels = {{"fragment", config_.fragment_name}};
    m_plan_hits_ =
        config_.machine.metrics->GetCounter("ofm.plan_resident_hits", labels);
    m_plan_misses_ =
        config_.machine.metrics->GetCounter("ofm.plan_resident_misses", labels);
  }
  auto it = plans_->find(ref);
  if (it != plans_->end()) {
    if (m_plan_hits_ != nullptr) m_plan_hits_->Increment();
    return it->second;
  }
  if (m_plan_misses_ != nullptr) m_plan_misses_->Increment();
  // Not cached, so a retransmitted request asks again: by then the
  // coordinator has moved on to a fresh request id.
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = request_id;
  reply->fragment = config_.fragment_name;
  reply->status = NotFoundError("plan not resident at " + config_.fragment_name);
  reply->plan_not_resident = true;
  SendMail(mail.from, kMailExecPlanReply, reply, reply->WireBits());
  return nullptr;
}

void OfmProcess::HandleExecPlan(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<ExecPlanRequest>>(mail.body);
  // A retransmitted stream request racing its own running stream: that
  // stream will answer the coordinator, so a second one would only
  // duplicate every batch.
  if (in_flight_->contains({mail.from, request->request_id})) return;
  const std::shared_ptr<const algebra::Plan> plan =
      AdoptPlan(mail, request->request_id, request->plan, request->plan_ref);
  if (plan == nullptr) return;
  std::optional<PeLocalResolver> colocated;
  const PeLocalRegistry* registry = config_.machine.registry;
  if (registry != nullptr) colocated.emplace(registry, pe());
  std::shared_ptr<obs::OperatorProfile> profile;
  if (request->profile) profile = std::make_shared<obs::OperatorProfile>();
  auto result = ofm_->ExecutePlan(
      *plan, colocated.has_value() ? &*colocated : nullptr, profile.get());
  if (m_plans_executed_ != nullptr) {
    const exec::ExecStats& stats = ofm_->last_exec_stats();
    m_plans_executed_->Increment();
    m_tuples_scanned_->Increment(stats.tuples_scanned);
    m_index_selections_->Increment(stats.index_selections);
    // Plan-level classification: tuples were scanned but no selection went
    // through an index, so at least one full fragment scan happened.
    if (stats.tuples_scanned > 0 && stats.index_selections == 0) {
      m_full_scans_->Increment();
    }
  }
  if (result.ok() && request->stream.has_value()) {
    OpenShuffle(mail.from, *request, std::move(result).value(),
                std::move(profile));
    return;
  }
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = request->request_id;
  reply->fragment = config_.fragment_name;
  if (result.ok()) {
    reply->rows = EncodeRows(*result);
    reply->profile = std::move(profile);
  } else {
    reply->status = result.status();
  }
  if (request->stream.has_value()) {
    // A failed stream is answered like a settled one: cached.
    Respond(mail.from, request->request_id, kMailExecPlanReply, reply,
            reply->WireBits());
    return;
  }
  // Not cached: a gathered plan is an idempotent read, and its reply
  // carries result rows — caching it for the full dedup retention window
  // would pin every result set in memory. A duplicated request simply
  // re-executes; the coordinator drops the surplus reply.
  SendMail(mail.from, kMailExecPlanReply, reply, reply->WireBits());
}

void OfmProcess::RegisterExchangeMetrics() {
  obs::MetricsRegistry* m = config_.machine.metrics;
  if (m == nullptr || m_batches_sent_ != nullptr) return;
  const obs::Labels labels = {{"fragment", config_.fragment_name}};
  m_batches_sent_ = m->GetCounter("exchange.batches_sent", labels);
  m_exchange_bytes_ = m->GetCounter("exchange.bytes", labels);
  m_exchange_stalls_ = m->GetCounter("exchange.stalls", labels);
  m_wire_bits_ = m->GetCounter("exchange.wire_bits", labels);
}

void OfmProcess::OpenShuffle(pool::ProcessId coordinator,
                             const ExecPlanRequest& request,
                             std::vector<Tuple> rows,
                             std::shared_ptr<obs::OperatorProfile> profile) {
  const ExecPlanRequest::Stream& spec = *request.stream;
  const size_t consumers = spec.consumers.size();
  PRISMA_CHECK(consumers > 0);
  std::vector<std::vector<Tuple>> partitions(consumers);
  if (spec.mode == ExecPlanRequest::Stream::Mode::kBroadcast) {
    for (size_t c = 0; c + 1 < consumers; ++c) partitions[c] = rows;
    partitions[consumers - 1] = std::move(rows);
  } else {
    // Same routing function as the stationary hash fragmenter
    // (Fragmenter::HashFragment), so a shuffled side lands on the
    // fragments that already hold the anchor table's matching keys.
    // Join shuffles drop NULL keys (they can never satisfy an equi-join);
    // group-by shuffles set keep_nulls — NULL is a real group — and route
    // them to consumer 0 (every producer agrees, so the group merges once).
    ChargeCpu(static_cast<sim::SimTime>(rows.size()) *
              runtime()->costs().hash_ns);
    for (Tuple& tuple : rows) {
      const Value& key = tuple.at(spec.partition_column);
      if (key.is_null()) {
        if (spec.keep_nulls) partitions[0].push_back(std::move(tuple));
        continue;
      }
      partitions[key.Hash() % consumers].push_back(std::move(tuple));
    }
  }

  RegisterExchangeMetrics();
  const uint64_t token = next_shuffle_token_++;
  StreamSender::Stream stream;
  stream.exchange_id = spec.exchange_id;
  stream.side = spec.side;
  stream.producer = spec.producer;
  stream.token = token;
  stream.stalls = m_exchange_stalls_;
  stream.channels.reserve(consumers);
  for (size_t c = 0; c < consumers; ++c) {
    obs::Gauge* gauge = nullptr;
    if (config_.machine.metrics != nullptr) {
      gauge = config_.machine.metrics->GetGauge(
          "exchange.credit", {{"fragment", config_.fragment_name},
                              {"channel", std::to_string(c)}});
    }
    stream.channels.push_back(
        {exec::OutboundChannel(std::move(partitions[c]),
                               config_.machine.exchange_batch_rows,
                               config_.machine.exchange_credit_window),
         spec.consumers[c], gauge});
  }
  (*in_flight_)[{coordinator, request.request_id}] = token;
  PRISMA_CHECK(shuffles_->emplace(token, ShuffleState{coordinator,
                                                      request.request_id,
                                                      std::move(profile)})
                   .second);
  shuffle_out_.Open(std::move(stream));
}

void OfmProcess::HandleBatchAck(const pool::Mail& mail) {
  const BatchAckMsg& ack =
      *std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
  if (const StreamSender::Stream* stream = shuffle_out_.OnAck(ack)) {
    if (stream->done()) FinishShuffle(ack.shuffle_token, Status::OK());
    return;
  }
  // Not a shuffle: maybe the bulk stream of a resync this OFM sources. A
  // delivered snapshot switches the session to WAL-delta catch-up rounds.
  const StreamSender::Stream* bulk = resync_out_.OnAck(ack);
  if (bulk == nullptr || !bulk->done()) return;
  auto it = resync_sources_->find(ack.shuffle_token);
  PRISMA_CHECK(it != resync_sources_->end());
  CloseResyncBulk(it->second);
  SendNextResyncDelta(it->second);
}

void OfmProcess::FinishShuffle(uint64_t token, Status status) {
  auto it = shuffles_->find(token);
  if (it == shuffles_->end()) return;
  const ShuffleState state = it->second;
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = state.request_id;
  reply->fragment = config_.fragment_name;
  reply->status = std::move(status);
  reply->shuffle_wire_bits = shuffle_out_.Find(token)->first_bits;
  reply->profile = state.profile;
  shuffle_out_.Close(token);
  // Cached, unlike plain plan replies: a shuffle completion is control-
  // sized (plus the profile under EXPLAIN ANALYZE), and re-running the
  // shuffle for a duplicated request would re-stream every batch at the
  // consumers.
  Respond(state.coordinator, state.request_id, kMailExecPlanReply, reply,
          reply->WireBits());
  in_flight_->erase({state.coordinator, state.request_id});
  shuffles_->erase(it);
}

// ------------------------------------------------------- Replica resync
// (DESIGN.md §13.) Source side: the GDH asks this (surviving, in-sync)
// replica to refill a freshly spawned empty peer. Phase 1 streams a
// committed snapshot over an exchange channel, then ships committed
// WAL-delta rounds stop-and-wait until the log is drained. Phase 2
// (cutover, under the fragment's exclusive lock) ships one final round
// and waits for the target to seal itself.

namespace {
// Catch-up rounds per bulk phase before the source stops chasing the
// writers and reports "caught up enough": the cutover's exclusive lock
// bounds whatever remains to one final round.
constexpr uint64_t kMaxResyncCatchupRounds = 64;
}  // namespace

void OfmProcess::HandleResync(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<ResyncRequest>>(mail.body);
  // A retransmitted request racing its own in-flight session: the running
  // session will answer the GDH.
  if (in_flight_->contains({mail.from, request->request_id})) return;
  ofm_->FlushMarkers();
  if (!ofm_->WritesDurable()) {
    // The snapshot and the WAL cursor below must describe the same state,
    // but the cursor sees only landed records: a commit marker buffered or
    // in flight would make its transaction look undecided and ship it
    // again on top of a snapshot that already holds it. Start once every
    // marker is flushed and every write of this OFM has landed
    // (re-entering through OnMail keeps the dedup checks).
    WhenDurable(ofm_->last_write(), kMailDiskDone,
                [this, mail] { OnMail(mail); });
    return;
  }
  auto fail = [&](Status status) {
    auto reply = std::make_shared<ResyncReply>();
    reply->request_id = request->request_id;
    reply->fragment = config_.fragment_name;
    reply->status = std::move(status);
    Respond(mail.from, request->request_id, kMailResyncReply, reply,
            kControlBits);
  };
  if (request->cutover && !resync_cursors_->contains(request->resync_id)) {
    // This incarnation never served the bulk phase (crash replacement
    // between phases lost the WAL cursor), so the final delta cannot be
    // bounded. The GDH aborts and restarts the resync from scratch.
    fail(FailedPreconditionError("fragment " + config_.fragment_name +
                                 " lost the WAL cursor of resync " +
                                 std::to_string(request->resync_id) +
                                 " (crash?)"));
    return;
  }
  RegisterExchangeMetrics();
  const uint64_t token = next_shuffle_token_++;
  ResyncSource source;
  source.gdh = mail.from;
  source.target = request->target;
  source.request_id = request->request_id;
  source.resync_id = request->resync_id;
  source.token = token;
  source.cutover = request->cutover;
  StreamSender::Stream bulk;
  if (!request->cutover) {
    // A fresh bulk request supersedes the cursor of any earlier attempt
    // on this fragment (the GDH runs at most one resync per fragment).
    resync_cursors_->clear();
    // Position the delta cursor and take the committed snapshot in the
    // same event: records at positions >= cursor are replayed by the
    // delta rounds, everything before is covered by the snapshot.
    size_t cursor = 0;
    auto boundary = ofm_->CommittedWalSince(&cursor);
    if (!boundary.ok()) {
      fail(boundary.status());
      return;
    }
    (*resync_cursors_)[request->resync_id] = cursor;
    std::vector<std::pair<storage::RowId, Tuple>> rows = ofm_->CommittedRows();
    source.bulk_tuples = rows.size();
    // Wire framing: the RowId rides as a prepended INT column so the
    // target reproduces the source's slot layout exactly.
    std::vector<Tuple> framed;
    framed.reserve(rows.size());
    for (auto& [row, tuple] : rows) {
      std::vector<Value> values;
      values.reserve(tuple.size() + 1);
      values.push_back(Value::Int(static_cast<int64_t>(row)));
      for (const Value& v : tuple.values()) values.push_back(v);
      framed.push_back(Tuple(std::move(values)));
    }
    bulk.exchange_id = request->resync_id;
    bulk.token = token;
    bulk.channels.push_back(
        {exec::OutboundChannel(std::move(framed),
                               config_.machine.exchange_batch_rows,
                               config_.machine.exchange_credit_window),
         request->target, nullptr});
    bulk.stalls = m_exchange_stalls_;
  }
  (*in_flight_)[{mail.from, request->request_id}] = token;
  auto [it, inserted] = resync_sources_->emplace(token, std::move(source));
  PRISMA_CHECK(inserted);
  if (it->second.cutover) {
    SendNextResyncDelta(it->second);  // Cutover: straight to the final delta.
  } else {
    resync_out_.Open(std::move(bulk));
  }
}

Status OfmProcess::NoProgress(const char* stream) const {
  return UnavailableError(std::string(stream) + " from fragment " +
                          config_.fragment_name + " made no progress after " +
                          std::to_string(config_.machine.retransmit.attempts) +
                          " retransmission windows");
}

Status OfmProcess::ResyncStalled() const {
  return UnavailableError(NoProgress("resync").message() +
                          " (crashed target?)");
}

void OfmProcess::CloseResyncBulk(ResyncSource& source) {
  if (const StreamSender::Stream* bulk = resync_out_.Find(source.token)) {
    source.wire_bits += bulk->first_bits;
    resync_out_.Close(source.token);
  }
}

void OfmProcess::SendNextResyncDelta(ResyncSource& source) {
  // Round-cap check comes BEFORE the WAL read: reading first would advance
  // the cursor past records this phase never ships, and the cutover round
  // would silently miss them.
  if (!source.cutover && source.delta_rounds >= kMaxResyncCatchupRounds) {
    FinishResyncSource(source.token, Status::OK());
    return;
  }
  auto cursor = resync_cursors_->find(source.resync_id);
  PRISMA_CHECK(cursor != resync_cursors_->end());
  auto records = ofm_->CommittedWalSince(&cursor->second);
  if (!records.ok()) {
    FinishResyncSource(source.token, records.status());
    return;
  }
  if (!source.cutover && records->empty()) {
    // Caught up: the phase is done. (The cutover phase instead always
    // ships its round — possibly empty — so the target seals itself.)
    FinishResyncSource(source.token, Status::OK());
    return;
  }
  ++source.delta_rounds;
  ++source.delta_seq;
  auto msg = std::make_shared<ResyncDeltaMsg>();
  msg->resync_id = source.resync_id;
  msg->session_token = source.token;
  msg->seq = source.delta_seq;
  msg->final_delta = source.cutover;
  msg->source_slots = ofm_->relation().num_slots();
  msg->records = std::move(records).value();
  source.delta_records += msg->records.size();
  const int64_t bits = msg->WireBits();
  source.wire_bits += static_cast<uint64_t>(bits);
  if (m_wire_bits_ != nullptr) m_wire_bits_->Increment(bits);
  // The budget counts resends, as for streams: attempts + 1 sends.
  deltas_.Send(source.token, source.target, kMailResyncDelta, std::move(msg),
               bits, config_.machine.retransmit.attempts + 1);
}

void OfmProcess::HandleResyncDeltaAck(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<ResyncDeltaAck>>(mail.body);
  auto it = resync_sources_->find(msg->session_token);
  if (it == resync_sources_->end()) return;  // Finished; stale ack.
  ResyncSource& source = it->second;
  if (msg->ack != source.delta_seq || !deltas_.Settle(source.token)) return;
  if (source.cutover) {
    // The target applied the final delta and sealed itself (index rebuild
    // + checkpoint); the resync is complete.
    FinishResyncSource(source.token, Status::OK());
  } else {
    SendNextResyncDelta(source);
  }
}

void OfmProcess::FinishResyncSource(uint64_t token, Status status) {
  auto it = resync_sources_->find(token);
  if (it == resync_sources_->end()) return;
  ResyncSource& source = it->second;
  CloseResyncBulk(source);
  deltas_.Settle(token);
  // The WAL cursor survives the session only on a successful bulk phase:
  // the cutover resumes from it. Failures drop it (the GDH restarts the
  // resync under a new id), and a successful cutover is done with it.
  if (!(status.ok() && !source.cutover)) {
    resync_cursors_->erase(source.resync_id);
  }
  auto reply = std::make_shared<ResyncReply>();
  reply->request_id = source.request_id;
  reply->fragment = config_.fragment_name;
  reply->bulk_tuples = source.bulk_tuples;
  reply->delta_records = source.delta_records;
  reply->delta_rounds = source.delta_rounds;
  reply->wire_bits = source.wire_bits;
  reply->status = std::move(status);
  Respond(source.gdh, source.request_id, kMailResyncReply, reply,
          kControlBits);
  in_flight_->erase({source.gdh, source.request_id});
  resync_sources_->erase(it);
}

// Target side: absorb the bulk stream (reordering / deduplicating through
// the StreamReceiver), then apply stop-and-wait delta rounds; the final
// delta triggers FinishResync (index rebuild + checkpoint).

void OfmProcess::HandleResyncBatch(const pool::Mail& mail) {
  if (config_.resync_id == 0) return;  // Not a resync target.
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.resync_id || resync_finished_) return;
  if (msg->shuffle_token < resync_token_) return;  // Superseded session.
  if (msg->shuffle_token > resync_token_) {
    // A fresh source session (the source re-answered the GDH's bulk
    // request): the old partial stream is void, restart from scratch.
    resync_token_ = msg->shuffle_token;
    resync_delta_applied_ = 0;
    bulk_in_.Reset();
    ofm_->ResyncReset();
  }
  // Left unacked, an undecodable batch makes the source's retransmission
  // budget fail the session with ResyncStalled.
  (void)bulk_in_.Receive(  // An undecodable batch is dropped.
      mail, [this](StreamReceiver::Delivery& delivery) {
        for (Tuple& t : delivery.rows) {
          const auto row = static_cast<storage::RowId>(t.at(0).int_value());
          std::vector<Value> values(t.values().begin() + 1,
                                    t.values().end());
          PRISMA_CHECK_OK(
              ofm_->ResyncRestoreRow(row, Tuple(std::move(values))));
        }
        return Status::OK();
      });
}

void OfmProcess::HandleResyncDelta(const pool::Mail& mail) {
  if (config_.resync_id == 0) return;  // Not a resync target.
  auto msg = std::any_cast<std::shared_ptr<ResyncDeltaMsg>>(mail.body);
  if (msg->resync_id != config_.resync_id) return;
  if (msg->session_token < resync_token_) return;  // Superseded session.
  if (msg->session_token > resync_token_) {
    // A new source session without a bulk stream: the cutover phase. It
    // continues from the contents the bulk session left behind; only the
    // stop-and-wait sequence restarts.
    resync_token_ = msg->session_token;
    resync_delta_applied_ = 0;
  }
  if (msg->seq == resync_delta_applied_ + 1) {
    if (!resync_finished_) {
      for (const std::string& record : msg->records) {
        PRISMA_CHECK_OK(ofm_->ResyncApplyRecord(record));
      }
      if (msg->final_delta) {
        // 2PC-consistent cutover: rebuild indexes and checkpoint, making
        // this replica's stable state self-sufficient for normal
        // recovery.
        PRISMA_CHECK_OK(ofm_->FinishResync(msg->source_slots));
        resync_finished_ = true;
      }
      SyncDurabilityMetrics();
    }
    resync_delta_applied_ = msg->seq;
  } else if (msg->seq > resync_delta_applied_ + 1) {
    // A gap: wait for the retransmission of the missing round. (Cannot
    // happen stop-and-wait unless the network reordered heavily; the
    // cumulative ack below repairs it either way.)
    return;
  }
  // seq <= applied falls through: re-acknowledge so a lost ack cannot
  // wedge the source. Acks wait for this OFM's writes to land: the final
  // delta's ack tells the GDH the replica is self-sufficient, which holds
  // only once its cutover checkpoint is durable.
  auto ack = std::make_shared<ResyncDeltaAck>();
  ack->resync_id = msg->resync_id;
  ack->session_token = msg->session_token;
  ack->ack = resync_delta_applied_;
  WhenDurable(ofm_->last_write(), kMailDiskDone,
              [this, to = mail.from, ack = std::move(ack)] {
                SendMail(to, kMailResyncDeltaAck, ack, kControlBits);
              });
}

void OfmProcess::HandleWrite(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<WriteRequest>>(mail.body);
  auto reply = std::make_shared<WriteReply>();
  reply->request_id = request->request_id;
  reply->fragment = config_.fragment_name;
  if (Finished(request->txn)) {
    // A delayed or reordered write arriving after its transaction already
    // terminated here: applying it would re-open the transaction and leak
    // uncommitted effects, so refuse it.
    reply->status = AbortedError("transaction " +
                                 std::to_string(request->txn) +
                                 " already terminated on fragment " +
                                 config_.fragment_name);
    Respond(mail.from, request->request_id, kMailWriteReply, reply,
            kControlBits);
    return;
  }
  if (request->txn != exec::kAutoCommit) seen_txns_->insert(request->txn);
  switch (request->op) {
    case WriteRequest::Op::kInsert: {
      auto rows = TupleBatchRows(request->rows);
      if (!rows.ok()) {
        reply->status = rows.status();
        break;
      }
      // A failing row fails the request; the GDH then aborts the
      // transaction, which undoes the rows inserted before it.
      for (Tuple& row : *rows) {
        reply->status = ofm_->Insert(request->txn, std::move(row)).status();
        if (!reply->status.ok()) break;
      }
      if (reply->status.ok()) {
        reply->affected_rows = rows->size();
        reply->row_delta = static_cast<int64_t>(rows->size());
      }
      break;
    }
    case WriteRequest::Op::kDeleteWhere: {
      auto count = ofm_->DeleteWhere(request->txn, request->predicate.get());
      if (count.ok()) {
        reply->affected_rows = *count;
        reply->row_delta = -static_cast<int64_t>(*count);
      } else {
        reply->status = count.status();
      }
      break;
    }
    case WriteRequest::Op::kUpdateWhere: {
      std::vector<std::pair<size_t, const algebra::Expr*>> assignments;
      assignments.reserve(request->assignments.size());
      for (const auto& [col, expr] : request->assignments) {
        assignments.push_back({col, expr.get()});
      }
      auto count =
          ofm_->UpdateWhere(request->txn, request->predicate.get(), assignments);
      if (count.ok()) {
        reply->affected_rows = *count;
      } else {
        reply->status = count.status();
      }
      break;
    }
  }
  if (reply->status.ok()) {
    if (m_writes_ != nullptr) m_writes_->Increment();
    // The statistics ride with the row delta (DESIGN.md §14.2).
    std::vector<uint64_t> distinct = ofm_->DistinctEstimates();
    if (distinct != reported_distinct_) {
      reported_distinct_ = distinct;
      reply->distinct = std::move(distinct);
    }
  }
  SyncDurabilityMetrics();
  // An auto-commit write is acknowledged once its redo record landed;
  // transactional writes only buffer theirs, so this is normally at once.
  RespondDurable(mail.from, kMailWriteReply, reply);
}

void OfmProcess::HandleTxnControl(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<TxnControlRequest>>(mail.body);
  auto reply = std::make_shared<TxnControlReply>();
  reply->request_id = request->request_id;
  reply->fragment = config_.fragment_name;
  switch (request->op) {
    case TxnControlRequest::Op::kPrepare:
      if (InDoubt(request->txn)) {
        // Prepared before the crash; the vote stands.
        reply->status = Status::OK();
      } else if (!seen_txns_->contains(request->txn)) {
        // This incarnation never received a write of the transaction: a
        // crash replacement lost the writes (the coordinator only sends
        // prepare after every write was acknowledged). Voting yes could
        // commit a partial transaction, so vote no.
        reply->status =
            AbortedError("fragment " + config_.fragment_name +
                         " lost state of transaction " +
                         std::to_string(request->txn) + " (crash?)");
      } else {
        // A transaction whose writes all matched zero rows has no Ofm
        // state; Prepare treats it as a trivial yes.
        reply->status = ofm_->Prepare(request->txn);
      }
      break;
    case TxnControlRequest::Op::kCommit:
      reply->status = InDoubt(request->txn)
                          ? ofm_->ResolveRecovered(request->txn, true)
                          : ofm_->Commit(request->txn);
      // Recorded even when this OFM never saw the transaction: a delayed
      // write of it may still arrive and must find it terminated.
      NoteFinished(request->txn, /*committed=*/true);
      seen_txns_->erase(request->txn);
      break;
    case TxnControlRequest::Op::kCommitOnePhase:
      reply->status = CommitOnePhase(request->txn);
      NoteFinished(request->txn, reply->status.ok());
      seen_txns_->erase(request->txn);
      break;
    case TxnControlRequest::Op::kAbort:
      reply->status = InDoubt(request->txn)
                          ? ofm_->ResolveRecovered(request->txn, false)
                          : ofm_->Abort(request->txn);
      NoteFinished(request->txn, /*committed=*/false);
      seen_txns_->erase(request->txn);
      break;
  }
  if (reply->status.ok() && m_commits_ != nullptr) {
    if (request->op == TxnControlRequest::Op::kAbort) {
      m_aborts_->Increment();
    } else if (request->op != TxnControlRequest::Op::kPrepare) {
      m_commits_->Increment();
    }
  }
  SyncDurabilityMetrics();
  if (request->op == TxnControlRequest::Op::kAbort) {
    // Presumed abort: the abort marker need not be durable before the
    // acknowledgment — if it is lost, recovery finds the transaction in
    // doubt and the coordinator, with no commit record, answers abort.
    Respond(mail.from, request->request_id, kMailTxnControlReply, reply,
            kControlBits);
  } else {
    // A yes-vote leaves only once the prepare record is durable, and a
    // one-phase outcome once its single write lands. A phase-2 commit is
    // answered once the writes before it (the prepare) are durable: its
    // marker waits for this OFM's next write, and the reply that follows
    // that write lists it (commits_landed). The coordinator forgets the
    // decision only then.
    RespondDurable(mail.from, kMailTxnControlReply, reply);
  }
  MaybeReplayStalled();
}

Status OfmProcess::CommitOnePhase(exec::TxnId txn) {
  if (seen_txns_->contains(txn)) {
    // This OFM alone decides: the buffered redo records and the commit
    // marker go out as one forced write, and the reply waits for it.
    return ofm_->Commit(txn);
  }
  // A re-sent request whose original this process (or its predecessor,
  // before a crash) already answered. Never presume abort: the writes may
  // have committed and only the reply was lost.
  auto finished = finished_->find(txn);
  if ((finished != finished_->end() && finished->second) ||
      (finished == finished_->end() && ofm_->CommitLogged(txn))) {
    return Status::OK();
  }
  // No commit anywhere: the writes died with a crashed predecessor before
  // the commit write landed, or the transaction was aborted here.
  return AbortedError("fragment " + config_.fragment_name +
                      " lost state of transaction " + std::to_string(txn) +
                      " (crash?)");
}

void OfmProcess::HandleDecisionReply(const pool::Mail& mail) {
  auto reply = std::any_cast<std::shared_ptr<DecisionReply>>(mail.body);
  PRISMA_CHECK(reply->transactions.size() == reply->commit.size());
  // Late and duplicated replies are fine: only transactions still in
  // doubt are resolved, matched through the echoed ids.
  for (size_t i = 0; i < reply->transactions.size(); ++i) {
    if (!InDoubt(reply->transactions[i])) continue;
    PRISMA_CHECK_OK(
        ofm_->ResolveRecovered(reply->transactions[i], reply->commit[i]));
    NoteFinished(reply->transactions[i], reply->commit[i]);
  }
  SyncDurabilityMetrics();
  MaybeReplayStalled();
}

void OfmProcess::SyncDurabilityMetrics() {
  if (m_wal_records_ == nullptr) return;
  const uint64_t wal = ofm_->wal_records();
  const uint64_t markers = ofm_->wal_markers();
  const uint64_t redo = ofm_->redo_records_applied();
  m_wal_records_->Increment(wal - wal_synced_);
  m_wal_markers_->Increment(markers - markers_synced_);
  m_redo_applied_->Increment(redo - redo_synced_);
  wal_synced_ = wal;
  markers_synced_ = markers;
  redo_synced_ = redo;
}

}  // namespace prisma::gdh
