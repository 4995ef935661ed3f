#include "gdh/gdh_process.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "gdh/ofm_process.h"
#include "gdh/plan_cache.h"
#include "gdh/query_process.h"
#include "sql/parser.h"

namespace prisma::gdh {

using sql::BoundStatement;
using sql::Statement;

namespace {

/// Stable-store stream holding the presumed-abort decision log: "C <txn>"
/// when a commit decision is forced, "E <txn>" once every participant
/// acknowledged it (unforced: it lands with the next forced write). Aborts
/// and one-phase commits are never logged.
constexpr char kDecisionStream[] = "gdh.2pc";

/// Stable-store stream of transaction-id reservations: each record is a
/// high-water mark below which every id may already have been handed out.
/// Aborted and read-only transactions leave no trace in the decision log,
/// so without this a restarted GDH could reuse their ids and trip the
/// OFMs' terminated-transaction dedup ("already terminated").
constexpr char kTxnIdStream[] = "gdh.txnids";
/// Ids covered by one reservation record (one disk write per chunk).
constexpr exec::TxnId kTxnIdChunk = 64;
/// Ids kept reserved ahead of the next one handed out. A reservation is
/// written while the previous ones still cover ~kTxnIdLookahead - kTxnIdChunk
/// ids — 192 statements, far more than arrive during one 25 ms force at
/// the serving rates measured here — so statements do not wait for it.
constexpr exec::TxnId kTxnIdLookahead = 4 * kTxnIdChunk;

/// Retry budget of a one-phase commit request: none. Its participant alone
/// knows whether the commit landed, so the GDH re-sends the (idempotent)
/// request until it learns the outcome; it never presumes abort.
constexpr int kUnboundedAttempts = std::numeric_limits<int>::max();

}  // namespace

std::vector<FragmentHome> AllocateFragments(
    const std::vector<net::NodeId>& fragment_pes, net::NodeId gdh_pe,
    size_t fragments) {
  // The GDH's PE takes overflow slots only, so no PE hosts two fragments
  // of a table while another PE hosts none.
  std::vector<net::NodeId> pool = fragment_pes;
  if (fragments > pool.size() &&
      std::find(pool.begin(), pool.end(), gdh_pe) == pool.end()) {
    pool.push_back(gdh_pe);
  }
  std::vector<FragmentHome> homes(fragments);
  for (size_t i = 0; i < fragments; ++i) {
    homes[i].pe = pool[i % pool.size()];
    homes[i].backup_pe = pool[(i + 1) % pool.size()];
  }
  return homes;
}

GdhProcess::GdhProcess(Config config)
    : config_(std::move(config)),
      rpcs_(this, config_.machine.retransmit,
            {[this](const Rpcs::PendingRpc& rpc) {
               auto ofm = OfmOf(rpc.target.replica);
               return ofm.ok() ? *ofm : pool::kNoProcess;
             },
             [this](uint64_t id, Rpcs::PendingRpc& rpc) {
               return RetryRpc(id, rpc);
             },
             [this](uint64_t id, const Rpcs::PendingRpc& rpc) {
               RpcExhausted(id, rpc);
             }}) {
  PRISMA_CHECK(!config_.fragment_pes.empty());
  // Replication needs a distinct PE for the backup (anti-affinity) and a
  // WAL to resync from.
  PRISMA_CHECK(!config_.replicate_fragments ||
               (config_.fragment_pes.size() >= 2 &&
                config_.base_ofm_type == exec::OfmType::kFull));
  if (config_.machine.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.machine.metrics;
    m_statements_ = m.GetCounter("gdh.statements");
    m_selects_ = m.GetCounter("gdh.selects_spawned");
    m_txns_begun_ = m.GetCounter("gdh.txns_begun");
    m_txns_committed_ = m.GetCounter("gdh.txns_committed");
    m_txns_aborted_ = m.GetCounter("gdh.txns_aborted");
    m_deadlock_aborts_ = m.GetCounter("gdh.deadlock_aborts");
    m_write_ops_ = m.GetCounter("gdh.write_ops_sent");
    m_2pc_rounds_ = m.GetCounter("gdh.2pc_rounds");
    m_one_phase_commits_ = m.GetCounter("gdh.one_phase_commits");
  }
}

void GdhProcess::OnStart() {
  // A restarted GDH re-learns its unforgotten commit decisions so it can
  // answer in-doubt inquiries; everything absent is presumed aborted.
  ReplayDecisionLog();
}

// --------------------------------------------------------------- Plumbing

obs::Counter* GdhProcess::LazyCounter(obs::Counter** slot, const char* name) {
  if (*slot == nullptr && config_.machine.metrics != nullptr) {
    *slot = config_.machine.metrics->GetCounter(name);
  }
  return *slot;
}

void GdhProcess::ReplyToClient(pool::ProcessId client, uint64_t request_id,
                               Status status, uint64_t affected,
                               exec::TxnId txn) {
  auto reply = std::make_shared<ClientReply>();
  reply->request_id = request_id;
  reply->status = std::move(status);
  reply->affected_rows = affected;
  reply->txn = txn;
  SendMail(client, kMailClientReply, reply, reply->WireBits());
}

StatusOr<pool::ProcessId> GdhProcess::OfmOf(const std::string& fragment) const {
  const std::string table = TableOfFragment(fragment);
  if (table.empty()) {
    return InvalidArgumentError("malformed fragment name " + fragment);
  }
  ASSIGN_OR_RETURN(const TableInfo* info, dictionary_->GetTable(table));
  for (const FragmentInfo& frag : info->fragments) {
    for (int r = 0; r < frag.num_replicas(); ++r) {
      if (frag.ReplicaName(r) == fragment) return frag.ReplicaOfm(r);
    }
  }
  return NotFoundError("no fragment " + fragment);
}

FragmentInfo* GdhProcess::FindFragment(const std::string& replica_name,
                                       int* replica) {
  const std::string table = TableOfFragment(replica_name);
  if (table.empty()) return nullptr;
  auto info = dictionary_->GetTable(table);
  if (!info.ok()) return nullptr;
  for (FragmentInfo& frag : (*info)->fragments) {
    for (int r = 0; r < frag.num_replicas(); ++r) {
      if (frag.ReplicaName(r) == replica_name) {
        if (replica != nullptr) *replica = r;
        return &frag;
      }
    }
  }
  return nullptr;
}

void GdhProcess::ApplyWriteStats(const WriteReply& reply) {
  // Both replicas hold the same rows: the statistics live once, on the
  // base fragment, no matter which replica's reply carried them.
  if (reply.row_delta == 0 && reply.distinct.empty()) return;
  FragmentInfo* frag = FindFragment(reply.fragment, nullptr);
  if (frag == nullptr) return;
  const int64_t delta = reply.row_delta;
  if (delta < 0 && frag->row_count < static_cast<uint64_t>(-delta)) {
    frag->row_count = 0;
  } else {
    frag->row_count += delta;
  }
  if (!reply.distinct.empty()) frag->distinct = reply.distinct;
}

bool GdhProcess::HasTxnId() const {
  return disk() == nullptr || next_txn_ < txn_id_hwm_;
}

void GdhProcess::ReserveTxnIds() {
  if (disk() == nullptr || txn_id_reserved_ - next_txn_ >= kTxnIdLookahead) {
    return;
  }
  while (txn_id_reserved_ - next_txn_ < kTxnIdLookahead) {
    txn_id_reserved_ += kTxnIdChunk;
  }
  const exec::TxnId mark = txn_id_reserved_;
  const pool::Disk::Ticket ticket = WriteStable(
      ForcedWrite().Append(kTxnIdStream, std::to_string(mark)));
  WhenDurable(ticket, kMailDiskDone, [this, mark] {
    txn_id_hwm_ = std::max(txn_id_hwm_, mark);
    while (!id_waiters_.empty() && HasTxnId()) {
      std::function<void()> waiter = std::move(id_waiters_.front());
      id_waiters_.pop_front();
      waiter();
    }
  });
}

exec::TxnId GdhProcess::NewTxn(bool explicit_txn) {
  PRISMA_CHECK(HasTxnId()) << "transaction id " << next_txn_
                           << " is not durably reserved";
  const exec::TxnId txn = next_txn_++;
  (*txns_)[txn].explicit_txn = explicit_txn;
  ReserveTxnIds();
  return txn;
}

// ----------------------------------------------------------- Hardened RPC

void GdhProcess::Multicast::Count(const Status& status, uint64_t rows) {
  ++received;
  if (!status.ok() && first_error.ok()) first_error = status;
  affected += rows;
  if (received == expected) std::exchange(done, nullptr)(*this);
}

void GdhProcess::FanOut(const std::vector<std::string>& targets,
                        const char* kind, int max_attempts,
                        const BuildRequest& build, Done done) {
  auto batch = std::make_shared<Multicast>();
  batch->done = std::move(done);
  size_t members = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    std::vector<std::string> replicas{targets[i]};
    FragmentInfo* frag =
        kind == kMailWrite ? FindFragment(targets[i], nullptr) : nullptr;
    if (frag != nullptr) replicas = WriteTargets(*frag);
    auto dual = replicas.size() > 1 ? std::make_shared<DualWrite>() : nullptr;
    for (const std::string& replica : replicas) {
      const uint64_t request_id = next_request_id_++;
      Request request = build(i, replica, request_id);
      rpcs_.Send(request_id, Member{replica, batch, dual}, kind,
                 std::move(request.body), request.bits, max_attempts);
      ++members;
    }
  }
  batch->expected = members;
  if (batch->received == members) std::exchange(batch->done, nullptr)(*batch);
}

void GdhProcess::TxnControl(TxnControlRequest::Op op, exec::TxnId txn,
                            const std::vector<std::string>& targets,
                            int max_attempts, Done done) {
  FanOut(
      targets, kMailTxnControl, max_attempts,
      [op, txn](size_t, const std::string&, uint64_t request_id) -> Request {
        auto request = std::make_shared<TxnControlRequest>();
        request->request_id = request_id;
        request->op = op;
        request->txn = txn;
        return {request};
      },
      std::move(done));
}

bool GdhProcess::SettleRpc(uint64_t request_id, const Status& status,
                           uint64_t rows) {
  std::shared_ptr<Multicast> batch;
  if (auto call = rpcs_.calls().find(request_id);
      call != rpcs_.calls().end()) {
    batch = call->second.target.batch;
    rpcs_.Settle(request_id);
  } else if (auto parked = parked_commits_.find(request_id);
             parked != parked_commits_.end()) {
    // The late reply of a participant that died: nothing to re-send.
    batch = parked->second.member.batch;
    parked_commits_.erase(parked);
  } else {
    return false;
  }
  batch->Count(status, rows);
  return true;
}

bool GdhProcess::SettleReply(uint64_t request_id, const Status& status,
                             uint64_t rows) {
  if (SettleRpc(request_id, status, rows)) return true;
  Inc(LazyCounter(&m_dup_replies_, "gdh.dup_replies"));
  return false;
}

bool GdhProcess::ShedRpc(uint64_t request_id, const std::string& target) {
  int replica = 0;
  FragmentInfo* frag = FindFragment(target, &replica);
  if (frag == nullptr || !frag->replicated || !TryFailover(*frag, replica)) {
    return false;
  }
  // A fresh shed sweeps this RPC from inside TryFailover (it was
  // addressed to the shed replica); an already-shed replica's RPC is
  // settled here instead.
  SettleRpc(request_id, Status::OK());
  return true;
}

void GdhProcess::RpcExhausted(uint64_t request_id,
                              const Rpcs::PendingRpc& rpc) {
  // A replicated fragment with a healthy peer sheds the unanswered
  // replica instead of failing the operation: the replica is marked
  // stale (rebuilt by resync before it serves anything again) and this
  // member settles benignly — the surviving replica alone carries the
  // write, the prepare vote or the decision.
  const std::string& target = rpc.target.replica;
  if (rpc.kind != kMailResync && ShedRpc(request_id, target)) return;
  // Budget exhausted: degrade to a typed kUnavailable so the statement
  // completes instead of hanging. The message names the unreachable
  // fragment and its PE (degradation reporting).
  int replica = 0;
  const FragmentInfo* frag = FindFragment(target, &replica);
  Inc(LazyCounter(&m_rpc_failures_, "gdh.rpc_failures"));
  const net::NodeId target_pe = frag != nullptr ? frag->ReplicaPe(replica) : 0;
  Status failure = UnavailableError(
      "fragment " + target + " on PE " + std::to_string(target_pe) +
      " did not answer " + rpc.kind + " after " +
      std::to_string(rpc.attempts) + " attempts (crashed PE?)");
  CountUnavailable(target_pe, TableOfFragment(target));
  // The OFM may have executed the write and only its reply was lost: a
  // late reply must still feed the row-count statistics.
  if (rpc.kind == kMailWrite) NoteDegradedWrite(request_id);
  SettleRpc(request_id, failure);
}

bool GdhProcess::RetryRpc(uint64_t request_id, const Rpcs::PendingRpc& rpc) {
  Inc(LazyCounter(&m_rpc_retries_, "gdh.rpc_retries"));
  if (rpc.kind == kMailResync) return true;
  auto ofm = OfmOf(rpc.target.replica);
  if (ofm.ok() && *ofm != pool::kNoProcess && runtime()->IsAlive(*ofm)) {
    return true;
  }
  if (rpc.kind == kMailTxnControl &&
      std::any_cast<std::shared_ptr<TxnControlRequest>>(rpc.body)->op ==
          TxnControlRequest::Op::kCommitOnePhase) {
    // The participant died after the request left, so its commit write
    // may have landed. Park the request without a timer; RecoverReplica
    // re-sends it to the successor, which answers from its WAL.
    parked_commits_[request_id] = {rpc.target, rpc.body};
    rpcs_.Settle(request_id);
    return false;
  }
  // The host process is gone, not just slow: a replicated fragment with a
  // healthy peer sheds the replica on the first retry that notices,
  // mirroring the scatter-time shed in WriteTargets. Waiting out the
  // budget would pin decision RPCs (extended budget) for seconds on a
  // target that cannot answer before its PE restarts.
  return !ShedRpc(request_id, rpc.target.replica);
}

void GdhProcess::NoteDegradedWrite(uint64_t request_id) {
  degraded_writes_.insert(request_id);
  degraded_writes_order_.push_back(request_id);
  if (degraded_writes_order_.size() > kDegradedWriteCap) {
    // Entries whose late reply already arrived were erased from the set;
    // the stale deque slot is simply skipped.
    degraded_writes_.erase(degraded_writes_order_.front());
    degraded_writes_order_.pop_front();
  }
}

sim::SimTime GdhProcess::DedupRetentionNs() const {
  // Worst-case sender retransmission window: decision-phase RPCs make up
  // to rpc_attempts + 4 sends, each gap bounded by the larger of the
  // initial timeout and the backoff cap; doubled for delivery jitter and
  // duplicates the network may hold back.
  const RetransmitPolicy& policy = config_.machine.retransmit;
  const sim::SimTime gap = std::max(policy.timeout_ns, policy.backoff_cap_ns);
  return 2 * static_cast<sim::SimTime>(policy.attempts + 5) * gap;
}

void GdhProcess::DoomTxnsInvolving(const std::string& fragment) {
  for (auto& [txn, state] : *txns_) {
    if (state.doomed || !state.involved.contains(fragment)) continue;
    state.doomed = true;
    Inc(LazyCounter(&m_txns_doomed_, "gdh.txns_doomed"));
  }
}

// ------------------------------------------ Replication (DESIGN.md §13)

bool GdhProcess::TryFailover(FragmentInfo& frag, int dead) {
  if (!frag.replicated) return false;
  if (frag.replica_state(dead) != ReplicaState::kInSync) {
    // Already shed (stale or mid-resync): nothing further to decide.
    return true;
  }
  const int peer = 1 - dead;
  const pool::ProcessId peer_ofm = frag.ReplicaOfm(peer);
  // The failover decision rule: a replica may only be shed while its peer
  // is in-sync and alive. With both replicas down (double failure) every
  // operation keeps both as targets and degrades to typed kUnavailable —
  // never a wrong answer served from a stale copy.
  if (frag.replica_state(peer) != ReplicaState::kInSync ||
      peer_ofm == pool::kNoProcess || !runtime()->IsAlive(peer_ofm)) {
    return false;
  }
  // PRISMA_TRANSITION(kInSync, kStale, observed dead; peer carries on alone)
  frag.set_replica_state(dead, ReplicaState::kStale);
  // Replica placement changed under the cached plans; conservatively drop
  // them (reads re-choose replicas at scatter time, but a fresh plan also
  // re-reads fragment liveness for pruning decisions).
  if (config_.machine.plan_cache != nullptr) {
    config_.machine.plan_cache->Invalidate("failover");
  }
  Inc(LazyCounter(&m_stale_marks_, "replica.stale_marks"));
  if (frag.primary_replica == dead) {
    frag.primary_replica = peer;
    Inc(LazyCounter(&m_failovers_, "replica.failovers"));
  }
  // Settle every outstanding RPC addressed to the shed replica right
  // away. Decision-phase RPCs carry an extended retry budget; left
  // pending they would pin the transaction (and the locks it holds) on
  // an answer the stale copy can never usefully give — resync rebuilds
  // it from the survivor, so the survivor's ack alone completes each
  // operation.
  const std::string shed_name = frag.ReplicaName(dead);
  std::vector<uint64_t> orphaned;
  for (const auto& [id, rpc] : rpcs_.calls()) {
    if (rpc.target.replica == shed_name && rpc.kind != kMailResync) {
      orphaned.push_back(id);
    }
  }
  for (uint64_t id : orphaned) SettleRpc(id, Status::OK());
  ForgetMarkersOf(shed_name);
  // A shed whose victim process is still alive was a reply-path loss (or
  // an exhaustion that outlived the PE's restart), not a crash: its host
  // PE is up and no future recovery event will come for it, so rebuild
  // the replica right away. Crash sheds leave a dead process; their
  // resync waits for the PE's recovery event as usual.
  const pool::ProcessId shed_ofm = frag.ReplicaOfm(dead);
  if (shed_ofm != pool::kNoProcess && runtime()->IsAlive(shed_ofm)) {
    const size_t hash = frag.name.rfind('#');
    if (hash != std::string::npos) {
      MaybeStartResync(frag.name.substr(0, hash),
                       std::stoi(frag.name.substr(hash + 1)));
    }
  }
  return true;
}

std::vector<std::string> GdhProcess::WriteTargets(FragmentInfo& frag) {
  if (!frag.replicated) return {frag.name};
  std::vector<std::string> out;
  for (int r = 0; r < frag.num_replicas(); ++r) {
    if (frag.replica_state(r) != ReplicaState::kInSync) continue;
    const pool::ProcessId ofm = frag.ReplicaOfm(r);
    // Shed known-dead replicas at scatter time instead of burning a full
    // retransmission budget discovering it per write.
    if ((ofm == pool::kNoProcess || !runtime()->IsAlive(ofm)) &&
        TryFailover(frag, r)) {
      continue;
    }
    out.push_back(frag.ReplicaName(r));
  }
  if (out.empty()) {
    // No in-sync replica at all (double failure): target the primary and
    // let the RPC budget surface a typed kUnavailable.
    out.push_back(frag.ReplicaName(frag.primary_replica));
  }
  return out;
}

std::vector<std::string> GdhProcess::ActiveInvolved(const TxnState& state) {
  std::vector<std::string> out;
  for (const std::string& name : state.involved) {
    int replica = 0;
    const FragmentInfo* frag = FindFragment(name, &replica);
    if (frag != nullptr && frag->replicated &&
        frag->replica_state(replica) != ReplicaState::kInSync) {
      // Shed mid-transaction: the survivor alone decides the outcome; the
      // stale copy is rebuilt by resync before serving again.
      continue;
    }
    out.push_back(name);
  }
  if (out.empty()) out.assign(state.involved.begin(), state.involved.end());
  return out;
}

std::vector<std::string> GdhProcess::BaseFragments(
    const std::vector<std::string>& replicas) {
  std::vector<std::string> out;
  for (const std::string& name : replicas) {
    int replica = 0;
    const FragmentInfo* frag = FindFragment(name, &replica);
    const std::string& base = frag != nullptr ? frag->name : name;
    if (std::find(out.begin(), out.end(), base) == out.end()) {
      out.push_back(base);
    }
  }
  return out;
}

void GdhProcess::CountUnavailable(net::NodeId pe, const std::string& table) {
  if (config_.machine.metrics == nullptr) return;
  config_.machine.metrics
      ->GetCounter("query.unavailable", {{"pe", std::to_string(pe)},
                                         {"table", table}})
      ->Increment();
}

// ------------------------------------------------- Presumed-abort journal

void GdhProcess::LogCommitDecision(exec::TxnId txn,
                                   std::function<void()> then) {
  auto decided = [this, txn, then = std::move(then)] {
    committed_->insert(txn);
    then();
  };
  if (disk() == nullptr) {
    decided();
    return;
  }
  // Concurrent decisions queue on the busy device and land together as
  // one physical write (group commit).
  WhenDurable(WriteStable(ForcedWrite().Append(
                  kDecisionStream, "C " + std::to_string(txn))),
              kMailDiskDone, std::move(decided));
}

void GdhProcess::LogCommitEnd(exec::TxnId txn) {
  committed_->erase(txn);
  if (disk() == nullptr) return;
  // Unforced: the record waits in memory for the next forced write.
  pending_ends_.push_back("E " + std::to_string(txn));
}

void GdhProcess::CommitMarkersLanded(const std::string& replica,
                                     const std::vector<exec::TxnId>& txns) {
  for (const exec::TxnId txn : txns) {
    auto it = markers_awaited_.find(txn);
    if (it == markers_awaited_.end() || it->second.erase(replica) == 0 ||
        !it->second.empty()) {
      continue;
    }
    markers_awaited_.erase(it);
    LogCommitEnd(txn);
  }
}

void GdhProcess::ForgetMarkersOf(const std::string& replica) {
  std::vector<exec::TxnId> awaiting;
  for (const auto& [txn, replicas] : markers_awaited_) {
    if (replicas.contains(replica)) awaiting.push_back(txn);
  }
  CommitMarkersLanded(replica, awaiting);
}

storage::StableWrite GdhProcess::ForcedWrite() {
  storage::StableWrite write;
  for (std::string& end : pending_ends_) {
    write.Append(kDecisionStream, std::move(end));
  }
  pending_ends_.clear();
  return write;
}

void GdhProcess::ReplayDecisionLog() {
  if (disk() == nullptr) return;
  const storage::StableStore* store = &disk()->store();
  for (const std::string& record : store->ReadStream(kDecisionStream)) {
    if (record.size() < 3 || record[1] != ' ') continue;
    const exec::TxnId txn = std::strtoll(record.c_str() + 2, nullptr, 10);
    if (record[0] == 'C') {
      committed_->insert(txn);
    } else if (record[0] == 'E') {
      committed_->erase(txn);
    }
    if (txn >= next_txn_) next_txn_ = txn + 1;
  }
  for (const std::string& record : store->ReadStream(kTxnIdStream)) {
    const exec::TxnId hwm = std::strtoll(record.c_str(), nullptr, 10);
    if (hwm > next_txn_) next_txn_ = hwm;
  }
  // Nothing is reserved for this incarnation yet: ReserveTxnIds writes a
  // fresh mark before any id is handed out.
  txn_id_hwm_ = next_txn_;
  txn_id_reserved_ = next_txn_;
}

// ----------------------------------------------------------------- Locks

void GdhProcess::AcquireExclusive(exec::TxnId txn,
                                  std::vector<std::string> resources,
                                  size_t index,
                                  std::function<void(Status)> then) {
  if (index >= resources.size()) {
    then(Status::OK());
    return;
  }
  const std::string resource = resources[index];
  locks_->Acquire(
      txn, resource, LockMode::kExclusive,
      [this, txn, resources = std::move(resources), index,
       then = std::move(then)](Status status) mutable {
        if (!status.ok()) {
          Inc(m_deadlock_aborts_);
          then(std::move(status));
          return;
        }
        AcquireExclusive(txn, std::move(resources), index + 1,
                         std::move(then));
      });
}

void GdhProcess::HandleLockBatch(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<LockBatchRequest>>(mail.body);
  ChargeCpu(runtime()->costs().message_handling_ns);
  const pool::ProcessId requester = mail.from;
  const uint64_t request_id = request->request_id;
  const auto key = std::make_pair(requester, request_id);
  // Dedup: a retransmitted batch must not acquire the locks twice. While
  // the original acquisition is still in flight the duplicate is simply
  // dropped — the requester retransmits again and eventually finds the
  // cached reply.
  auto [cache_it, inserted] = lock_replies_.try_emplace(key, nullptr);
  if (!inserted) {
    if (cache_it->second != nullptr) {
      Inc(LazyCounter(&m_dup_replies_, "gdh.dup_replies"));
      SendMail(requester, kMailLockBatchReply, cache_it->second, kControlBits);
    }
    return;
  }
  std::sort(request->resources.begin(), request->resources.end());
  const exec::TxnId txn = request->txn;
  // Sequentially acquire shared locks; callback-chained like the X path.
  auto respond = [this, requester, request_id, txn, key](Status status) {
    if (!status.ok()) {
      Inc(m_deadlock_aborts_);
      // A deadlock aborts the whole transaction (the SELECT's statement
      // txn, or the enclosing explicit transaction).
      AbortEverywhere(txn, [this, requester, request_id, key,
                            status](Status) mutable {
        auto reply = std::make_shared<LockBatchReply>();
        reply->request_id = request_id;
        reply->status = std::move(status);
        auto it = lock_replies_.find(key);
        if (it != lock_replies_.end()) it->second = reply;
        SendMail(requester, kMailLockBatchReply, reply, kControlBits);
      });
      return;
    }
    auto reply = std::make_shared<LockBatchReply>();
    reply->request_id = request_id;
    auto it = lock_replies_.find(key);
    if (it != lock_replies_.end()) it->second = reply;
    SendMail(requester, kMailLockBatchReply, reply, kControlBits);
  };

  // Recursive shared acquisition.
  auto resources = std::make_shared<std::vector<std::string>>(
      std::move(request->resources));
  auto step = std::make_shared<std::function<void(size_t)>>();
  // The stored closure must hold itself only weakly: a strong `step`
  // capture would make the shared_ptr own its own control block and leak.
  // Each pending Acquire callback keeps a strong reference, so the chain
  // stays alive exactly until the last lock resolves.
  std::weak_ptr<std::function<void(size_t)>> weak_step = step;
  *step = [this, resources, txn, respond, weak_step](size_t index) {
    if (index >= resources->size()) {
      respond(Status::OK());
      return;
    }
    locks_->Acquire(txn, (*resources)[index], LockMode::kShared,
                   [respond, step = weak_step.lock(), index](Status status) {
                     if (!status.ok()) {
                       respond(std::move(status));
                       return;
                     }
                     (*step)(index + 1);
                   });
  };
  (*step)(0);
}

// ------------------------------------------------------------------- 2PC

void GdhProcess::RunCommit(exec::TxnId txn,
                           std::function<void(Status)> then) {
  auto it = txns_->find(txn);
  if (it == txns_->end()) {
    then(NotFoundError("unknown transaction " + std::to_string(txn)));
    return;
  }
  if (it->second.doomed) {
    // A participant respawned after a crash and lost this transaction's
    // unprepared writes; committing would lose updates, so force abort.
    Status doomed = AbortedError("transaction " + std::to_string(txn) +
                                 " aborted: a participant crashed and lost "
                                 "its writes");
    AbortEverywhere(txn, [then = std::move(then), doomed](Status) {
      then(doomed);
    });
    return;
  }
  // Shed (stale) replicas drop out of the participant set: the surviving
  // replica's vote alone covers the fragment.
  std::vector<std::string> involved = ActiveInvolved(it->second);
  if (involved.empty()) {
    // Read-only: nothing was written anywhere, so no participant will
    // ever inquire — no decision record needed (presumed abort is moot).
    // PRISMA_TRANSITION(kActive, kCommitted, read-only; no participants)
    it->second.phase = TxnPhase::kCommitted;
    locks_->ReleaseAll(txn);
    txns_->erase(txn);
    Inc(m_txns_committed_);
    then(Status::OK());
    return;
  }
  if (involved.size() == 1) {
    CommitOnePhase(txn, involved.front(), std::move(then));
    return;
  }

  // Phase 1: prepare.
  // PRISMA_TRANSITION(kActive, kPreparing, prepare round fans out)
  it->second.phase = TxnPhase::kPreparing;
  Inc(m_2pc_rounds_);
  const sim::SimTime phase1_start = runtime()->simulator()->now();
  auto prepared = [this, txn, involved, phase1_start,
                   then = std::move(then)](const Multicast& m) mutable {
    // Re-check the doom flag: a participant may have crashed and respawned
    // WHILE phase 1 was in flight (RecoverFragment mid-2PC). Its yes-vote
    // — sent by the old incarnation, or a "vote stands" answer from the
    // recovering one — no longer covers the writes the crash destroyed,
    // so a unanimous-yes round must still abort.
    auto state_it = txns_->find(txn);
    const bool doomed = state_it == txns_->end() || state_it->second.doomed;
    const bool commit = m.first_error.ok() && !doomed;
    if (commit) {
      // Presumed abort: the commit decision is forced to stable storage
      // BEFORE any participant or the client learns it, so a recovering
      // OFM asking about this transaction always gets the decided answer.
      // Aborts are never logged — "unknown" means abort. Until the record
      // lands the transaction stays kPreparing and inquiries are deferred.
      LogCommitDecision(txn, [this, txn, involved, phase1_start,
                              then = std::move(then)]() mutable {
        auto decided = txns_->find(txn);
        if (decided != txns_->end()) {
          // PRISMA_TRANSITION(kPreparing, kCommitting, unanimous yes logged)
          decided->second.phase = TxnPhase::kCommitting;
        }
        SendDecision(txn, /*commit=*/true, Status::OK(), involved,
                     phase1_start, std::move(then));
      });
      return;
    }
    if (state_it != txns_->end()) {
      // PRISMA_TRANSITION(kPreparing, kAborting, veto or doomed writes)
      state_it->second.phase = TxnPhase::kAborting;
    }
    Status outcome;
    if (m.first_error.ok()) {
      // Unanimous yes, but doomed: a participant's crash lost its writes.
      outcome = AbortedError("transaction " + std::to_string(txn) +
                             " aborted: a participant crashed and lost "
                             "its writes");
    } else if (m.first_error.code() == StatusCode::kUnavailable) {
      // Surface the typed unavailability: the transaction aborted because
      // a participant was unreachable, not because of a data conflict.
      outcome = m.first_error;
    } else {
      outcome = AbortedError("transaction " + std::to_string(txn) +
                             " aborted during prepare: " +
                             m.first_error.message());
    }
    SendDecision(txn, /*commit=*/false, std::move(outcome), involved,
                 phase1_start, std::move(then));
  };
  TxnControl(TxnControlRequest::Op::kPrepare, txn, involved,
             config_.machine.retransmit.attempts, std::move(prepared));
}

void GdhProcess::CommitOnePhase(exec::TxnId txn,
                                const std::string& participant,
                                std::function<void(Status)> then) {
  std::vector<std::string> written = BaseFragments({participant});
  if (!UnsettledOn(written).empty()) {
    // A checkpoint round may be truncating the participant's WAL, where a
    // respawned successor would look the outcome up: commit after it.
    AfterSettled(written, [this, txn, then = std::move(then)]() mutable {
      RunCommit(txn, std::move(then));
    });
    return;
  }
  TxnState& state = txns_->at(txn);
  auto ofm = OfmOf(participant);
  if (!ofm.ok() || *ofm == pool::kNoProcess || !runtime()->IsAlive(*ofm)) {
    // The participant died with the writes before it was asked to commit
    // them: nothing can have committed, and a successor knows nothing of
    // the transaction (presumed abort).
    // PRISMA_TRANSITION(kActive, kAborted, sole participant died first)
    state.phase = TxnPhase::kAborted;
    locks_->ReleaseAll(txn);
    txns_->erase(txn);
    Inc(m_txns_aborted_);
    then(UnavailableError("fragment " + participant + " is down; transaction " +
                          std::to_string(txn) + " aborted"));
    return;
  }
  // PRISMA_TRANSITION(kActive, kOnePhase, the sole participant decides)
  state.phase = TxnPhase::kOnePhase;
  unsettled_[{.id = txn}] = std::move(written);
  Inc(m_one_phase_commits_);
  const sim::SimTime start = runtime()->simulator()->now();
  auto decided = [this, txn, start,
                  then = std::move(then)](const Multicast& m) {
    const bool committed = m.first_error.ok();
    auto state_it = txns_->find(txn);
    if (state_it != txns_->end()) {
      if (committed) {
        // PRISMA_TRANSITION(kOnePhase, kCommitted, the commit write landed)
        state_it->second.phase = TxnPhase::kCommitted;
      } else {
        // PRISMA_TRANSITION(kOnePhase, kAborted, the participant lost it)
        state_it->second.phase = TxnPhase::kAborted;
      }
    }
    locks_->ReleaseAll(txn);
    txns_->erase(txn);
    if (committed) {
      Inc(m_txns_committed_);
    } else {
      Inc(m_txns_aborted_);
    }
    // The one-phase round is the decision: the span ends at the OFM's
    // durable reply, so its commit force counts as 2PC time.
    obs::Tracer* tracer = config_.machine.tracer;
    if (tracer != nullptr && tracer->enabled()) {
      tracer->Span("gdh", "2pc.decision", start, runtime()->simulator()->now(),
                   pe(), self(), "txn", std::to_string(txn));
    }
    Settle({.id = txn});
    then(committed ? Status::OK()
                   : AbortedError("transaction " + std::to_string(txn) +
                                  " aborted at commit: " +
                                  m.first_error.message()));
  };
  TxnControl(TxnControlRequest::Op::kCommitOnePhase, txn, {participant},
             kUnboundedAttempts, std::move(decided));
}

void GdhProcess::SendDecision(exec::TxnId txn, bool commit, Status outcome,
                              const std::vector<std::string>& involved,
                              sim::SimTime phase1_start,
                              std::function<void(Status)> then) {
  // The prepare span ends once the decision is durable (commit) or made
  // (abort), so the C force counts as 2PC time in the trace.
  obs::Tracer* tracer = config_.machine.tracer;
  if (tracer != nullptr && tracer->enabled()) {
    tracer->Span("gdh", "2pc.prepare", phase1_start,
                 runtime()->simulator()->now(), pe(), self(), "txn",
                 std::to_string(txn));
  }
  // Phase 2: decision. Re-filter the participant set: a replica shed
  // WHILE phase 1 was in flight (benign settle of its prepare) does not
  // need the decision — skipping it avoids burning a retransmission
  // budget per decision RPC against a dead process.
  auto state_it = txns_->find(txn);
  const std::vector<std::string> decide =
      state_it != txns_->end() ? ActiveInvolved(state_it->second) : involved;
  const sim::SimTime phase2_start = runtime()->simulator()->now();
  auto delivered = [this, txn, commit, outcome, phase2_start, tracer,
                    then](const Multicast&) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer->Span("gdh", "2pc.decision", phase2_start,
                   runtime()->simulator()->now(), pe(), self(), "txn",
                   std::to_string(txn));
    }
    if (commit) {
      // The client heard at the decision; only the fragments' later work
      // waited for this.
      Settle({.id = txn});
      return;
    }
    auto final_it = txns_->find(txn);
    if (final_it != txns_->end()) {
      // PRISMA_TRANSITION(kAborting, kAborted, abort round settled)
      final_it->second.phase = TxnPhase::kAborted;
    }
    locks_->ReleaseAll(txn);
    txns_->erase(txn);
    Inc(m_txns_aborted_);
    then(outcome);
  };
  // The decision is remembered until every participant has its commit
  // marker on disk: the participants answer phase 2 once the decision is
  // applied and list the marker on a later reply, once a write of theirs
  // carried it (CommitMarkersLanded).
  if (commit) markers_awaited_[txn] = {decide.begin(), decide.end()};
  // Decision delivery gets extra retry headroom: participants must learn
  // the outcome or stay in doubt until they inquire.
  TxnControl(
      commit ? TxnControlRequest::Op::kCommit : TxnControlRequest::Op::kAbort,
      txn, decide, config_.machine.retransmit.attempts + 4,
      std::move(delivered));
  if (!commit) return;
  auto decided = txns_->find(txn);
  // Answer at the decision: the C record is durable, so the commit holds
  // whatever happens to phase 2, and the writes are already applied in
  // place at every participant. The locks go now; the fragments' next
  // writers, checkpoints and resync cutovers wait for phase 2 instead
  // (AfterSettled), so no OFM opens a writer next to a decided
  // transaction it has not applied. The commit marker need not have
  // landed: it rides ahead of the next writer's records.
  unsettled_[{.id = txn}] = BaseFragments(decide);
  if (decided != txns_->end()) {
    // PRISMA_TRANSITION(kCommitting, kCommitted, answered at the decision)
    decided->second.phase = TxnPhase::kCommitted;
  }
  locks_->ReleaseAll(txn);
  txns_->erase(txn);
  Inc(m_txns_committed_);
  then(Status::OK());
}

std::set<GdhProcess::WorkKey> GdhProcess::UnsettledOn(
    const std::vector<std::string>& fragments) const {
  std::set<WorkKey> out;
  for (const auto& [key, covered] : unsettled_) {
    for (const std::string& fragment : fragments) {
      if (std::find(covered.begin(), covered.end(), fragment) !=
          covered.end()) {
        out.insert(key);
        break;
      }
    }
  }
  return out;
}

void GdhProcess::AfterSettled(const std::vector<std::string>& fragments,
                              std::function<void()> then) {
  SettleWaiter waiter{UnsettledOn(fragments), std::move(then)};
  if (waiter.pending.empty()) {
    waiter.then();
    return;
  }
  settle_waiters_.push_back(std::move(waiter));
}

void GdhProcess::Settle(const WorkKey& key) {
  if (unsettled_.erase(key) == 0) return;
  std::vector<std::function<void()>> ready;
  for (auto it = settle_waiters_.begin(); it != settle_waiters_.end();) {
    it->pending.erase(key);
    if (it->pending.empty()) {
      ready.push_back(std::move(it->then));
      it = settle_waiters_.erase(it);
    } else {
      ++it;
    }
  }
  for (const std::function<void()>& fn : ready) fn();
}

void GdhProcess::AbortEverywhere(exec::TxnId txn,
                                 std::function<void(Status)> then) {
  auto it = txns_->find(txn);
  if (it == txns_->end()) {
    then(Status::OK());
    return;
  }
  std::vector<std::string> involved = ActiveInvolved(it->second);
  // Presumed abort: no decision record — participants that never learn
  // the outcome resolve it by inquiry, and "unknown" means abort.
  if (involved.empty()) {
    // PRISMA_TRANSITION(kActive, kAborted, nothing written; presumed abort)
    it->second.phase = TxnPhase::kAborted;
    locks_->ReleaseAll(txn);
    txns_->erase(txn);
    then(Status::OK());
    return;
  }
  // PRISMA_TRANSITION(kActive, kAborting, abort round fans out)
  it->second.phase = TxnPhase::kAborting;
  TxnControl(TxnControlRequest::Op::kAbort, txn, involved,
             config_.machine.retransmit.attempts + 4,
             [this, txn, then = std::move(then)](const Multicast&) {
               auto state_it = txns_->find(txn);
               if (state_it != txns_->end()) {
                 // PRISMA_TRANSITION(kAborting, kAborted, every abort settled)
                 state_it->second.phase = TxnPhase::kAborted;
               }
               locks_->ReleaseAll(txn);
               txns_->erase(txn);
               Inc(m_txns_aborted_);
               then(Status::OK());
             });
}

// ------------------------------------------------------------------- DDL

pool::ProcessId GdhProcess::SpawnReplicaOfm(const TableInfo& info,
                                            const std::string& replica_name,
                                            net::NodeId pe, bool recover,
                                            uint64_t resync_id) {
  OfmProcess::Config ofm_config;
  ofm_config.fragment_name = replica_name;
  ofm_config.schema = info.schema;
  ofm_config.ofm.type = config_.base_ofm_type;
  auto res = config_.resources.find(pe);
  if (res != config_.resources.end()) {
    ofm_config.ofm.memory = res->second.memory;
  }
  ofm_config.dedup_retention_ns = DedupRetentionNs();
  ofm_config.recover = recover;
  ofm_config.resync_id = resync_id;
  ofm_config.gdh = self();
  ofm_config.indexes = info.indexes;
  ofm_config.machine = config_.machine;
  return runtime()->Spawn(pe,
                          std::make_unique<OfmProcess>(std::move(ofm_config)));
}

void GdhProcess::ExecuteDdl(const BoundStatement& bound,
                            const std::shared_ptr<ClientStatement>& stmt,
                            pool::ProcessId client) {
  // Any DDL may change the schema or fragmentation cached plans were
  // split against; drop them all before the catalog mutates.
  PlanCache* plan_cache = config_.machine.plan_cache;
  if (plan_cache != nullptr) plan_cache->Invalidate("ddl");
  switch (bound.kind) {
    case Statement::Kind::kCreateTable: {
      FragmentationSpec spec;
      spec.strategy = bound.fragmentation.strategy;
      spec.column = bound.fragment_column;
      spec.num_fragments = bound.fragmentation.num_fragments;
      auto info_or =
          dictionary_->CreateTable(bound.table, bound.create_schema, spec);
      if (!info_or.ok()) {
        ReplyToClient(client, stmt->request_id, info_or.status(), 0, 0);
        return;
      }
      TableInfo* info = *info_or;
      const std::vector<FragmentHome> homes =
          AllocateFragments(config_.fragment_pes, pe(), info->fragments.size());
      for (size_t i = 0; i < info->fragments.size(); ++i) {
        FragmentInfo& frag = info->fragments[i];
        frag.pe = homes[i].pe;
        frag.ofm = SpawnReplicaOfm(*info, frag.name, frag.pe,
                                   /*recover=*/false, /*resync_id=*/0);
        if (config_.replicate_fragments) {
          // Anti-affinity: one PE crash never takes out both copies of a
          // fragment.
          frag.replicated = true;
          frag.backup_pe = homes[i].backup_pe;
          frag.backup_ofm =
              SpawnReplicaOfm(*info, BackupFragmentName(frag.name),
                              frag.backup_pe, /*recover=*/false,
                              /*resync_id=*/0);
        }
      }
      ReplyToClient(client, stmt->request_id, Status::OK(), 0, 0);
      return;
    }
    case Statement::Kind::kDropTable: {
      auto info = dictionary_->GetTable(bound.table);
      if (!info.ok()) {
        ReplyToClient(client, stmt->request_id, info.status(), 0, 0);
        return;
      }
      for (const FragmentInfo& frag : (*info)->fragments) {
        for (int r = 0; r < frag.num_replicas(); ++r) {
          runtime()->Kill(frag.ReplicaOfm(r));
          ForgetMarkersOf(frag.ReplicaName(r));
        }
      }
      // Abort in-flight resyncs of the dropped table (their targets were
      // just killed with the rest of the replicas).
      std::vector<uint64_t> dropped;
      for (const auto& [id, rs] : resyncs_) {
        if (rs.table == bound.table) dropped.push_back(id);
      }
      for (const uint64_t id : dropped) AbortResync(id);
      PRISMA_CHECK_OK(dictionary_->DropTable(bound.table));
      ReplyToClient(client, stmt->request_id, Status::OK(), 0, 0);
      return;
    }
    case Statement::Kind::kCreateIndex: {
      IndexInfo index;
      index.name = bound.index_name;
      index.columns = bound.index_columns;
      index.ordered = bound.index_ordered;
      Status added = dictionary_->AddIndex(bound.table, index);
      if (!added.ok()) {
        ReplyToClient(client, stmt->request_id, added, 0, 0);
        return;
      }
      auto info = dictionary_->GetTable(bound.table);
      PRISMA_CHECK(info.ok());
      // Every in-sync replica builds the index now; stale or resyncing
      // replicas pick it up from the dictionary when they are respawned.
      std::vector<std::string> targets;
      for (const FragmentInfo& frag : (*info)->fragments) {
        for (int r = 0; r < frag.num_replicas(); ++r) {
          if (frag.replica_state(r) != ReplicaState::kInSync) continue;
          targets.push_back(frag.ReplicaName(r));
        }
      }
      if (targets.empty()) {
        ReplyToClient(client, stmt->request_id, Status::OK(), 0, 0);
        return;
      }
      const uint64_t request_id = stmt->request_id;
      FanOut(
          targets, kMailCreateIndex, config_.machine.retransmit.attempts,
          [&index](size_t, const std::string&, uint64_t id) -> Request {
            auto request = std::make_shared<CreateIndexRequest>();
            request->request_id = id;
            request->index_name = index.name;
            request->columns = index.columns;
            request->ordered = index.ordered;
            return {request};
          },
          [this, client, request_id](const Multicast& m) {
            ReplyToClient(client, request_id, m.first_error, 0, 0);
          });
      return;
    }
    default:
      ReplyToClient(client, stmt->request_id,
                    InternalError("not a DDL statement"), 0, 0);
  }
}

// ------------------------------------------------------------------- DML

void GdhProcess::ExecuteWrite(std::shared_ptr<BoundStatement> bound,
                              const std::shared_ptr<ClientStatement>& stmt,
                              pool::ProcessId client) {
  auto info_or = dictionary_->GetTable(bound->table);
  if (!info_or.ok()) {
    ReplyToClient(client, stmt->request_id, info_or.status(), 0, 0);
    return;
  }
  TableInfo* info = *info_or;

  // Build the per-fragment requests.
  std::vector<std::string> fragments;
  std::vector<std::shared_ptr<WriteRequest>> requests;
  switch (bound->kind) {
    case Statement::Kind::kInsert: {
      // One request per fragment, its rows in statement order: each
      // fragment assigns RowIds as a row-at-a-time load would, and a lost
      // message costs one retry budget per fragment, not one per row.
      std::vector<std::vector<Tuple>> rows_of(info->fragments.size());
      std::vector<int> order;  // Fragments by first row.
      for (const Tuple& row : bound->insert_rows) {
        auto frag_or = info->fragmenter->FragmentOf(row);
        if (!frag_or.ok()) {
          ReplyToClient(client, stmt->request_id, frag_or.status(), 0, 0);
          return;
        }
        if (rows_of[*frag_or].empty()) order.push_back(*frag_or);
        rows_of[*frag_or].push_back(row);
      }
      for (const int f : order) {
        auto request = std::make_shared<WriteRequest>();
        request->op = WriteRequest::Op::kInsert;
        request->rows = EncodeRows(rows_of[f]);
        fragments.push_back(info->fragments[f].name);
        requests.push_back(std::move(request));
      }
      break;
    }
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate: {
      // A predicate that pins the fragmentation key writes one fragment.
      const std::optional<int> pinned =
          bound->where == nullptr ? std::nullopt
                                  : PinnedFragment(*info, *bound->where);
      for (int f = 0; f < static_cast<int>(info->fragments.size()); ++f) {
        if (pinned.has_value() && f != *pinned) continue;
        auto request = std::make_shared<WriteRequest>();
        request->op = bound->kind == Statement::Kind::kDelete
                          ? WriteRequest::Op::kDeleteWhere
                          : WriteRequest::Op::kUpdateWhere;
        if (bound->where != nullptr) {
          request->predicate = std::shared_ptr<const algebra::Expr>(
              bound, bound->where.get());
        }
        for (const auto& [col, expr] : bound->assignments) {
          request->assignments.push_back(
              {col, std::shared_ptr<const algebra::Expr>(bound, expr.get())});
        }
        fragments.push_back(info->fragments[f].name);
        requests.push_back(std::move(request));
      }
      break;
    }
    default:
      ReplyToClient(client, stmt->request_id,
                    InternalError("not a write statement"), 0, 0);
      return;
  }

  // Transaction scope: the session transaction or an implicit one that
  // two-phase-commits at the end of the statement.
  exec::TxnId txn = stmt->txn;
  bool implicit = false;
  if (txn == exec::kAutoCommit) {
    txn = NewTxn(false);
    implicit = true;
  } else if (!txns_->contains(txn)) {
    ReplyToClient(client, stmt->request_id,
                  NotFoundError("unknown transaction " + std::to_string(txn)),
                  0, 0);
    return;
  }

  std::vector<std::string> resources = fragments;
  std::sort(resources.begin(), resources.end());
  resources.erase(std::unique(resources.begin(), resources.end()),
                  resources.end());

  const uint64_t client_request = stmt->request_id;
  AcquireExclusive(
      txn, resources, 0,
      [this, txn, implicit, fragments, requests, bound, client,
       client_request, resources](Status lock_status) {
        if (!lock_status.ok()) {
          AbortEverywhere(txn, [this, client, client_request,
                                lock_status](Status) {
            ReplyToClient(client, client_request, lock_status, 0, 0);
          });
          return;
        }
        // Locks held. A commit answered at its decision may still be
        // delivering phase 2 to these fragments: the writes wait for it
        // (and for a checkpoint round there), so no OFM opens this writer
        // next to a decided transaction it has not applied (DESIGN.md
        // §8.1).
        AfterSettled(resources, [this, txn, implicit, fragments, requests,
                                 client, client_request] {
          auto& txn_state = (*txns_)[txn];
          auto written = [this, txn, implicit, client,
                          client_request](const Multicast& m) {
            if (!m.first_error.ok()) {
              Status error = m.first_error;
              AbortEverywhere(txn, [this, client, client_request,
                                    error](Status) {
                ReplyToClient(client, client_request, error, 0, 0);
              });
              return;
            }
            const uint64_t affected = m.affected;
            if (implicit) {
              RunCommit(txn, [this, client, client_request,
                              affected](Status status) {
                ReplyToClient(client, client_request, status, affected, 0);
              });
            } else {
              ReplyToClient(client, client_request, Status::OK(), affected,
                            0);
            }
          };
          // Each request reaches every in-sync replica of its fragment.
          FanOut(
              fragments, kMailWrite, config_.machine.retransmit.attempts,
              [&](size_t i, const std::string& replica,
                  uint64_t id) -> Request {
                txn_state.involved.insert(replica);
                auto request = std::make_shared<WriteRequest>(*requests[i]);
                request->request_id = id;
                request->txn = txn;
                Inc(m_write_ops_);
                return {request, request->WireBits()};
              },
              std::move(written));
        });
      });
}

// --------------------------------------------------------------- Txn ctl

void GdhProcess::ExecuteTxnControl(const BoundStatement& bound,
                                   const std::shared_ptr<ClientStatement>& stmt,
                                   pool::ProcessId client) {
  const uint64_t request_id = stmt->request_id;
  auto reply = [this, client, request_id](Status status) {
    ReplyToClient(client, request_id, status, 0, 0);
  };
  switch (bound.txn_control) {
    case sql::TxnControl::kBegin: {
      const exec::TxnId txn = NewTxn(true);
      Inc(m_txns_begun_);
      ReplyToClient(client, request_id, Status::OK(), 0, txn);
      return;
    }
    case sql::TxnControl::kCommit:
      RunCommit(stmt->txn, reply);
      return;
    case sql::TxnControl::kAbort:
      AbortEverywhere(stmt->txn, reply);
      return;
  }
}

// ----------------------------------------------------------- Coordinators

void GdhProcess::SpawnCoordinator(const std::shared_ptr<ClientStatement>& stmt,
                                  pool::ProcessId client) {
  exec::TxnId lock_txn = stmt->txn;
  if (lock_txn == exec::kAutoCommit) {
    lock_txn = NewTxn(false);
  } else if (!txns_->contains(lock_txn)) {
    ReplyToClient(client, stmt->request_id,
                  NotFoundError("unknown transaction " +
                                std::to_string(lock_txn)),
                  0, 0);
    return;
  }
  QueryProcess::Config config;
  config.dictionary = &*dictionary_;
  config.gdh = self();
  config.client = client;
  config.statement = stmt;
  config.lock_txn = lock_txn;
  config.machine = config_.machine;
  // The coordinator's merge and gather land on the PE its result must
  // reach, unless a list pins the placement.
  const net::NodeId pe =
      config_.coordinator_pes.empty()
          ? runtime()->PeOf(client)
          : config_.coordinator_pes[coordinator_cursor_++ %
                                    config_.coordinator_pes.size()];
  const pool::ProcessId coordinator =
      runtime()->Spawn(pe, std::make_unique<QueryProcess>(std::move(config)));
  (*txns_)[lock_txn].coordinator = coordinator;
  if (config_.coord_check_ns > 0) {
    // Supervise: if the coordinator's PE crashes, the statement must
    // still terminate (locks released, client answered).
    CoordWatch watch;
    watch.client = client;
    watch.request_id = stmt->request_id;
    watch.lock_txn = lock_txn;
    watch.pe = pe;
    watch.timer =
        SendSelfAfter(config_.coord_check_ns, kMailCoordCheck,
                      std::make_shared<pool::ProcessId>(coordinator));
    coords_[coordinator] = watch;
  }
  Inc(m_selects_);
}

void GdhProcess::ForgetCoordinator(pool::ProcessId coordinator) {
  auto it = coords_.find(coordinator);
  if (it != coords_.end()) {
    runtime()->simulator()->Cancel(it->second.timer);
    coords_.erase(it);
  }
  for (auto lit = lock_replies_.begin(); lit != lock_replies_.end();) {
    if (lit->first.first == coordinator) {
      lit = lock_replies_.erase(lit);
    } else {
      ++lit;
    }
  }
}

void GdhProcess::HandleCoordCheck(const pool::Mail& mail) {
  const pool::ProcessId coordinator =
      *std::any_cast<std::shared_ptr<pool::ProcessId>>(mail.body);
  auto it = coords_.find(coordinator);
  if (it == coords_.end()) return;  // Already finished normally.
  if (runtime()->IsAlive(coordinator)) {
    it->second.timer =
        SendSelfAfter(config_.coord_check_ns, kMailCoordCheck,
                      std::make_shared<pool::ProcessId>(coordinator));
    return;
  }
  // The coordinator died without reporting (PE crash): release its
  // statement locks and fail the statement so the client is not left
  // hanging. A reply the coordinator managed to send before dying wins —
  // the client drops this duplicate.
  const CoordWatch watch = it->second;
  ForgetCoordinator(coordinator);
  Inc(LazyCounter(&m_coords_reaped_, "gdh.coords_reaped"));
  auto txn_it = txns_->find(watch.lock_txn);
  if (txn_it != txns_->end() && !txn_it->second.explicit_txn &&
      txn_it->second.involved.empty()) {
    locks_->ReleaseAll(watch.lock_txn);
    txns_->erase(txn_it);
  }
  CountUnavailable(watch.pe, "(coordinator)");
  ReplyToClient(watch.client, watch.request_id,
                UnavailableError("query coordinator on PE " +
                                 std::to_string(watch.pe) +
                                 " died (PE crash)"),
                0, 0);
}

void GdhProcess::HandleStatementDone(const pool::Mail& mail) {
  auto done = std::any_cast<std::shared_ptr<StatementDone>>(mail.body);
  auto it = txns_->find(done->txn);
  if (it != txns_->end() && !it->second.explicit_txn &&
      it->second.involved.empty()) {
    // Statement-scoped read locks.
    locks_->ReleaseAll(done->txn);
    txns_->erase(it);
  }
  ForgetCoordinator(mail.from);
  // The per-query coordinator instance has served its purpose (§2.2).
  runtime()->Kill(mail.from);
}

// ---------------------------------------------------------------- Replies

void GdhProcess::HandleWriteReply(const pool::Mail& mail) {
  auto reply = std::any_cast<std::shared_ptr<WriteReply>>(mail.body);
  CommitMarkersLanded(reply->fragment, reply->commits_landed);
  auto call = rpcs_.calls().find(reply->request_id);
  bool count = true;
  if (call == rpcs_.calls().end()) {
    // Already settled (a duplicate or a post-degradation reply). If it
    // was settled by exhausting the retry budget, the OFM did execute the
    // write after all: its row delta and estimates count exactly once.
    count = degraded_writes_.erase(reply->request_id) > 0;
  } else if (DualWrite* dual = call->second.target.dual.get()) {
    // Dual-replica op: whichever replica's OK reply lands first carries
    // the affected count and the row delta; the mirror contributes zero.
    count = reply->status.ok() && !dual->counted;
    if (count) dual->counted = true;
  }
  if (count) ApplyWriteStats(*reply);
  SettleReply(reply->request_id, reply->status,
              count ? reply->affected_rows : 0);
}

void GdhProcess::HandleDecisionRequest(const pool::Mail& mail) {
  auto request = std::any_cast<std::shared_ptr<DecisionRequest>>(mail.body);
  auto reply = std::make_shared<DecisionReply>();
  reply->request_id = request->request_id;
  for (const exec::TxnId txn : request->transactions) {
    if (committed_->contains(txn)) {
      // A logged (unforgotten) commit decision answers "commit".
      reply->transactions.push_back(txn);
      reply->commit.push_back(true);
    } else if (txns_->contains(txn)) {
      // Still being decided: a yes-vote (or a "vote stands" answer to a
      // retransmitted prepare) may be in flight, so a commit decision can
      // still be logged after an "abort" answer sent now — the inquirer
      // would roll back its prepared state and lose a committed write.
      // Withhold the answer; the inquirer retries on a timer and finds
      // the transaction decided (committed_ or gone) soon: 2PC always
      // terminates, every member RPC settles by reply or retry budget.
      Inc(LazyCounter(&m_decisions_deferred_, "gdh.decisions_deferred"));
    } else {
      // Presumed abort: no decision record and not active means abort.
      reply->transactions.push_back(txn);
      reply->commit.push_back(false);
    }
  }
  if (!reply->transactions.empty()) {
    SendMail(mail.from, kMailDecisionReply, reply, kControlBits);
  }
}

// ------------------------------------------------------------ Statements

void GdhProcess::HandleClientStatement(const pool::Mail& mail) {
  if (!id_waiters_.empty() || !HasTxnId()) {
    // No durably reserved id is left (a burst outran the reservation in
    // flight): park the statement, in arrival order, until the next
    // reservation lands.
    id_waiters_.push_back([this, mail] { DispatchStatement(mail); });
    ReserveTxnIds();
    return;
  }
  DispatchStatement(mail);
}

void GdhProcess::DispatchStatement(const pool::Mail& mail) {
  auto stmt = std::any_cast<std::shared_ptr<ClientStatement>>(mail.body);
  const pool::ProcessId client = mail.from;
  Inc(m_statements_);
  // Routing parse is cheap; full parse/optimize happens per-query in the
  // coordinator instances.
  ChargeCpu(runtime()->costs().optimize_ns / 10);

  if (stmt->is_prismalog) {
    SpawnCoordinator(stmt, client);
    return;
  }
  auto parsed = sql::ParseSql(stmt->text);
  if (!parsed.ok()) {
    ReplyToClient(client, stmt->request_id, parsed.status(), 0, 0);
    return;
  }
  switch (parsed->kind) {
    case Statement::Kind::kSelect:
      SpawnCoordinator(stmt, client);
      return;
    case Statement::Kind::kTxnControl: {
      auto bound = sql::BindStatement(*parsed, *dictionary_);
      PRISMA_CHECK(bound.ok());
      ExecuteTxnControl(*bound, stmt, client);
      return;
    }
    case Statement::Kind::kCreateTable:
    case Statement::Kind::kDropTable:
    case Statement::Kind::kCreateIndex: {
      auto bound = sql::BindStatement(*parsed, *dictionary_);
      if (!bound.ok()) {
        ReplyToClient(client, stmt->request_id, bound.status(), 0, 0);
        return;
      }
      ExecuteDdl(*bound, stmt, client);
      return;
    }
    case Statement::Kind::kCheckpoint: {
      ExecuteCheckpoint(stmt, client);
      return;
    }
    case Statement::Kind::kInsert:
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate: {
      auto bound = sql::BindStatement(*parsed, *dictionary_);
      if (!bound.ok()) {
        ReplyToClient(client, stmt->request_id, bound.status(), 0, 0);
        return;
      }
      ExecuteWrite(std::make_shared<BoundStatement>(std::move(bound).value()),
                   stmt, client);
      return;
    }
  }
}

void GdhProcess::ExecuteCheckpoint(
    const std::shared_ptr<ClientStatement>& stmt, pool::ProcessId client) {
  // One checkpoint round per base fragment, over its in-sync replicas.
  struct Round {
    size_t open = 0;  // Fragments not answered yet.
    Status status;
    uint64_t affected = 0;
  };
  auto round = std::make_shared<Round>();
  std::vector<std::pair<std::string, std::vector<std::string>>> work;
  for (const std::string& table : dictionary_->TableNames()) {
    auto info = dictionary_->GetTable(table);
    PRISMA_CHECK(info.ok());
    for (FragmentInfo& frag : (*info)->fragments) {
      std::vector<std::string> targets;
      for (int r = 0; r < frag.num_replicas(); ++r) {
        // Stale/resyncing replicas skip the checkpoint: their WAL and
        // snapshot are superseded by the resync rebuild anyway.
        if (frag.replica_state(r) != ReplicaState::kInSync) continue;
        const pool::ProcessId ofm = frag.ReplicaOfm(r);
        if (ofm == pool::kNoProcess) continue;
        if (!runtime()->IsAlive(ofm)) {
          // A crashed replica is left out at once: a replicated fragment
          // sheds it to its healthy peer, anything else is reported
          // unavailable. Its round would otherwise wait for the commits
          // parked on it, which settle only after its respawn.
          if (TryFailover(frag, r)) continue;
          CountUnavailable(frag.ReplicaPe(r), table);
          if (round->status.ok()) {
            round->status = UnavailableError(
                "fragment " + frag.ReplicaName(r) + " on PE " +
                std::to_string(frag.ReplicaPe(r)) +
                " is down; not checkpointed");
          }
          continue;
        }
        targets.push_back(frag.ReplicaName(r));
      }
      if (!targets.empty()) work.emplace_back(frag.name, std::move(targets));
    }
  }
  const uint64_t request_id = stmt->request_id;
  if (work.empty()) {
    ReplyToClient(client, request_id, round->status, 0, 0);
    return;
  }
  round->open = work.size();
  for (auto& [base, targets] : work) {
    // The round truncates the fragment's WAL, where a respawned OFM looks
    // up one-phase outcomes: it waits for the commits unsettled there
    // (which also keeps decided transactions from failing it as still
    // open), and the fragment's later one-phase commits wait for it.
    const WorkKey key{.checkpoint = true, .id = next_checkpoint_round_++};
    AfterSettled({base}, [this, key, targets = std::move(targets), round,
                          client, request_id] {
      FanOut(
          targets, kMailCheckpoint, config_.machine.retransmit.attempts,
          [](size_t, const std::string&, uint64_t id) -> Request {
            auto request = std::make_shared<CheckpointRequest>();
            request->request_id = id;
            return {request};
          },
          [this, key, round, client, request_id](const Multicast& m) {
            Settle(key);
            if (round->status.ok()) round->status = m.first_error;
            round->affected += m.affected;
            if (--round->open == 0) {
              ReplyToClient(client, request_id, round->status,
                            round->affected, 0);
            }
          });
    });
    unsettled_[key] = {base};
  }
}

// -------------------------------------------------------- Crash / recover

Status GdhProcess::CrashFragment(const std::string& table, int fragment) {
  ASSIGN_OR_RETURN(TableInfo * info, dictionary_->GetTable(table));
  if (fragment < 0 || fragment >= static_cast<int>(info->fragments.size())) {
    return OutOfRangeError("no such fragment");
  }
  runtime()->Kill(info->fragments[fragment].ofm);
  info->fragments[fragment].ofm = pool::kNoProcess;
  return Status::OK();
}

Status GdhProcess::RecoverReplica(const std::string& table, TableInfo* info,
                                  int fragment, int replica) {
  FragmentInfo& frag = info->fragments[fragment];
  const pool::ProcessId cur = frag.ReplicaOfm(replica);
  if (cur != pool::kNoProcess && runtime()->IsAlive(cur)) {
    return Status::OK();  // Nothing to do.
  }
  if (frag.replicated &&
      frag.replica_state(replica) != ReplicaState::kInSync) {
    // A stale replica's stable state is behind the survivor: its WAL
    // cannot be trusted, so it rejoins via resync, not WAL recovery. A
    // resync whose target just died is torn down first.
    std::vector<uint64_t> aborted;
    for (const auto& [id, rs] : resyncs_) {
      if (rs.table == table && rs.fragment == fragment &&
          rs.replica == replica) {
        aborted.push_back(id);
      }
    }
    for (const uint64_t id : aborted) AbortResync(id);
    frag.SetReplicaOfm(replica, pool::kNoProcess);
    MaybeStartResync(table, fragment);
    return Status::OK();
  }
  // In-sync (or unreplicated) replica: respawn with WAL recovery. Any
  // active transaction that wrote to this replica lost those writes with
  // the old process: it must not commit.
  frag.SetReplicaOfm(
      replica, SpawnReplicaOfm(*info, frag.ReplicaName(replica),
                               frag.ReplicaPe(replica), /*recover=*/true,
                               /*resync_id=*/0));
  DoomTxnsInvolving(frag.ReplicaName(replica));
  // One-phase commits the dead process was asked to decide: its successor
  // answers them from the WAL (committed if the commit write landed).
  for (auto it = parked_commits_.begin(); it != parked_commits_.end();) {
    if (it->second.member.replica != frag.ReplicaName(replica)) {
      ++it;
      continue;
    }
    rpcs_.Send(it->first, it->second.member, kMailTxnControl,
               std::move(it->second.body), kControlBits, kUnboundedAttempts);
    it = parked_commits_.erase(it);
  }
  // This replica may be the awaited resync source for its stale peer.
  if (frag.replicated) MaybeStartResync(table, fragment);
  return Status::OK();
}

Status GdhProcess::RecoverFragment(const std::string& table, int fragment) {
  ASSIGN_OR_RETURN(TableInfo * info, dictionary_->GetTable(table));
  if (fragment < 0 || fragment >= static_cast<int>(info->fragments.size())) {
    return OutOfRangeError("no such fragment");
  }
  FragmentInfo& frag = info->fragments[fragment];
  bool any_dead = false;
  for (int r = 0; r < frag.num_replicas(); ++r) {
    const pool::ProcessId ofm = frag.ReplicaOfm(r);
    if (ofm == pool::kNoProcess || !runtime()->IsAlive(ofm)) any_dead = true;
  }
  if (!any_dead) return FailedPreconditionError(frag.name + " is alive");
  for (int r = 0; r < frag.num_replicas(); ++r) {
    RETURN_IF_ERROR(RecoverReplica(table, info, fragment, r));
  }
  return Status::OK();
}

Status GdhProcess::RecoverPe(net::NodeId pe) {
  for (const std::string& table : dictionary_->TableNames()) {
    auto info = dictionary_->GetTable(table);
    if (!info.ok()) continue;
    const size_t count = (*info)->fragments.size();
    for (size_t i = 0; i < count; ++i) {
      FragmentInfo& frag = (*info)->fragments[i];
      for (int r = 0; r < frag.num_replicas(); ++r) {
        // Only replicas homed on the restarted PE: recovering a fragment's
        // other replica here would resurrect it on a still-crashed PE.
        if (frag.ReplicaPe(r) != pe) continue;
        const pool::ProcessId ofm = frag.ReplicaOfm(r);
        if (ofm != pool::kNoProcess && runtime()->IsAlive(ofm)) continue;
        RETURN_IF_ERROR(RecoverReplica(table, *info, static_cast<int>(i), r));
      }
      // A replica can go stale with its PE alive all along: under mesh
      // store-and-forward its replies may have routed through the crashed
      // PE, so it exhausted the write-retransmission budget and was shed.
      // Its own PE never "recovers", so sweep every replicated fragment
      // here — this restart is the recovery event that retries it.
      MaybeStartResync(table, static_cast<int>(i));
    }
  }
  return Status::OK();
}

// ------------------------------------------------ Resync (DESIGN.md §13)

void GdhProcess::MaybeStartResync(const std::string& table, int fragment) {
  auto info = dictionary_->GetTable(table);
  if (!info.ok()) return;
  FragmentInfo& frag = (*info)->fragments[fragment];
  if (!frag.replicated) return;
  for (int r = 0; r < frag.num_replicas(); ++r) {
    if (frag.replica_state(r) != ReplicaState::kStale) continue;
    const int peer = 1 - r;
    const pool::ProcessId source = frag.ReplicaOfm(peer);
    // Resync needs a healthy source; if the peer is down too, the next
    // recovery event retries. Bounding retries to recovery events keeps
    // the simulation's event queue drainable.
    if (frag.replica_state(peer) != ReplicaState::kInSync ||
        source == pool::kNoProcess || !runtime()->IsAlive(source)) {
      return;
    }
    StartResync(table, fragment, r);
    return;  // At most one replica of a pair can be stale.
  }
}

void GdhProcess::StartResync(const std::string& table, int fragment,
                             int replica) {
  auto info = dictionary_->GetTable(table);
  PRISMA_CHECK(info.ok());
  FragmentInfo& frag = (*info)->fragments[fragment];
  const uint64_t resync_id = next_resync_id_++;
  // A shed-but-alive target (stale via lost replies, not a crash) is
  // discarded: its contents are untrusted and the fresh OFM below takes
  // over its fragment name.
  const pool::ProcessId old = frag.ReplicaOfm(replica);
  if (old != pool::kNoProcess && runtime()->IsAlive(old)) {
    runtime()->Kill(old);
  }
  // The target starts as a fresh, empty OFM in resync mode (no WAL
  // recovery): it is refilled from the source's committed snapshot.
  frag.SetReplicaOfm(
      replica, SpawnReplicaOfm(**info, frag.ReplicaName(replica),
                               frag.ReplicaPe(replica), /*recover=*/false,
                               resync_id));
  // PRISMA_TRANSITION(kStale, kResyncing, refill from the survivor begins)
  frag.set_replica_state(replica, ReplicaState::kResyncing);
  ResyncState rs;
  rs.table = table;
  rs.fragment = fragment;
  rs.replica = replica;
  rs.resync_id = resync_id;
  resyncs_[resync_id] = rs;
  Inc(LazyCounter(&m_resyncs_started_, "replica.resyncs_started"));
  SendResyncPhase(resync_id, /*cutover=*/false);
}

void GdhProcess::SendResyncPhase(uint64_t resync_id, bool cutover) {
  auto it = resyncs_.find(resync_id);
  PRISMA_CHECK(it != resyncs_.end());
  ResyncState& rs = it->second;
  auto info = dictionary_->GetTable(rs.table);
  PRISMA_CHECK(info.ok());
  FragmentInfo& frag = (*info)->fragments[rs.fragment];
  const int source = 1 - rs.replica;
  // The whole phase (bulk stream + delta rounds) runs under one hardened
  // RPC with decision-grade retry headroom.
  FanOut(
      {frag.ReplicaName(source)}, kMailResync,
      config_.machine.retransmit.attempts + 4,
      [&](size_t, const std::string&, uint64_t id) -> Request {
        auto request = std::make_shared<ResyncRequest>();
        request->request_id = id;
        request->resync_id = resync_id;
        request->target = frag.ReplicaOfm(rs.replica);
        request->target_fragment = frag.ReplicaName(rs.replica);
        request->cutover = cutover;
        return {request};
      },
      [this, resync_id, cutover](const Multicast& m) {
        OnResyncPhaseDone(resync_id, cutover, m.first_error);
      });
}

void GdhProcess::OnResyncPhaseDone(uint64_t resync_id, bool cutover,
                                   const Status& status) {
  auto it = resyncs_.find(resync_id);
  if (it == resyncs_.end()) return;  // Aborted meanwhile.
  if (!status.ok()) {
    AbortResync(resync_id);
    return;
  }
  if (!cutover) {
    // Caught up (modulo writes still in flight): cut over under an
    // exclusive lock on the base fragment, once the commits answered at
    // their decision have delivered their markers there. Then nothing
    // undecided can remain in the source's WAL — the final delta is
    // exact, and the replica re-enters the write set atomically with
    // respect to statements.
    if (!id_waiters_.empty() || !HasTxnId()) {
      id_waiters_.push_back([this, resync_id, cutover, status] {
        OnResyncPhaseDone(resync_id, cutover, status);
      });
      ReserveTxnIds();
      return;
    }
    ResyncState& rs = it->second;
    rs.cutover_txn = NewTxn(false);
    auto info = dictionary_->GetTable(rs.table);
    PRISMA_CHECK(info.ok());
    // Writers lock the base fragment name (covering both replicas).
    const std::string base = (*info)->fragments[rs.fragment].name;
    AcquireExclusive(rs.cutover_txn, {base}, 0,
                     [this, resync_id, base](Status lock_status) {
                       auto it2 = resyncs_.find(resync_id);
                       if (it2 == resyncs_.end()) return;
                       if (!lock_status.ok()) {
                         AbortResync(resync_id);
                         return;
                       }
                       AfterSettled({base}, [this, resync_id] {
                         if (resyncs_.contains(resync_id)) {
                           SendResyncPhase(resync_id, /*cutover=*/true);
                         }
                       });
                     });
    return;
  }
  // Cutover acknowledged: the target holds the source's exact committed
  // contents, rebuilt its indexes and checkpointed. Back to dual-primary-
  // eligible.
  const ResyncState rs = it->second;
  resyncs_.erase(it);
  auto info = dictionary_->GetTable(rs.table);
  if (info.ok()) {
    FragmentInfo& frag = (*info)->fragments[rs.fragment];
    // PRISMA_TRANSITION(kResyncing, kInSync, 2PC-consistent cutover done)
    frag.set_replica_state(rs.replica, ReplicaState::kInSync);
    // The rebuilt replica is read-eligible again: retire plans built
    // while it was shed.
    if (config_.machine.plan_cache != nullptr) {
      config_.machine.plan_cache->Invalidate("resync");
    }
  }
  if (rs.cutover_txn != exec::kAutoCommit) {
    locks_->ReleaseAll(rs.cutover_txn);
    txns_->erase(rs.cutover_txn);
  }
  Inc(LazyCounter(&m_resyncs_completed_, "replica.resyncs_completed"));
}

void GdhProcess::AbortResync(uint64_t resync_id) {
  auto it = resyncs_.find(resync_id);
  if (it == resyncs_.end()) return;
  const ResyncState rs = it->second;
  resyncs_.erase(it);
  auto info = dictionary_->GetTable(rs.table);
  if (info.ok()) {
    FragmentInfo& frag = (*info)->fragments[rs.fragment];
    const pool::ProcessId target = frag.ReplicaOfm(rs.replica);
    if (target != pool::kNoProcess) runtime()->Kill(target);
    frag.SetReplicaOfm(rs.replica, pool::kNoProcess);
    // PRISMA_TRANSITION(kResyncing, kStale, resync aborted; back to shed)
    frag.set_replica_state(rs.replica, ReplicaState::kStale);
  }
  if (rs.cutover_txn != exec::kAutoCommit) {
    locks_->ReleaseAll(rs.cutover_txn);
    txns_->erase(rs.cutover_txn);
  }
  Inc(LazyCounter(&m_resyncs_aborted_, "replica.resyncs_aborted"));
  // Retry right away if the source is still healthy (the failure was
  // transient message loss); a dead source retries from its recovery.
  if (info.ok()) MaybeStartResync(rs.table, rs.fragment);
}

void GdhProcess::HandleResyncReply(const pool::Mail& mail) {
  auto reply = std::any_cast<std::shared_ptr<ResyncReply>>(mail.body);
  if (!SettleReply(reply->request_id, reply->status)) return;
  // Transfer accounting feeds the replica.* family exactly once per
  // settled phase.
  Inc(LazyCounter(&m_resync_bulk_tuples_, "replica.resync_bulk_tuples"),
      reply->bulk_tuples);
  Inc(LazyCounter(&m_resync_delta_records_, "replica.resync_delta_records"),
      reply->delta_records);
  Inc(LazyCounter(&m_resync_rounds_, "replica.resync_rounds"),
      reply->delta_rounds);
  Inc(LazyCounter(&m_resync_wire_bits_, "replica.resync_wire_bits"),
      reply->wire_bits);
}

// ------------------------------------------------------------------- Mail
//
// Handler contract (D5): the GDH consumes coordinator-side protocol mail —
// client statements, lock grants, worker replies, 2PC recovery traffic and
// the failover/resync control plane.
// PRISMA_HANDLES(kMailClientStatement, kMailLockBatch, kMailStatementDone)
// PRISMA_HANDLES(kMailWriteReply, kMailTxnControlReply, kMailDecisionRequest)
// PRISMA_HANDLES(kMailRpcTimeout, kMailCoordCheck, kMailResyncReply)
// PRISMA_HANDLES(kMailDiskDone)

void GdhProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailClientStatement) {
    HandleClientStatement(mail);
  } else if (mail.kind == kMailLockBatch) {
    HandleLockBatch(mail);
  } else if (mail.kind == kMailStatementDone) {
    HandleStatementDone(mail);
  } else if (mail.kind == kMailWriteReply) {
    HandleWriteReply(mail);
  } else if (mail.kind == kMailTxnControlReply) {
    auto reply = std::any_cast<std::shared_ptr<TxnControlReply>>(mail.body);
    CommitMarkersLanded(reply->fragment, reply->commits_landed);
    SettleReply(reply->request_id, reply->status);
  } else if (mail.kind == kMailDecisionRequest) {
    HandleDecisionRequest(mail);
  } else if (mail.kind == kMailRpcTimeout) {
    rpcs_.OnTimeout(mail);
  } else if (mail.kind == kMailCoordCheck) {
    HandleCoordCheck(mail);
  } else if (mail.kind == kMailResyncReply) {
    HandleResyncReply(mail);
  } else if (mail.kind == kMailDiskDone) {
    RunDurable(mail);
  }
}

}  // namespace prisma::gdh
