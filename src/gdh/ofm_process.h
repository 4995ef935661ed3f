#ifndef PRISMA_GDH_OFM_PROCESS_H_
#define PRISMA_GDH_OFM_PROCESS_H_

#include <any>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/exchange.h"
#include "exec/ofm.h"
#include "gdh/data_dictionary.h"
#include "gdh/machine_params.h"
#include "gdh/messages.h"
#include "gdh/transport.h"
#include "obs/metrics.h"
#include "pool/owned.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// POOL-X process hosting one One-Fragment Manager on its PE. Handles
/// plan execution, write, commit (one-phase or 2PC) and index requests
/// from the GDH and query coordinators, charging all work to its PE.
///
/// The interconnect may drop or duplicate messages (see net::FaultPlan),
/// so every request is identified by (sender, request_id): a repeated
/// non-idempotent request (write, 2PC control, checkpoint, index build)
/// replays the cached reply instead of re-executing, making
/// retransmission-based senders safe against duplicates. A gathered plan
/// is an idempotent read and simply runs again when duplicated; a
/// streamed plan's settlement is cached like a write's reply.
///
/// On start it recovers from its PE's stable store when `recover` is set
/// (crash replacement) and asks the GDH to decide any in-doubt prepared
/// transactions, retrying the inquiry on a timer. Until the last in-doubt
/// transaction is resolved, data-plane requests are stalled and replayed
/// afterwards, so no statement observes withheld effects.
class OfmProcess : public pool::Process {
 public:
  struct Config {
    std::string fragment_name;
    Schema schema;
    /// OnStart fills in the expression mode, costs, charge hook and disk.
    exec::Ofm::Options ofm;
    /// Run restart recovery in OnStart (crash replacement).
    bool recover = false;
    /// Nonzero marks a replica-resync target (DESIGN.md §13): the OFM
    /// starts empty (no WAL recovery — the stale stable state is behind
    /// the surviving replica) and is refilled by a snapshot bulk-copy
    /// plus WAL-delta rounds; inbound resync traffic is matched on this
    /// id so frames of superseded attempts are ignored.
    uint64_t resync_id = 0;
    /// Coordinator to consult for in-doubt transactions.
    pool::ProcessId gdh = pool::kNoProcess;
    /// Secondary indexes to create at start: (name, columns, ordered).
    std::vector<IndexInfo> indexes;
    /// The machine's settings: the OFM registers in `registry`, frames
    /// and retransmits its shuffle and resync streams by the exchange
    /// settings and `retransmit`, and keeps as many fragment plans as
    /// `plan_cache` keeps entries.
    MachineParams machine;
  };

  explicit OfmProcess(Config config);
  ~OfmProcess() override;

  void OnStart() override;
  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override {
    return "ofm:" + config_.fragment_name;
  }

  /// Control-plane view for tests; fine between simulation events, checked
  /// by the ownership guard when called from another process's handler.
  exec::Ofm& ofm() { return *ofm_; }

  /// Requests answered from the reply cache (duplicate deliveries).
  uint64_t dup_requests() const { return dup_requests_; }

 private:
  /// Runs a fragment plan and either answers with its rows (gathered) or
  /// streams them (OpenShuffle); see ExecPlanRequest.
  void HandleExecPlan(const pool::Mail& mail);
  /// The plan a request runs: a shipped plan (kept under `ref` when it
  /// has one), or the one kept under `ref`. Null when the request named a
  /// plan this OFM does not hold; the coordinator has then been told.
  std::shared_ptr<const algebra::Plan> AdoptPlan(
      const pool::Mail& mail, uint64_t request_id,
      std::shared_ptr<const algebra::Plan> plan, const PlanRef& ref);
  void HandleBatchAck(const pool::Mail& mail);
  void HandleWrite(const pool::Mail& mail);
  void HandleTxnControl(const pool::Mail& mail);
  void HandleDecisionReply(const pool::Mail& mail);
  void HandleCheckpoint(const pool::Mail& mail);
  void HandleCreateIndex(const pool::Mail& mail);
  // Resync source side (DESIGN.md §13).
  void HandleResync(const pool::Mail& mail);
  void HandleResyncDeltaAck(const pool::Mail& mail);
  // Resync target side.
  void HandleResyncBatch(const pool::Mail& mail);
  void HandleResyncDelta(const pool::Mail& mail);

  /// True while recovered in-doubt transactions await the coordinator's
  /// decision; data-plane mail is queued until then.
  bool Stalled() const {
    return !ofm_.null() && !ofm_->recovered_undecided().empty();
  }
  bool InDoubt(exec::TxnId txn) const;
  void SendDecisionRequest();
  /// Retry period of the in-doubt decision inquiry.
  static constexpr sim::SimTime kDecisionRetryNs = 100 * sim::kNanosPerMilli;

  /// Records a transaction this OFM has terminated and how (commit or
  /// abort, including control for transactions it never saw). A faulty
  /// network can reorder an abort before a delayed write of the same
  /// transaction; without this record the late write would silently
  /// re-open the transaction and leak uncommitted effects. The outcome
  /// answers a re-sent one-phase commit.
  void NoteFinished(exec::TxnId txn, bool committed);
  bool Finished(exec::TxnId txn) const { return finished_->contains(txn); }
  /// Outcome of a one-phase commit request for `txn`: commits it if this
  /// incarnation holds its writes, else answers the outcome already
  /// decided — from the finished set, or from the WAL after a restart.
  Status CommitOnePhase(exec::TxnId txn);

  /// Caches the reply under (to, request_id) and sends it once disk
  /// ticket `durable_at` has landed (at once for 0). Duplicate requests
  /// replay the cached reply through ReplayCached — but only after it was
  /// sent.
  void Respond(pool::ProcessId to, uint64_t request_id, const char* kind,
               std::any body, int64_t size_bits,
               pool::Disk::Ticket durable_at = 0);
  /// Respond after every write this OFM has submitted so far is durable:
  /// the reply reveals a yes-vote, a commit or a checkpoint, and the disk
  /// lands writes in order. So the reply also lists the buffered commit
  /// markers those writes carried (commits_landed).
  template <typename Reply>
  void RespondDurable(pool::ProcessId to, const char* kind,
                      std::shared_ptr<Reply> reply);
  /// Replays the cached reply for a duplicate request; false if the
  /// request was never answered (i.e. it is not a duplicate).
  bool ReplayCached(pool::ProcessId from, uint64_t request_id);

  /// Re-dispatches deferred data-plane mail once the last in-doubt
  /// transaction is resolved.
  void MaybeReplayStalled();

  /// Drops cached replies and terminated-transaction records older than
  /// the dedup retention horizon (no sender retransmits that long).
  void EvictExpiredDedupState();

  /// Pushes the WAL / redo deltas accumulated since the last sync into the
  /// registry counters. Cheap; called at the end of mutating handlers.
  void SyncDurabilityMetrics();

  /// One in-flight shuffle this OFM is producing, keyed by its stream
  /// token. The coordinator sees a shuffle as a plain hardened RPC: the
  /// producer answers (via Respond, so the reply is cached) once the
  /// stream is fully acknowledged, or with Unavailable when its budget
  /// runs out without window progress.
  struct ShuffleState {
    pool::ProcessId coordinator = pool::kNoProcess;
    uint64_t request_id = 0;
    /// The plan's profile, when the request asked for one.
    std::shared_ptr<obs::OperatorProfile> profile;
  };

  /// Partitions a streamed plan's `rows` over the request's consumers and
  /// opens the stream that FinishShuffle settles.
  void OpenShuffle(pool::ProcessId coordinator, const ExecPlanRequest& request,
                   std::vector<Tuple> rows,
                   std::shared_ptr<obs::OperatorProfile> profile);
  /// Answers the coordinator (cached) with the stream's first-transmission
  /// bits — olap.* wire accounting reflects the modelled payload, not
  /// retry luck — and discards the shuffle.
  void FinishShuffle(uint64_t token, Status status);
  void RegisterExchangeMetrics();
  /// The options of the one sender, which carries shuffles and resync
  /// bulk copies alike: every frame counts under the exchange.* family,
  /// and a stream that spends its budget fails its shuffle or its resync.
  StreamSender::Options ProducerOptions();

  /// One resync this OFM is sourcing (keyed by session token): the bulk
  /// snapshot stream to the target (shuffle_out_'s stream under the same
  /// token), then stop-and-wait WAL-delta rounds, each an RPC in deltas_
  /// under the same token that the target's ack settles.
  struct ResyncSource {
    pool::ProcessId gdh = pool::kNoProcess;    // Requester (reply target).
    pool::ProcessId target = pool::kNoProcess;
    uint64_t request_id = 0;
    uint64_t resync_id = 0;
    uint64_t token = 0;
    bool cutover = false;
    uint64_t delta_seq = 0;
    // Transfer accounting for the ResyncReply.
    uint64_t bulk_tuples = 0;
    uint64_t delta_records = 0;
    uint64_t delta_rounds = 0;
    uint64_t wire_bits = 0;  // First transmissions of bulk frames + deltas.
  };

  /// The answer when a shuffle or resync stream spent its budget without
  /// progress; a resync's (bulk or delta round) is ResyncStalled.
  Status NoProgress(const char* stream) const;
  Status ResyncStalled() const;
  /// Folds the bulk stream's bits into `source` and closes the stream.
  void CloseResyncBulk(ResyncSource& source);
  /// Ships the next committed-WAL round (or finishes the phase when the
  /// log is drained); the cutover phase always ships exactly one final
  /// round so the target completes even if nothing changed.
  void SendNextResyncDelta(ResyncSource& source);
  /// Answers the GDH (cached) and discards the source state.
  void FinishResyncSource(uint64_t token, Status status);

  Config config_;
  // Process-local state below is wrapped in the ownership checker: only
  // this process's handlers (or control-plane code between events) may
  // touch it; see pool/owned.h.
  pool::OwnedPtr<exec::Ofm> ofm_;

  // Receiver-side dedup: replies already sent, keyed by (sender,
  // request_id). Entries are evicted only once they age past the dedup
  // retention horizon — an eviction inside the sender's retry window
  // would let a retransmission re-execute a non-idempotent write. Plan
  // executions are idempotent reads and are NOT cached (their replies
  // carry result tuples; a duplicate simply re-executes), so every cached
  // entry is control-sized and the time-based retention stays cheap.
  struct CachedReply {
    std::string kind;
    std::any body;
    int64_t size_bits = 0;
    /// The reply leaves (and may be replayed) once this ticket is durable.
    pool::Disk::Ticket durable_at = 0;
  };
  pool::Owned<std::map<std::pair<pool::ProcessId, uint64_t>, CachedReply>>
      replies_;
  std::deque<std::pair<sim::SimTime, std::pair<pool::ProcessId, uint64_t>>>
      reply_order_;
  uint64_t dup_requests_ = 0;

  // Data-plane mail held back while in-doubt transactions are unresolved.
  pool::Owned<std::vector<pool::Mail>> stalled_;
  uint64_t next_request_id_ = 1;

  // Terminated transactions and whether they committed (evicted past the
  // same retention horizon): late writes for these are refused instead of
  // re-opening the transaction.
  pool::Owned<std::map<exec::TxnId, bool>> finished_;
  std::deque<std::pair<sim::SimTime, exec::TxnId>> finished_order_;
  // Transactions this process incarnation received writes for (erased at
  // commit/abort). A prepare for a transaction absent from this set AND
  // not in doubt means a crash replacement lost its writes: vote no. A
  // no-op write (zero rows matched) still registers here, so it votes yes.
  pool::Owned<std::set<exec::TxnId>> seen_txns_;

  // Producer side. Shuffles and resync bulk copies go out through one
  // sender and draw their tokens from one sequence: a token names an
  // entry of shuffles_ or of resync_sources_, which is how an ack or a
  // spent budget finds its owner. `in_flight_` maps the requester's
  // (sender, request_id), the reply cache's key, onto the token of the
  // shuffle or resync session it started, so a retransmitted request that
  // races its own in-flight execution is ignored instead of streaming
  // twice.
  StreamSender shuffle_out_;
  // Settlement contract (D6): the target's ack settles a delta round; a
  // spent budget or a finished session settles through FinishResyncSource.
  // PRISMA_SETTLES(deltas_: success=HandleResyncDeltaAck,
  //                exhaustion=FinishResyncSource, shed=FinishResyncSource)
  RpcClient<pool::ProcessId> deltas_;
  pool::Owned<std::map<uint64_t, ShuffleState>> shuffles_;
  pool::Owned<std::map<std::pair<pool::ProcessId, uint64_t>, uint64_t>>
      in_flight_;
  uint64_t next_shuffle_token_ = 1;

  // Resync source sessions by token. The committed-WAL cursor per resync
  // id outlives the phase A session (the cutover request resumes from
  // it); while any cursor is outstanding, checkpoints are acknowledged but
  // deferred so the WAL is not truncated under the cursor.
  pool::Owned<std::map<uint64_t, ResyncSource>> resync_sources_;
  pool::Owned<std::map<uint64_t, size_t>> resync_cursors_;

  // Resident fragment plans (DESIGN.md §15.4), FIFO-bounded by
  // plan_capacity. Volatile: a respawned OFM starts without any, and its
  // new pid is on no coordinator's record.
  pool::Owned<std::map<PlanRef, std::shared_ptr<const algebra::Plan>>>
      plans_;
  std::deque<PlanRef> plan_order_;

  // Resync target state (resync-mode processes only): the bulk stream's
  // receiver, the adopted source session token and the stop-and-wait
  // delta cursor.
  StreamReceiver bulk_in_;
  uint64_t resync_token_ = 0;
  uint64_t resync_delta_applied_ = 0;
  bool resync_finished_ = false;

  // Cached registry counters (null when no registry was configured).
  obs::Counter* m_tuples_scanned_ = nullptr;
  obs::Counter* m_index_selections_ = nullptr;
  obs::Counter* m_full_scans_ = nullptr;
  obs::Counter* m_plans_executed_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Counter* m_wal_records_ = nullptr;
  obs::Counter* m_wal_markers_ = nullptr;
  obs::Counter* m_redo_applied_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_dup_requests_ = nullptr;
  // Id-only plan requests, registered on the first one.
  obs::Counter* m_plan_hits_ = nullptr;
  obs::Counter* m_plan_misses_ = nullptr;
  // Exchange-producer metrics, registered lazily on the first shuffle so
  // fragments that never shuffle keep their metric dumps unchanged.
  obs::Counter* m_batches_sent_ = nullptr;
  obs::Counter* m_exchange_bytes_ = nullptr;
  obs::Counter* m_exchange_stalls_ = nullptr;
  obs::Counter* m_wire_bits_ = nullptr;  // Modelled bits put on the wire.
  uint64_t wal_synced_ = 0;
  uint64_t markers_synced_ = 0;
  uint64_t redo_synced_ = 0;
  // The distinct estimates the last write reply carried (a respawned OFM
  // reports its rebuilt ones with its first write).
  std::vector<uint64_t> reported_distinct_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_OFM_PROCESS_H_
