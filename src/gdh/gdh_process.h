#ifndef PRISMA_GDH_GDH_PROCESS_H_
#define PRISMA_GDH_GDH_PROCESS_H_

#include <any>
#include <compare>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gdh/data_dictionary.h"
#include "gdh/lock_manager.h"
#include "gdh/machine_params.h"
#include "gdh/messages.h"
#include "gdh/transport.h"
#include "obs/metrics.h"
#include "pool/owned.h"
#include "pool/runtime.h"
#include "sql/binder.h"
#include "storage/memory_tracker.h"
#include "storage/stable_store.h"

namespace prisma::gdh {

/// Where the data-allocation manager puts one fragment: its PE and the PE
/// of its backup replica, used when fragments are replicated.
struct FragmentHome {
  net::NodeId pe = 0;
  net::NodeId backup_pe = 0;
};

/// Data allocation (§2.2, DESIGN.md S10): deals the `fragments` fragments
/// of one table over a pool of PEs. The pool is `fragment_pes`, with
/// `gdh_pe` appended when the table has more fragments than
/// `fragment_pes` holds, so an n-way table on n PEs puts one fragment on
/// every PE. Placement is aligned: pool slot i goes to fragment i, so
/// equal fragment indexes of co-partitioned tables share a PE. The backup
/// takes the next slot of the pool (anti-affinity: never the primary's PE
/// once the pool has two or more PEs).
std::vector<FragmentHome> AllocateFragments(
    const std::vector<net::NodeId>& fragment_pes, net::NodeId gdh_pe,
    size_t fragments);

/// The Global Data Handler (§2.2): data dictionary, query optimizer
/// configuration, transaction manager, concurrency-control unit, recovery
/// coordinator and data-allocation manager, running as one POOL-X process
/// (conventionally on PE 0). SELECTs are delegated to per-query
/// coordinator processes; DDL, DML and transaction control are handled
/// here.
///
/// GDH<->OFM messaging tolerates a faulty interconnect: every request is
/// retransmitted with capped exponential backoff until it is answered or
/// its retry budget runs out, at which point the operation degrades to a
/// typed kUnavailable instead of hanging. A transaction with one
/// participant commits in one phase at that OFM, which forces its redo
/// records and commit marker as one write and decides the outcome; the
/// GDH logs nothing. Several participants follow presumed-abort 2PC: only
/// commit decisions are forced to the GDH's stable store, so a restarted
/// GDH (or an inquiring OFM) resolves in-doubt participants correctly
/// while aborts need no log record at all, and the client is answered as
/// soon as the decision is durable (DESIGN.md §8.1).
///
/// Stable storage is an asynchronous device (pool::Disk): the GDH keeps
/// handling mail while its writes are in flight, and nothing that depends
/// on a record — a handed-out transaction id, a commit decision — leaves
/// before that record is durable (DESIGN.md §8.1).
class GdhProcess : public pool::Process {
 public:
  struct PeResources {
    storage::MemoryTracker* memory = nullptr;
  };
  struct Config {
    /// PEs eligible to host fragments (the allocation pool).
    std::vector<net::NodeId> fragment_pes;
    /// PEs eligible to host per-query coordinators, used round-robin.
    /// Empty = every coordinator runs on its client's PE.
    std::vector<net::NodeId> coordinator_pes;
    std::map<net::NodeId, PeResources> resources;
    /// Base-fragment OFM flavour (kQueryOnly disables durability — E7).
    exec::OfmType base_ofm_type = exec::OfmType::kFull;
    /// Place each permanent fragment on two distinct PEs (DESIGN.md §13):
    /// the data-allocation manager pairs every fragment with a backup on
    /// the next PE of its table's pool (AllocateFragments), writes 2PC to
    /// both replicas, and reads fail over to the surviving replica when
    /// one PE is down. Requires at least two fragment PEs and kFull base
    /// OFMs.
    bool replicate_fragments = false;
    /// The machine's settings, handed whole to every OFM and coordinator
    /// spawned. The GDH invalidates `machine.plan_cache` on DDL, replica
    /// failover and resync cutover (DESIGN.md §15.4).
    MachineParams machine;
  };

  explicit GdhProcess(Config config);

  void OnStart() override;
  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override { return "gdh"; }

  // --- Control plane, used by core::PrismaDb and tests between events ---

  DataDictionary& dictionary() { return *dictionary_; }
  const LockManager& locks() const { return *locks_; }

  /// Kills the OFM process of one fragment (simulated PE crash).
  Status CrashFragment(const std::string& table, int fragment);
  /// Spawns a replacement OFM that recovers from stable storage and
  /// resolves in-doubt transactions with this coordinator. Active
  /// transactions that had written to the fragment are doomed: their
  /// unprepared writes died with the old process, so they must abort.
  Status RecoverFragment(const std::string& table, int fragment);
  /// Recovers every dead fragment placed on `pe` (PE restart).
  Status RecoverPe(net::NodeId pe);

  /// Logged commit decisions not yet retired: some participant has not
  /// listed its commit marker as landed (tests).
  const std::set<exec::TxnId>& committed_decisions() const {
    return *committed_;
  }

  /// Next transaction id to hand out (tests: id-reuse after restart).
  exec::TxnId next_txn() const { return next_txn_; }

  /// Unsettled fan-out members: pending requests and parked one-phase
  /// commits (tests).
  size_t unsettled_members() const {
    return rpcs_.calls().size() + parked_commits_.size();
  }

 private:
  /// Coordinator-side 2PC lifecycle of one transaction. Terminal phases
  /// are assigned just before the TxnState is erased, so the declared
  /// machine covers the full lifetime.
  ///
  /// Transition table (D7): every assignment site carries a matching
  /// PRISMA_TRANSITION annotation; the lint cross-checks both directions.
  /// PRISMA_STATE_MACHINE(TxnPhase: init->kActive, kActive->kPreparing,
  ///                      kActive->kOnePhase, kActive->kAborting,
  ///                      kActive->kCommitted, kActive->kAborted,
  ///                      kOnePhase->kCommitted, kOnePhase->kAborted,
  ///                      kPreparing->kCommitting, kPreparing->kAborting,
  ///                      kCommitting->kCommitted, kAborting->kAborted)
  enum class TxnPhase : uint8_t {
    kActive,      // Accepting statements; nothing globally decided.
    kOnePhase,    // One-phase commit in flight at the sole participant.
    kPreparing,   // Phase 1 prepare round in flight.
    kCommitting,  // Decision logged commit; the client is answered and
                  // phase 2 goes on in the background (DESIGN.md §8.1).
    kAborting,    // Abort round in flight (vetoed, doomed, or explicit).
    kCommitted,   // Terminal: outcome surfaced as OK.
    kAborted,     // Terminal: outcome surfaced as an abort.
  };

  // Transaction bookkeeping.
  struct TxnState {
    bool explicit_txn = false;  // Created by BEGIN (vs statement/implicit).
    std::set<std::string> involved;  // Fragments with writes.
    pool::ProcessId coordinator = pool::kNoProcess;  // Statement-scoped.
    /// A fragment this transaction wrote to was respawned: the writes are
    /// gone, so commit must be refused.
    bool doomed = false;
    // PRISMA_TRANSITION(init, kActive, every transaction starts active)
    TxnPhase phase = TxnPhase::kActive;
  };

  /// One FanOut round (DESIGN.md §8.2). It always completes: every member
  /// is answered, shed with its replica, or settles as kUnavailable.
  struct Multicast {
    size_t expected = 0;  // Members; set once the round is sent.
    size_t received = 0;
    Status first_error;
    uint64_t affected = 0;
    std::function<void(const Multicast&)> done;

    /// Feeds one settled member in; the last one runs `done`.
    void Count(const Status& status, uint64_t rows);
  };
  using Done = std::function<void(const Multicast&)>;

  /// The two replicas of one fragment's write: only the first OK reply
  /// counts the affected rows and the row delta.
  struct DualWrite {
    bool counted = false;
  };

  /// A fan-out member, carried by its pending request: the replica it is
  /// addressed to (re-resolved on every retry, so retransmissions chase a
  /// respawned process), its round, and a dual-replica write's DualWrite.
  struct Member {
    std::string replica;
    std::shared_ptr<Multicast> batch;
    std::shared_ptr<DualWrite> dual;
  };
  using Rpcs = RpcClient<Member>;

  /// One member's request, built for `replica`, the `target`-th target,
  /// under `request_id`.
  struct Request {
    std::any body;
    int64_t bits = kControlBits;
  };
  using BuildRequest = std::function<Request(
      size_t target, const std::string& replica, uint64_t request_id)>;

  /// A spawned query coordinator being supervised.
  struct CoordWatch {
    pool::ProcessId client = pool::kNoProcess;
    uint64_t request_id = 0;
    exec::TxnId lock_txn = exec::kAutoCommit;
    net::NodeId pe = 0;
    sim::EventId timer = 0;
  };

  /// One in-flight resync of a stale replica (DESIGN.md §13), coordinated
  /// here: phase A asks the surviving replica to bulk-copy its committed
  /// snapshot and stream WAL-delta rounds into a fresh resync-mode OFM;
  /// phase B repeats under an exclusive lock on the fragment (a cutover
  /// transaction), shipping the final delta 2PC-consistently.
  struct ResyncState {
    std::string table;
    int fragment = 0;
    int replica = 0;  // The replica being rebuilt.
    uint64_t resync_id = 0;
    exec::TxnId cutover_txn = exec::kAutoCommit;
  };

  void HandleClientStatement(const pool::Mail& mail);
  void HandleLockBatch(const pool::Mail& mail);
  void HandleStatementDone(const pool::Mail& mail);
  void HandleWriteReply(const pool::Mail& mail);
  void HandleDecisionRequest(const pool::Mail& mail);
  void HandleCoordCheck(const pool::Mail& mail);
  void HandleResyncReply(const pool::Mail& mail);
  /// Runs a client statement once a durable transaction id is available
  /// for it (HandleClientStatement parks it until then).
  void DispatchStatement(const pool::Mail& mail);

  void SpawnCoordinator(const std::shared_ptr<ClientStatement>& stmt,
                        pool::ProcessId client);
  void ExecuteDdl(const sql::BoundStatement& bound,
                  const std::shared_ptr<ClientStatement>& stmt,
                  pool::ProcessId client);
  void ExecuteWrite(std::shared_ptr<sql::BoundStatement> bound,
                    const std::shared_ptr<ClientStatement>& stmt,
                    pool::ProcessId client);
  void ExecuteTxnControl(const sql::BoundStatement& bound,
                         const std::shared_ptr<ClientStatement>& stmt,
                         pool::ProcessId client);
  /// CHECKPOINT: every fragment snapshots and truncates its WAL.
  void ExecuteCheckpoint(const std::shared_ptr<ClientStatement>& stmt,
                         pool::ProcessId client);

  /// Acquires `mode` locks on `resources[index..]` one by one, in order,
  /// then calls `then` with OK or the deadlock abort status (counted in
  /// `gdh.deadlock_aborts`).
  void AcquireLocks(exec::TxnId txn, std::vector<std::string> resources,
                    LockMode mode, size_t index,
                    std::function<void(Status)> then);

  /// Commits `txn` over its involved fragments — in one phase when there
  /// is one, else by presumed-abort 2PC — then releases and calls
  /// `then(outcome)`.
  void RunCommit(exec::TxnId txn, std::function<void(Status)> then);
  /// One-phase commit at `participant`, the transaction's only one: the
  /// OFM decides, and the GDH waits for its answer however long that
  /// takes (it never presumes abort here), then releases and calls
  /// `then(outcome)`.
  void CommitOnePhase(exec::TxnId txn, const std::string& participant,
                      std::function<void(Status)> then);
  /// Phase 2 of RunCommit, entered once the outcome is durable
  /// (commit) or decided (abort), delivering it to `involved`. A commit
  /// releases and calls `then(OK)` at once, and phase 2 settles in the
  /// background; an abort does both once every participant settled.
  void SendDecision(exec::TxnId txn, bool commit, Status outcome,
                    const std::vector<std::string>& involved,
                    sim::SimTime phase1_start,
                    std::function<void(Status)> then);
  /// Work in flight on base fragments that later work there waits for:
  /// a commit (keyed by its transaction) or a checkpoint round on one
  /// fragment (keyed by its round number).
  struct WorkKey {
    bool checkpoint = false;
    int64_t id = 0;  // Transaction id, or checkpoint round number.
    auto operator<=>(const WorkKey&) const = default;
  };
  /// The unsettled work registered on any of the base fragments
  /// `fragments`.
  std::set<WorkKey> UnsettledOn(
      const std::vector<std::string>& fragments) const;
  /// Runs `then` once the work now unsettled on any of the base fragments
  /// `fragments` has settled (at once if there is none).
  void AfterSettled(const std::vector<std::string>& fragments,
                    std::function<void()> then);
  /// `key`'s work settled: wakes the work waiting for it.
  void Settle(const WorkKey& key);
  /// Base fragment names ("emp#3") of replica names ("emp#3~b").
  std::vector<std::string> BaseFragments(
      const std::vector<std::string>& replicas);
  /// Aborts `txn` everywhere, releases locks, then `then`.
  void AbortEverywhere(exec::TxnId txn, std::function<void(Status)> then);

  void ReplyToClient(pool::ProcessId client, uint64_t request_id,
                     Status status, uint64_t affected, exec::TxnId txn);

  // ----------------------------------------------------- Hardened RPCs

  /// The GDH's one scatter/await-all (DESIGN.md §8.2): sends a `kind`
  /// request built by `build` to each of `targets` under a fresh request
  /// id, and calls `done` once every member settled. A write (kMailWrite)
  /// names base fragments: each reaches its write set (WriteTargets,
  /// chosen at its turn), whose replicas share a DualWrite. An
  /// unresolvable target (crashed fragment) is retried like a lost message.
  void FanOut(const std::vector<std::string>& targets, const char* kind,
              int max_attempts, const BuildRequest& build, Done done);
  /// A fan-out of `op` (prepare, one-phase commit, decision or abort).
  void TxnControl(TxnControlRequest::Op op, exec::TxnId txn,
                  const std::vector<std::string>& targets, int max_attempts,
                  Done done);
  /// Settles member `request_id`: takes it out of the pending requests
  /// (or the parked commits) and counts `status` and `rows` in its round.
  /// False if it had settled already.
  bool SettleRpc(uint64_t request_id, const Status& status,
                 uint64_t rows = 0);
  /// SettleRpc for a reply: one to a settled member counts as a duplicate.
  bool SettleReply(uint64_t request_id, const Status& status,
                   uint64_t rows = 0);
  /// Retry hook: counts the retransmission, and sheds a replica whose
  /// host process is gone instead of resending to it. A one-phase commit
  /// whose participant is gone is parked until its respawn instead.
  bool RetryRpc(uint64_t request_id, const Rpcs::PendingRpc& rpc);
  /// Exhaustion hook: sheds the unanswered replica of a replicated
  /// fragment, or degrades the request to a typed kUnavailable.
  void RpcExhausted(uint64_t request_id, const Rpcs::PendingRpc& rpc);
  /// Sheds `target`, the replica an unanswerable request is addressed
  /// to, when its peer carries on, and settles the request benignly;
  /// false if the fragment cannot shed it.
  bool ShedRpc(uint64_t request_id, const std::string& target);

  /// Marks active transactions that wrote to `fragment` as doomed.
  void DoomTxnsInvolving(const std::string& fragment);


  // ------------------------------------------- Presumed-abort decisions

  /// Forces "C <txn>" to the decision log and runs `then` once it is
  /// durable (at once on a diskless PE). The decision exists only from
  /// then on: until the record lands the transaction stays kPreparing, so
  /// inquiries about it are deferred and a crash loses it (presumed abort).
  void LogCommitDecision(exec::TxnId txn, std::function<void()> then);
  /// Forgets a commit whose participants all have its commit marker on
  /// disk and logs "E <txn>" unforced: the record rides on the GDH's next
  /// forced write (a decision or an id reservation) instead of costing a
  /// disk access of its own. A lost E only means a restarted GDH
  /// remembers a decision nobody will ask about.
  void LogCommitEnd(exec::TxnId txn);
  /// `replica` no longer needs the decisions on `txns`: a reply listed
  /// their commit markers as landed (commits_landed), or ForgetMarkersOf.
  /// The last participant of a decision retires it.
  void CommitMarkersLanded(const std::string& replica,
                           const std::vector<exec::TxnId>& txns);
  /// `replica` will never need a decision again: it was shed (resync
  /// rebuilds it from its peer) or its table dropped.
  void ForgetMarkersOf(const std::string& replica);
  /// A new forced write to the GDH's disk, carrying the end records
  /// logged since the last one.
  storage::StableWrite ForcedWrite();
  /// Rebuilds committed_ (and next_txn_) from the decision log.
  void ReplayDecisionLog();

  /// True when a durably reserved transaction id is available.
  bool HasTxnId() const;
  /// Reserve-ahead: keeps kTxnIdLookahead ids reserved beyond next_txn_ by
  /// writing a new high-water mark (one chunk at a time) before they are
  /// needed. Statements take ids only below the durable mark, so in steady
  /// state they never wait for a reservation; only the first statement of
  /// an incarnation does.
  void ReserveTxnIds();

  StatusOr<pool::ProcessId> OfmOf(const std::string& fragment) const;
  /// Folds a write reply's row delta and distinct estimates into the
  /// dictionary statistics of its fragment.
  void ApplyWriteStats(const WriteReply& reply);

  // ------------------------------------------- Replication (DESIGN.md §13)

  /// Resolves a replica name ("emp#3" or "emp#3~b") to its FragmentInfo
  /// and replica index; null if unknown.
  FragmentInfo* FindFragment(const std::string& replica_name, int* replica);
  /// Replica names a write to `frag` must reach: every in-sync replica,
  /// after shedding dead ones whose peer can carry on alone.
  std::vector<std::string> WriteTargets(FragmentInfo& frag);
  /// Sheds replica `dead` from the write set (marks it kStale and flips
  /// the primary role to the peer if needed). Only succeeds when the peer
  /// is in-sync and alive — the failover decision rule: never shed the
  /// last healthy copy. Returns true if the replica is (now) shed.
  bool TryFailover(FragmentInfo& frag, int dead);
  /// `txn`'s involved replica names minus shed (non-in-sync) replicas:
  /// what 2PC phases actually need to reach. Should that leave none, all
  /// of them, so their requests settle.
  std::vector<std::string> ActiveInvolved(const TxnState& state);
  /// Respawns one dead replica: WAL recovery for in-sync replicas (plus
  /// dooming transactions that lost writes with the old process), a fresh
  /// resync from the peer for stale ones (their WAL is behind the
  /// survivor and cannot be trusted).
  Status RecoverReplica(const std::string& table, TableInfo* info,
                        int fragment, int replica);
  /// Starts a resync for a stale replica of the fragment if its peer is
  /// alive and in-sync; no-op otherwise (retried from recovery events).
  void MaybeStartResync(const std::string& table, int fragment);
  void StartResync(const std::string& table, int fragment, int replica);
  /// Advances a resync after a phase RPC settles: phase A success leads
  /// into the cutover lock + phase B; phase B success marks the replica
  /// in-sync; any failure aborts the attempt.
  void OnResyncPhaseDone(uint64_t resync_id, bool cutover,
                         const Status& status);
  void SendResyncPhase(uint64_t resync_id, bool cutover);
  /// Kills the resync target, marks the replica stale again and releases
  /// the cutover transaction, then retries if the source is healthy.
  void AbortResync(uint64_t resync_id);
  /// Spawns one replica OFM process.
  pool::ProcessId SpawnReplicaOfm(const TableInfo& info,
                                  const std::string& replica_name,
                                  net::NodeId pe, bool recover,
                                  uint64_t resync_id);
  /// Typed-unavailability accounting (degradation reporting): bumps the
  /// labeled query.unavailable{pe,table} counter.
  void CountUnavailable(net::NodeId pe, const std::string& table);

  /// Hands out the next durably reserved id; requires HasTxnId().
  exec::TxnId NewTxn(bool explicit_txn);

  /// Drops supervision and cached lock replies of a finished coordinator.
  void ForgetCoordinator(pool::ProcessId coordinator);

  /// Null-safe counter bump (registry may be absent).
  static void Inc(obs::Counter* c, uint64_t delta = 1) {
    if (c != nullptr) c->Increment(delta);
  }
  /// Registers fault-path counters on first use so fault-free metric
  /// dumps are unchanged.
  obs::Counter* LazyCounter(obs::Counter** slot, const char* name);

  Config config_;
  // Process-local state below is wrapped in the ownership checker: only
  // this process's handlers (or control-plane code between events) may
  // touch it; see pool/owned.h.
  pool::Owned<DataDictionary> dictionary_;
  pool::Owned<LockManager> locks_;

  // Cached registry counters: the GDH's only tally of its own events
  // (null without a registry; read through MetricsRegistry::CounterValue).
  obs::Counter* m_statements_ = nullptr;
  obs::Counter* m_selects_ = nullptr;
  obs::Counter* m_txns_begun_ = nullptr;
  obs::Counter* m_txns_committed_ = nullptr;
  obs::Counter* m_txns_aborted_ = nullptr;
  obs::Counter* m_deadlock_aborts_ = nullptr;
  obs::Counter* m_write_ops_ = nullptr;
  obs::Counter* m_2pc_rounds_ = nullptr;
  obs::Counter* m_one_phase_commits_ = nullptr;
  // Fault-path counters, registered lazily on first event.
  obs::Counter* m_rpc_retries_ = nullptr;
  obs::Counter* m_rpc_failures_ = nullptr;
  obs::Counter* m_dup_replies_ = nullptr;
  obs::Counter* m_txns_doomed_ = nullptr;
  obs::Counter* m_coords_reaped_ = nullptr;
  obs::Counter* m_decisions_deferred_ = nullptr;
  // Replication counters (replica.*), registered lazily so fault-free
  // unreplicated dumps are unchanged.
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_stale_marks_ = nullptr;
  obs::Counter* m_resyncs_started_ = nullptr;
  obs::Counter* m_resyncs_completed_ = nullptr;
  obs::Counter* m_resyncs_aborted_ = nullptr;
  obs::Counter* m_resync_bulk_tuples_ = nullptr;
  obs::Counter* m_resync_delta_records_ = nullptr;
  obs::Counter* m_resync_rounds_ = nullptr;
  obs::Counter* m_resync_wire_bits_ = nullptr;

  exec::TxnId next_txn_ = 1;
  /// Ids below this are covered by a durable reservation record, so a
  /// restarted GDH never re-hands out an id this incarnation allocated
  /// (aborted and read-only transactions leave no decision record).
  exec::TxnId txn_id_hwm_ = 1;
  /// Highest reservation mark submitted to the disk (>= txn_id_hwm_).
  exec::TxnId txn_id_reserved_ = 1;
  /// Work parked until a durable transaction id is available, in arrival
  /// order (client statements, resync cutovers).
  std::deque<std::function<void()>> id_waiters_;
  pool::Owned<std::map<exec::TxnId, TxnState>> txns_;
  /// Commit decisions whose end record has not been logged yet. Aborts
  /// are never recorded (presumed abort).
  pool::Owned<std::set<exec::TxnId>> committed_;
  /// End records not on disk yet (see LogCommitEnd).
  std::vector<std::string> pending_ends_;
  /// Per commit decision sent in this incarnation, the participant
  /// replicas whose commit marker has not been listed as landed yet
  /// (DESIGN.md §8.1, "Unforced commit markers").
  std::map<exec::TxnId, std::set<std::string>> markers_awaited_;

  /// Work not yet settled, with the base fragments it covers: a one-phase
  /// commit until its participant answers, a multi-participant commit
  /// until its phase 2 settles, a checkpoint round until its fragment
  /// answered. A fragment admits a new writer, a one-phase commit, a
  /// checkpoint round or a resync cutover only once the work registered
  /// on it before has settled (DESIGN.md §8.1).
  std::map<WorkKey, std::vector<std::string>> unsettled_;
  struct SettleWaiter {
    std::set<WorkKey> pending;  // Still unsettled.
    std::function<void()> then;
  };
  std::vector<SettleWaiter> settle_waiters_;
  int64_t next_checkpoint_round_ = 1;
  /// One-phase commit requests whose participant died before answering,
  /// by request id: re-sent to the respawned OFM, which answers from its
  /// WAL, unless a late reply of the dead one settles them first.
  struct ParkedCommit {
    Member member;
    std::any body;
  };
  std::map<uint64_t, ParkedCommit> parked_commits_;

  uint64_t next_request_id_ = 1;
  // Settlement contract (D6): replies settle via SettleRpc, retry-budget
  // exhaustion via RpcExhausted, and a dead replica's in-flight RPCs are
  // swept onto the survivor by TryFailover.
  // PRISMA_SETTLES(rpcs_: success=SettleRpc, exhaustion=RpcExhausted,
  //                shed=TryFailover)
  RpcClient<Member> rpcs_;  // Fan-out members by request id.

  /// Active resyncs by resync id.
  std::map<uint64_t, ResyncState> resyncs_;
  uint64_t next_resync_id_ = 1;

  /// Under a faulty interconnect (`machine.retransmit.resend_ns` > 0) the
  /// GDH probes spawned coordinators at this period and fails their
  /// statement with kUnavailable if the process died.
  static constexpr sim::SimTime kCoordCheckNs = sim::kNanosPerSecond;
  /// Spawned coordinators under supervision.
  std::map<pool::ProcessId, CoordWatch> coords_;
  /// Lock-batch dedup: (requester, request_id) -> reply once computed
  /// (null while acquisition is in flight).
  std::map<std::pair<pool::ProcessId, uint64_t>,
           std::shared_ptr<LockBatchReply>>
      lock_replies_;

  size_t coordinator_cursor_ = 0;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_GDH_PROCESS_H_
