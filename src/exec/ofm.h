#ifndef PRISMA_EXEC_OFM_H_
#define PRISMA_EXEC_OFM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/serialize.h"
#include "common/tuple.h"
#include "exec/distinct_sketch.h"
#include "exec/executor.h"
#include "pool/disk.h"
#include "storage/btree_index.h"
#include "storage/hash_index.h"
#include "storage/memory_tracker.h"
#include "storage/relation.h"
#include "storage/stable_store.h"

namespace prisma::exec {

/// Transaction identifier; kAutoCommit marks single-operation transactions
/// that commit immediately.
using TxnId = int64_t;
constexpr TxnId kAutoCommit = 0;

/// OFM flavours (§2.5): "Several OFM types are envisioned, each equipped
/// with the right amount of tools. For example, OFMs needed for query
/// processing only do not require extensive crash recovery facilities."
enum class OfmType : uint8_t {
  kFull,       // Base fragments: write-ahead logging + checkpoint/recover.
  kQueryOnly,  // Intermediate results: no durability machinery at all.
};

/// One-Fragment Manager: the per-fragment database system at the heart of
/// the PRISMA architecture (§2.5). It owns exactly one relation fragment
/// in main memory together with its access structures, and provides every
/// local DBMS function: query execution over the fragment (with the
/// expression compiler), cursor/marking maintenance, transactional writes
/// with undo, write-ahead logging, checkpointing, and restart recovery.
///
/// The OFM itself is machine-agnostic; the distributed layer wraps it in a
/// POOL-X process and talks to it with messages.
class Ofm {
 public:
  struct Options {
    OfmType type = OfmType::kFull;
    /// Memory budget of the hosting PE (may be null: untracked).
    storage::MemoryTracker* memory = nullptr;
    /// Disk of the hosting (or nearest disk-equipped) PE. Required for
    /// kFull, ignored for kQueryOnly. Log and checkpoint writes are I/O
    /// requests on it, submitted on behalf of `disk_owner`: they become
    /// durable when the device completes them, not when the call returns.
    pool::Disk* disk = nullptr;
    pool::ProcessId disk_owner = pool::kNoProcess;
    /// Execution options (expression mode, cost model, charge hook).
    ExecOptions exec;
  };

  /// `fragment_name` is the globally unique name ("emp#3") under which
  /// Scan nodes address this fragment.
  Ofm(std::string fragment_name, Schema schema, Options options);

  Ofm(const Ofm&) = delete;
  Ofm& operator=(const Ofm&) = delete;

  const std::string& fragment_name() const { return fragment_name_; }
  const Schema& schema() const { return relation_.schema(); }
  OfmType type() const { return options_.type; }
  const storage::Relation& relation() const { return relation_; }
  size_t num_tuples() const { return relation_.num_tuples(); }

  // ------------------------------------------------------------- Indexes

  /// Builds an index on `key_columns`. An index of the same kind on the
  /// same columns already serves the new name, so none is built and
  /// writes keep maintaining one structure.
  Status CreateHashIndex(const std::string& index_name,
                         std::vector<size_t> key_columns);
  Status CreateBTreeIndex(const std::string& index_name,
                          std::vector<size_t> key_columns);
  const storage::HashIndex* FindHashIndex(
      const std::vector<size_t>& key_columns) const;
  const storage::BTreeIndex* FindBTreeIndex(
      const std::vector<size_t>& key_columns) const;
  size_t num_indexes() const {
    return hash_indexes_.size() + btree_indexes_.size();
  }

  // ---------------------------------------------------------- Write path

  /// Transactional writes. With txn == kAutoCommit the operation's redo
  /// record is written at once (durable when last_write() lands);
  /// otherwise it joins `txn`'s undo scope and its redo record is
  /// buffered until Prepare.
  StatusOr<storage::RowId> Insert(TxnId txn, Tuple tuple);
  Status Delete(TxnId txn, storage::RowId row);
  Status Update(TxnId txn, storage::RowId row, Tuple tuple);

  /// Deletes every tuple satisfying `predicate` (bound to the schema);
  /// returns the count. Null predicate deletes everything. Like a
  /// selection, it probes an index when one fits the predicate (see
  /// ChooseIndexPath) and scans the fragment otherwise.
  StatusOr<size_t> DeleteWhere(TxnId txn, const algebra::Expr* predicate);

  /// SET column = expr assignments applied to tuples matching `predicate`.
  StatusOr<size_t> UpdateWhere(
      TxnId txn, const algebra::Expr* predicate,
      const std::vector<std::pair<size_t, const algebra::Expr*>>& assignments);

  // -------------------------------------------------- Transaction control

  /// Phase 1 of 2PC: writes the transaction's redo records and a prepare
  /// marker as one request; once last_write() is durable the OFM
  /// guarantees it can commit (a yes-vote may leave only then).
  Status Prepare(TxnId txn);
  /// Phase 2: discards undo state and buffers the commit marker (see
  /// FlushMarkers). On a transaction that was never prepared this is a
  /// one-phase commit: its buffered redo records and the commit marker
  /// travel as one write, its commit point, durable with last_write().
  Status Commit(TxnId txn);
  /// Undoes the transaction's local effects (reverse order). A prepared
  /// transaction's abort marker is buffered and need not be waited for:
  /// under presumed abort a lost marker resolves to abort anyway.
  Status Abort(TxnId txn);

  /// The markers that close a prepared transaction (commit or abort,
  /// ResolveRecovered's included) wait in memory and ride at the front of
  /// the next write this OFM submits (a prepare, a one-phase commit, an
  /// auto-commit redo record, a checkpoint or this call) instead of each
  /// taking a write of its own. Write order still puts such a marker ahead
  /// of every later writer's records. This call submits them as a write
  /// of their own (nothing when none wait); a reader of the landed WAL
  /// calls it first.
  void FlushMarkers();
  /// Transactions whose buffered commit markers rode on writes submitted
  /// since the last call, in submission order: they are durable once
  /// last_write() is. Recover adds every prepared transaction whose
  /// commit marker it replays. A query-only OFM logs nothing and reports
  /// each commit at once.
  std::vector<TxnId> TakeSubmittedCommits() {
    return std::exchange(submitted_commits_, {});
  }

  /// Ticket of the most recent write this OFM submitted (0: none). The
  /// disk lands writes in order, so once it is durable so is every
  /// earlier one.
  pool::Disk::Ticket last_write() const { return last_write_; }
  /// True when every write this OFM submitted has landed.
  bool WritesDurable() const {
    return options_.disk == nullptr || options_.disk->Durable(last_write_);
  }
  /// True if `txn` has touched this fragment and is still open.
  bool HasTransaction(TxnId txn) const;
  /// True if a commit marker of `txn` has landed in the WAL since the
  /// last checkpoint: how a restarted OFM learns the outcome of a
  /// one-phase commit whose reply its predecessor may not have sent. A
  /// one-phase commit's marker is never buffered, so this reads no buffer.
  bool CommitLogged(TxnId txn);

  // ---------------------------------------------------------- Statistics

  /// Distinct-value estimate of every column of the fragment, in schema
  /// order (DistinctSketch). Inserts and updates add to the sketches and
  /// deletes leave them, so they over-estimate after deletes until
  /// Recover, ResolveRecovered or FinishResync rebuilds them from the
  /// relation. Their upkeep is part of a write's per-tuple cost.
  std::vector<uint64_t> DistinctEstimates() const;

  // ------------------------------------------------------------ Querying

  /// Executes a local plan; Scan nodes naming this fragment resolve to the
  /// resident relation. Index selection and expression compilation happen
  /// here — the OFM is a complete little query processor. Scans of other
  /// names fall back to `colocated` when provided (co-located join
  /// execution; see gdh::PeLocalRegistry). A non-null `profile` turns on
  /// per-operator profiling and receives the plan's profile tree
  /// (EXPLAIN ANALYZE).
  StatusOr<std::vector<Tuple>> ExecutePlan(
      const algebra::Plan& plan, const TableResolver* colocated = nullptr,
      obs::OperatorProfile* profile = nullptr);

  /// Stats of the most recent ExecutePlan.
  const ExecStats& last_exec_stats() const { return last_exec_stats_; }

  /// Cursor with marking support ("markings and cursor maintenance",
  /// §2.5): iterates live tuples in RowId order; a mark can be taken and
  /// later restored. Deletions of not-yet-visited rows are skipped
  /// naturally (tombstones).
  class Cursor {
   public:
    explicit Cursor(const storage::Relation* relation)
        : relation_(relation) {}
    /// Returns the next live tuple, or nullopt at the end.
    std::optional<Tuple> Next();
    /// Marks the current position.
    void Mark() { mark_ = position_; }
    /// Rewinds to the last mark (start if none was taken).
    void ResetToMark() { position_ = mark_; }

   private:
    const storage::Relation* relation_;
    storage::RowId position_ = 0;
    storage::RowId mark_ = 0;
  };
  Cursor OpenCursor() const { return Cursor(&relation_); }

  // ------------------------------------------------------------ Recovery

  /// Writes a fragment snapshot to stable storage and truncates the WAL,
  /// as one request (the buffered markers ride ahead of it): the
  /// truncation lands with the snapshot, so a crash before last_write() is
  /// durable recovers from the old checkpoint plus the untruncated log.
  Status Checkpoint();

  /// Rebuilds the fragment from the last checkpoint plus the WAL suffix,
  /// applying only committed (or auto-committed) transactions. Called
  /// after a crash replaces the OFM process.
  ///
  /// Transactions that were *prepared* but neither committed nor aborted
  /// are in-doubt: their effects are withheld and their ids reported by
  /// recovered_undecided(); the coordinator must ResolveRecovered() each.
  Status Recover();

  /// In-doubt transactions found by the last Recover.
  const std::vector<TxnId>& recovered_undecided() const {
    return undecided_order_;
  }

  /// Applies (commit) or discards (abort) an in-doubt transaction's
  /// logged effects and buffers the outcome marker (FlushMarkers).
  Status ResolveRecovered(TxnId txn, bool commit);

  // ---------------------------------------------- Replica resync hooks
  //
  // The replication layer (DESIGN.md §13) rebuilds a stale replica from a
  // surviving one: the *source* streams a snapshot of its live rows (with
  // RowIds, so the target mirrors the slot layout) followed by committed
  // WAL-delta rounds; the *target* starts empty, absorbs both, then
  // rebuilds indexes and checkpoints at the 2PC-consistent cutover.

  /// Source: committed WAL data records at stream positions >= *cursor,
  /// advancing *cursor past every record whose transaction outcome is
  /// already decided. Markers are skipped; a record of a still-deciding
  /// transaction stops the scan (a later round ships it once its
  /// commit/abort marker lands, and the cutover's exclusive lock
  /// guarantees the final round finds everything decided). Only landed
  /// markers count: a caller flushes the buffered ones (FlushMarkers) and
  /// waits for them to land first.
  StatusOr<std::vector<std::string>> CommittedWalSince(size_t* cursor);

  /// Source: the fragment's committed contents — live rows with the
  /// effects of still-open (undecided) transactions undone from their
  /// undo records, keyed by RowId so the target mirrors the slot layout.
  /// Paired with a CommittedWalSince cursor taken in the same simulation
  /// event this is an exact snapshot/delta boundary: fragment-level
  /// exclusive locks admit at most one writer transaction at a time.
  std::vector<std::pair<storage::RowId, Tuple>> CommittedRows();

  /// Target: drops all contents so a superseding bulk stream can restart.
  void ResyncReset();

  /// Target: restores one snapshot row at `row`, padding tombstoned slots
  /// in between (bulk rows arrive in increasing RowId order).
  Status ResyncRestoreRow(storage::RowId row, Tuple tuple);

  /// Target: applies one shipped committed WAL data record.
  Status ResyncApplyRecord(const std::string& record);

  /// Target: index rebuild + checkpoint after the final delta; the
  /// replica's stable state is now self-sufficient for normal Recover().
  /// Pads trailing tombstoned slots up to `source_slots` first — the bulk
  /// snapshot ships live rows only, so rows deleted at the end of the
  /// source's RowId space would otherwise be lost and later inserts would
  /// diverge the replicas' RowId assignment (and checkpoint bytes).
  Status FinishResync(uint64_t source_slots);

  /// The write a new fragment queues before its first: it erases the WAL
  /// and checkpoint a dropped fragment of the same name left in `store`,
  /// so restart recovery replays only the new fragment's history. Empty
  /// when `store` holds neither.
  static storage::StableWrite EraseStaleState(
      const storage::StableStore& store, const std::string& fragment_name);

  /// Number of WAL records written over this OFM's lifetime, and how many
  /// of them were prepare/commit/abort markers (the rest are redo records).
  uint64_t wal_records() const { return wal_records_; }
  uint64_t wal_markers() const { return wal_markers_; }

  /// Number of WAL data records redone (applied) by Recover and
  /// ResolveRecovered over this OFM's lifetime.
  uint64_t redo_records_applied() const { return redo_applied_; }

 private:
  struct UndoRecord {
    enum class Op : uint8_t { kInsert, kDelete, kUpdate } op;
    storage::RowId row;
    Tuple before;  // kDelete/kUpdate.
  };
  struct OpenTxn {
    std::vector<UndoRecord> undo;
    std::vector<std::string> pending_redo;  // Buffered until Prepare.
    bool prepared = false;
  };

  static std::string WalStream(const std::string& fragment) {
    return fragment + ".wal";
  }
  static std::string SnapshotName(const std::string& fragment) {
    return fragment + ".ckpt";
  }
  std::string WalStream() const { return WalStream(fragment_name_); }
  std::string SnapshotName() const { return SnapshotName(fragment_name_); }

  /// Writes (or, inside a transaction, buffers) a redo record.
  Status LogRedo(TxnId txn, std::string record);
  /// Applies one WAL data record during recovery/decision resolution;
  /// `reader` is positioned just past the (op, txn) header.
  Status ApplyWalData(uint8_t op, BinaryReader* reader);
  /// Buffers a marker that closes a prepared transaction (FlushMarkers).
  void LogMarker(TxnId txn, uint8_t op);
  /// Writes a transaction's buffered redo records plus `marker` as one
  /// request.
  void FlushRedo(OpenTxn& open, std::string marker);
  /// Submits one write, behind the buffered markers, to the disk and
  /// remembers its ticket.
  void SubmitToDisk(storage::StableWrite write);
  void ChargeCpu(sim::SimTime ns);

  /// Rows satisfying `predicate` (all rows when null) in RowId order,
  /// through an index when one fits, charging the work.
  StatusOr<std::vector<storage::RowId>> MatchingRows(
      const algebra::Expr* predicate);

  void IndexInsert(storage::RowId row, const Tuple& tuple);
  void IndexDelete(storage::RowId row, const Tuple& tuple);
  void SketchAdd(const Tuple& tuple);
  /// Rebuilds the indexes and the sketches from the relation.
  void RebuildAccessStructures();

  std::string fragment_name_;
  Options options_;
  storage::Relation relation_;
  std::vector<std::unique_ptr<storage::HashIndex>> hash_indexes_;
  std::vector<std::unique_ptr<storage::BTreeIndex>> btree_indexes_;
  std::vector<DistinctSketch> sketches_;  // One per column.
  std::map<TxnId, OpenTxn> open_txns_;
  // In-doubt transactions from the last Recover: their WAL data records,
  // awaiting the coordinator's decision.
  std::map<TxnId, std::vector<std::string>> undecided_records_;
  std::vector<TxnId> undecided_order_;
  ExecStats last_exec_stats_;
  uint64_t wal_records_ = 0;
  uint64_t wal_markers_ = 0;
  uint64_t redo_applied_ = 0;
  pool::Disk::Ticket last_write_ = 0;
  // Markers waiting for the next write (FlushMarkers), the transactions
  // whose commit markers are among them, and those whose commit markers
  // rode on a submitted write since TakeSubmittedCommits.
  storage::StableWrite markers_;
  std::vector<TxnId> buffered_commits_;
  std::vector<TxnId> submitted_commits_;
};

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_OFM_H_
