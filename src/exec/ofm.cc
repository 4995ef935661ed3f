#include "exec/ofm.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "common/str_util.h"
#include "exec/access_path.h"
#include "exec/expr_eval.h"

namespace prisma::exec {
namespace {

// WAL record opcodes.
constexpr uint8_t kWalInsert = 1;
constexpr uint8_t kWalDelete = 2;
constexpr uint8_t kWalUpdate = 3;
constexpr uint8_t kWalCommit = 4;
constexpr uint8_t kWalAbort = 5;
constexpr uint8_t kWalPrepare = 6;

std::string EncodeDataRecord(uint8_t op, TxnId txn, storage::RowId row,
                             const Tuple* tuple) {
  BinaryWriter w;
  w.PutU8(op);
  w.PutI64(txn);
  w.PutU64(row);
  if (tuple != nullptr) w.PutTuple(*tuple);
  return w.Take();
}

std::string EncodeMarker(uint8_t op, TxnId txn) {
  BinaryWriter w;
  w.PutU8(op);
  w.PutI64(txn);
  return w.Take();
}

/// Resolver handed to the OFM's executor: the single resident fragment
/// plus its secondary indexes, enabling local access-path selection.
class OfmResolver : public TableResolver {
 public:
  OfmResolver(const std::string& fragment, const storage::Relation* relation,
              const std::vector<std::unique_ptr<storage::HashIndex>>* hash,
              const std::vector<std::unique_ptr<storage::BTreeIndex>>* btree,
              const TableResolver* colocated)
      : fragment_(fragment),
        relation_(relation),
        hash_(hash),
        btree_(btree),
        colocated_(colocated) {}

  StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const override {
    if (table == fragment_) return relation_;
    if (colocated_ != nullptr) return colocated_->Resolve(table);
    return NotFoundError("OFM " + fragment_ + " cannot resolve " + table);
  }
  const storage::HashIndex* FindHashIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override {
    if (table != fragment_) {
      return colocated_ == nullptr ? nullptr
                                   : colocated_->FindHashIndex(table, columns);
    }
    for (const auto& index : *hash_) {
      if (index->key_columns() == columns) return index.get();
    }
    return nullptr;
  }
  const storage::BTreeIndex* FindBTreeIndex(
      const std::string& table,
      const std::vector<size_t>& columns) const override {
    if (table != fragment_) {
      return colocated_ == nullptr
                 ? nullptr
                 : colocated_->FindBTreeIndex(table, columns);
    }
    for (const auto& index : *btree_) {
      if (index->key_columns() == columns) return index.get();
    }
    return nullptr;
  }

 private:
  const std::string& fragment_;
  const storage::Relation* relation_;
  const std::vector<std::unique_ptr<storage::HashIndex>>* hash_;
  const std::vector<std::unique_ptr<storage::BTreeIndex>>* btree_;
  const TableResolver* colocated_;
};

}  // namespace

Ofm::Ofm(std::string fragment_name, Schema schema, Options options)
    : fragment_name_(std::move(fragment_name)),
      options_(std::move(options)),
      relation_(fragment_name_, std::move(schema), options_.memory),
      sketches_(relation_.schema().num_columns()) {
  PRISMA_CHECK(options_.type == OfmType::kQueryOnly ||
               options_.disk != nullptr)
      << "full OFM " << fragment_name_ << " requires a disk";
}

void Ofm::SubmitToDisk(storage::StableWrite write) {
  storage::StableWrite carrier = std::exchange(markers_, {});
  submitted_commits_.insert(submitted_commits_.end(), buffered_commits_.begin(),
                            buffered_commits_.end());
  buffered_commits_.clear();
  last_write_ = options_.disk->Submit(options_.disk_owner,
                                      std::move(carrier.Then(std::move(write))));
}

void Ofm::FlushMarkers() {
  if (!markers_.empty()) SubmitToDisk(storage::StableWrite());
}

void Ofm::ChargeCpu(sim::SimTime ns) {
  if (options_.exec.charge) options_.exec.charge(ns);
}

// ------------------------------------------------------------------ Indexes

Status Ofm::CreateHashIndex(const std::string& index_name,
                            std::vector<size_t> key_columns) {
  for (size_t c : key_columns) {
    if (c >= schema().num_columns()) {
      return InvalidArgumentError("index column out of range");
    }
  }
  // A second name for an existing structure is not a second structure.
  if (FindHashIndex(key_columns) != nullptr) return Status::OK();
  auto idx = std::make_unique<storage::HashIndex>(index_name,
                                                  std::move(key_columns));
  idx->Rebuild(relation_);
  ChargeCpu(static_cast<sim::SimTime>(relation_.num_tuples()) *
            options_.exec.costs.hash_ns);
  hash_indexes_.push_back(std::move(idx));
  return Status::OK();
}

Status Ofm::CreateBTreeIndex(const std::string& index_name,
                             std::vector<size_t> key_columns) {
  for (size_t c : key_columns) {
    if (c >= schema().num_columns()) {
      return InvalidArgumentError("index column out of range");
    }
  }
  if (FindBTreeIndex(key_columns) != nullptr) return Status::OK();
  auto idx = std::make_unique<storage::BTreeIndex>(index_name,
                                                   std::move(key_columns));
  idx->Rebuild(relation_);
  ChargeCpu(static_cast<sim::SimTime>(relation_.num_tuples()) *
            options_.exec.costs.compare_ns * 4);
  btree_indexes_.push_back(std::move(idx));
  return Status::OK();
}

const storage::HashIndex* Ofm::FindHashIndex(
    const std::vector<size_t>& key_columns) const {
  for (const auto& idx : hash_indexes_) {
    if (idx->key_columns() == key_columns) return idx.get();
  }
  return nullptr;
}

const storage::BTreeIndex* Ofm::FindBTreeIndex(
    const std::vector<size_t>& key_columns) const {
  for (const auto& idx : btree_indexes_) {
    if (idx->key_columns() == key_columns) return idx.get();
  }
  return nullptr;
}

void Ofm::IndexInsert(storage::RowId row, const Tuple& tuple) {
  for (const auto& idx : hash_indexes_) idx->OnInsert(row, tuple);
  for (const auto& idx : btree_indexes_) idx->OnInsert(row, tuple);
  ChargeCpu(static_cast<sim::SimTime>(hash_indexes_.size() +
                                      btree_indexes_.size()) *
            options_.exec.costs.hash_ns);
}

void Ofm::IndexDelete(storage::RowId row, const Tuple& tuple) {
  for (const auto& idx : hash_indexes_) idx->OnDelete(row, tuple);
  for (const auto& idx : btree_indexes_) idx->OnDelete(row, tuple);
  ChargeCpu(static_cast<sim::SimTime>(hash_indexes_.size() +
                                      btree_indexes_.size()) *
            options_.exec.costs.hash_ns);
}

void Ofm::SketchAdd(const Tuple& tuple) {
  for (size_t c = 0; c < sketches_.size(); ++c) sketches_[c].Add(tuple.at(c));
}

void Ofm::RebuildAccessStructures() {
  for (const auto& idx : hash_indexes_) idx->Rebuild(relation_);
  for (const auto& idx : btree_indexes_) idx->Rebuild(relation_);
  for (DistinctSketch& sketch : sketches_) sketch.Clear();
  relation_.Scan([this](storage::RowId, const Tuple& tuple) {
    SketchAdd(tuple);
    return true;
  });
}

std::vector<uint64_t> Ofm::DistinctEstimates() const {
  std::vector<uint64_t> out;
  out.reserve(sketches_.size());
  for (const DistinctSketch& sketch : sketches_) {
    out.push_back(sketch.Estimate());
  }
  return out;
}

// --------------------------------------------------------------- Write path

Status Ofm::LogRedo(TxnId txn, std::string record) {
  if (options_.type == OfmType::kQueryOnly) return Status::OK();
  if (txn == kAutoCommit) {
    ++wal_records_;
    SubmitToDisk(
        storage::StableWrite().Append(WalStream(), std::move(record)));
    return Status::OK();
  }
  open_txns_[txn].pending_redo.push_back(std::move(record));
  return Status::OK();
}

void Ofm::LogMarker(TxnId txn, uint8_t op) {
  if (options_.type == OfmType::kQueryOnly) {
    // Nothing is logged, so a commit has nothing to wait for.
    if (op == kWalCommit) submitted_commits_.push_back(txn);
    return;
  }
  ++wal_records_;
  ++wal_markers_;
  markers_.Append(WalStream(), EncodeMarker(op, txn));
  if (op == kWalCommit) buffered_commits_.push_back(txn);
}

StatusOr<storage::RowId> Ofm::Insert(TxnId txn, Tuple tuple) {
  ASSIGN_OR_RETURN(storage::RowId row, relation_.Insert(std::move(tuple)));
  ChargeCpu(options_.exec.costs.tuple_ns);
  // Validated/coerced tuple re-read for the log and the indexes.
  ASSIGN_OR_RETURN(Tuple stored, relation_.Get(row));
  IndexInsert(row, stored);
  SketchAdd(stored);
  if (txn != kAutoCommit) {
    open_txns_[txn].undo.push_back(
        UndoRecord{UndoRecord::Op::kInsert, row, Tuple()});
  }
  RETURN_IF_ERROR(LogRedo(txn, EncodeDataRecord(kWalInsert, txn, row, &stored)));
  return row;
}

Status Ofm::Delete(TxnId txn, storage::RowId row) {
  ASSIGN_OR_RETURN(Tuple before, relation_.Get(row));
  RETURN_IF_ERROR(relation_.Delete(row));
  ChargeCpu(options_.exec.costs.tuple_ns);
  IndexDelete(row, before);
  if (txn != kAutoCommit) {
    open_txns_[txn].undo.push_back(
        UndoRecord{UndoRecord::Op::kDelete, row, before});
  }
  return LogRedo(txn, EncodeDataRecord(kWalDelete, txn, row, nullptr));
}

Status Ofm::Update(TxnId txn, storage::RowId row, Tuple tuple) {
  ASSIGN_OR_RETURN(Tuple before, relation_.Get(row));
  RETURN_IF_ERROR(relation_.Update(row, std::move(tuple)));
  ChargeCpu(options_.exec.costs.tuple_ns);
  ASSIGN_OR_RETURN(Tuple after, relation_.Get(row));
  IndexDelete(row, before);
  IndexInsert(row, after);
  SketchAdd(after);
  if (txn != kAutoCommit) {
    open_txns_[txn].undo.push_back(
        UndoRecord{UndoRecord::Op::kUpdate, row, before});
  }
  return LogRedo(txn, EncodeDataRecord(kWalUpdate, txn, row, &after));
}

StatusOr<std::vector<storage::RowId>> Ofm::MatchingRows(
    const algebra::Expr* predicate) {
  std::vector<storage::RowId> rows;
  std::optional<IndexCandidates> path;
  if (predicate != nullptr) {
    OfmResolver resolver(fragment_name_, &relation_, &hash_indexes_,
                         &btree_indexes_, nullptr);
    path = ChooseIndexPath(*predicate, resolver, fragment_name_,
                           options_.exec.costs);
  }
  if (path.has_value()) {
    // Candidates are re-checked against the full predicate, evaluated by
    // the tree walk.
    for (const storage::RowId row : path->rows) {
      ASSIGN_OR_RETURN(Tuple tuple, relation_.Get(row));
      ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate, tuple));
      if (keep) rows.push_back(row);
    }
    ChargeCpu(path->walk_ns +
              static_cast<sim::SimTime>(path->rows.size()) *
                  (options_.exec.costs.hash_ns +
                   static_cast<sim::SimTime>(predicate->TreeSize()) *
                       options_.exec.costs.interpreted_node_ns));
    return rows;
  }
  Status eval_status;
  relation_.Scan([&](storage::RowId row, const Tuple& tuple) {
    if (predicate != nullptr) {
      auto keep = EvalPredicate(*predicate, tuple);
      if (!keep.ok()) {
        eval_status = keep.status();
        return false;
      }
      if (!*keep) return true;
    }
    rows.push_back(row);
    return true;
  });
  RETURN_IF_ERROR(eval_status);
  ChargeCpu(static_cast<sim::SimTime>(relation_.num_tuples()) *
            options_.exec.costs.tuple_ns);
  return rows;
}

StatusOr<size_t> Ofm::DeleteWhere(TxnId txn, const algebra::Expr* predicate) {
  ASSIGN_OR_RETURN(std::vector<storage::RowId> victims,
                   MatchingRows(predicate));
  for (const storage::RowId row : victims) {
    RETURN_IF_ERROR(Delete(txn, row));
  }
  return victims.size();
}

StatusOr<size_t> Ofm::UpdateWhere(
    TxnId txn, const algebra::Expr* predicate,
    const std::vector<std::pair<size_t, const algebra::Expr*>>& assignments) {
  for (const auto& [col, expr] : assignments) {
    if (col >= schema().num_columns()) {
      return InvalidArgumentError("assignment column out of range");
    }
    if (expr == nullptr) return InvalidArgumentError("null assignment");
  }
  ASSIGN_OR_RETURN(std::vector<storage::RowId> rows, MatchingRows(predicate));
  // Every new value is computed before any is applied: the right-hand
  // sides see the *old* tuples, and a failing one applies nothing.
  std::vector<Tuple> updates;
  updates.reserve(rows.size());
  for (const storage::RowId row : rows) {
    ASSIGN_OR_RETURN(const Tuple old, relation_.Get(row));
    Tuple updated = old;
    for (const auto& [col, expr] : assignments) {
      ASSIGN_OR_RETURN(updated.at(col), EvalExpr(*expr, old));
    }
    updates.push_back(std::move(updated));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    RETURN_IF_ERROR(Update(txn, rows[i], std::move(updates[i])));
  }
  return rows.size();
}

// ------------------------------------------------------- Transaction control

void Ofm::FlushRedo(OpenTxn& open, std::string marker) {
  storage::StableWrite write;
  for (std::string& record : open.pending_redo) {
    write.Append(WalStream(), std::move(record));
  }
  open.pending_redo.clear();
  write.Append(WalStream(), std::move(marker));
  wal_records_ += write.records();
  ++wal_markers_;
  SubmitToDisk(std::move(write));
}

bool Ofm::HasTransaction(TxnId txn) const {
  return open_txns_.contains(txn);
}

bool Ofm::CommitLogged(TxnId txn) {
  if (options_.type == OfmType::kQueryOnly) return false;
  const storage::StableStore& stable = options_.disk->store();
  ChargeCpu(stable.StreamReadNs(WalStream()));
  const std::string marker = EncodeMarker(kWalCommit, txn);
  for (const std::string& record : stable.ReadStream(WalStream())) {
    if (record == marker) return true;
  }
  return false;
}

Status Ofm::Prepare(TxnId txn) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) {
    // A transaction that never touched this fragment can trivially commit.
    return Status::OK();
  }
  if (options_.type == OfmType::kFull) {
    // All redo records and the prepare marker travel as one write.
    FlushRedo(it->second, EncodeMarker(kWalPrepare, txn));
  }
  it->second.prepared = true;
  return Status::OK();
}

Status Ofm::Commit(TxnId txn) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::OK();
  if (it->second.prepared) {
    LogMarker(txn, kWalCommit);
  } else if (options_.type == OfmType::kFull) {
    FlushRedo(it->second, EncodeMarker(kWalCommit, txn));
  }
  open_txns_.erase(it);
  return Status::OK();
}

Status Ofm::Abort(TxnId txn) {
  auto it = open_txns_.find(txn);
  if (it == open_txns_.end()) return Status::OK();
  // Undo in reverse order.
  auto& undo = it->second.undo;
  for (auto rit = undo.rbegin(); rit != undo.rend(); ++rit) {
    switch (rit->op) {
      case UndoRecord::Op::kInsert: {
        ASSIGN_OR_RETURN(Tuple current, relation_.Get(rit->row));
        RETURN_IF_ERROR(relation_.Delete(rit->row));
        IndexDelete(rit->row, current);
        break;
      }
      case UndoRecord::Op::kDelete: {
        // Tombstoned slots are never reused, so the row can be restored
        // in place.
        RETURN_IF_ERROR(relation_.RestoreRow(rit->row, rit->before));
        IndexInsert(rit->row, rit->before);
        break;
      }
      case UndoRecord::Op::kUpdate: {
        ASSIGN_OR_RETURN(Tuple current, relation_.Get(rit->row));
        RETURN_IF_ERROR(relation_.Update(rit->row, rit->before));
        IndexDelete(rit->row, current);
        IndexInsert(rit->row, rit->before);
        break;
      }
    }
  }
  if (options_.type == OfmType::kFull && it->second.prepared) {
    LogMarker(txn, kWalAbort);
  }
  open_txns_.erase(txn);
  return Status::OK();
}

// ------------------------------------------------------------------ Querying


StatusOr<std::vector<Tuple>> Ofm::ExecutePlan(const algebra::Plan& plan,
                                              const TableResolver* colocated,
                                              obs::OperatorProfile* profile) {
  OfmResolver resolver(fragment_name_, &relation_, &hash_indexes_,
                       &btree_indexes_, colocated);
  ExecOptions exec_options = options_.exec;
  exec_options.profile = profile != nullptr;
  Executor executor(&resolver, exec_options);
  auto result = executor.Execute(plan);
  last_exec_stats_ = executor.stats();
  if (profile != nullptr && executor.profile().has_value()) {
    *profile = *executor.profile();
  }
  return result;
}

std::optional<Tuple> Ofm::Cursor::Next() {
  while (position_ < relation_->num_slots()) {
    const storage::RowId row = position_++;
    if (relation_->IsLive(row)) {
      auto t = relation_->Get(row);
      if (t.ok()) return std::move(t).value();
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------------------ Recovery

Status Ofm::Checkpoint() {
  if (options_.type == OfmType::kQueryOnly) {
    return FailedPreconditionError("query-only OFM has no stable storage");
  }
  if (!open_txns_.empty()) {
    return FailedPreconditionError(
        "cannot checkpoint with open transactions on " + fragment_name_);
  }
  // The snapshot preserves the whole slot array (tombstones included) so
  // RowIds in the WAL suffix stay valid.
  BinaryWriter w;
  w.PutSchema(relation_.schema());
  w.PutU64(relation_.num_slots());
  relation_.ScanSlots([&w](storage::RowId, const Tuple* t) {
    if (t != nullptr) {
      w.PutU8(1);
      w.PutTuple(*t);
    } else {
      w.PutU8(0);
    }
  });
  SubmitToDisk(storage::StableWrite()
                   .Snapshot(SnapshotName(), w.Take())
                   .Truncate(WalStream()));
  return Status::OK();
}

Status Ofm::ApplyWalData(uint8_t op, BinaryReader* r) {
  ++redo_applied_;
  switch (op) {
    case kWalInsert: {
      ASSIGN_OR_RETURN(uint64_t row, r->GetU64());
      ASSIGN_OR_RETURN(Tuple t, r->GetTuple());
      // Replay must reproduce the original RowId space.
      while (relation_.num_slots() < row) {
        RETURN_IF_ERROR(relation_.RestoreSlot(std::nullopt));
      }
      if (relation_.num_slots() == row) {
        ASSIGN_OR_RETURN(storage::RowId got, relation_.Insert(std::move(t)));
        if (got != row) {
          return InternalError("WAL replay row id mismatch");
        }
      } else {
        RETURN_IF_ERROR(relation_.RestoreRow(row, std::move(t)));
      }
      return Status::OK();
    }
    case kWalDelete: {
      ASSIGN_OR_RETURN(uint64_t row, r->GetU64());
      return relation_.Delete(row);
    }
    case kWalUpdate: {
      ASSIGN_OR_RETURN(uint64_t row, r->GetU64());
      ASSIGN_OR_RETURN(Tuple t, r->GetTuple());
      return relation_.Update(row, std::move(t));
    }
    default:
      return InternalError("unexpected WAL record opcode " +
                           std::to_string(op));
  }
}

Status Ofm::ResolveRecovered(TxnId txn, bool commit) {
  auto it = undecided_records_.find(txn);
  if (it == undecided_records_.end()) {
    return NotFoundError("transaction " + std::to_string(txn) +
                         " is not in doubt");
  }
  if (commit) {
    for (const std::string& record : it->second) {
      BinaryReader r(record);
      ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
      ASSIGN_OR_RETURN(TxnId rec_txn, r.GetI64());
      PRISMA_CHECK(rec_txn == txn);
      RETURN_IF_ERROR(ApplyWalData(op, &r));
    }
    RebuildAccessStructures();
  }
  LogMarker(txn, commit ? kWalCommit : kWalAbort);
  undecided_records_.erase(it);
  undecided_order_.erase(
      std::find(undecided_order_.begin(), undecided_order_.end(), txn));
  return Status::OK();
}

// --------------------------------------------------------- Replica resync

StatusOr<std::vector<std::string>> Ofm::CommittedWalSince(size_t* cursor) {
  if (options_.type == OfmType::kQueryOnly) {
    return FailedPreconditionError("query-only OFM has no WAL");
  }
  // Only landed records are visible; records still in flight are picked
  // up by a later round.
  const storage::StableStore& stable = options_.disk->store();
  const auto& wal = stable.ReadStream(WalStream());
  ChargeCpu(stable.StreamReadNs(WalStream()));
  // Outcomes are scanned over the whole stream: a record flushed at
  // prepare position p is decided by a marker at some position > p.
  std::set<TxnId> committed;
  std::set<TxnId> aborted;
  committed.insert(kAutoCommit);
  for (const std::string& record : wal) {
    BinaryReader r(record);
    ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    ASSIGN_OR_RETURN(TxnId txn, r.GetI64());
    if (op == kWalCommit) committed.insert(txn);
    if (op == kWalAbort) aborted.insert(txn);
  }
  std::vector<std::string> out;
  size_t i = *cursor;
  for (; i < wal.size(); ++i) {
    BinaryReader r(wal[i]);
    ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    ASSIGN_OR_RETURN(TxnId txn, r.GetI64());
    if (op == kWalCommit || op == kWalAbort || op == kWalPrepare) continue;
    if (!committed.contains(txn) && !aborted.contains(txn)) break;
    if (committed.contains(txn)) out.push_back(wal[i]);
  }
  *cursor = i;
  return out;
}

std::vector<std::pair<storage::RowId, Tuple>> Ofm::CommittedRows() {
  // Undo overlay: walking the open transactions newest-first and each undo
  // log last-to-first, plain assignment leaves every touched slot at its
  // oldest before-image — the committed state. kInsert rows committed-away
  // to "did not exist" map to an empty slot.
  std::map<storage::RowId, std::optional<Tuple>> overlay;
  for (auto txn = open_txns_.rbegin(); txn != open_txns_.rend(); ++txn) {
    const std::vector<UndoRecord>& undo = txn->second.undo;
    for (auto u = undo.rbegin(); u != undo.rend(); ++u) {
      switch (u->op) {
        case UndoRecord::Op::kInsert:
          overlay[u->row] = std::nullopt;
          break;
        case UndoRecord::Op::kDelete:
        case UndoRecord::Op::kUpdate:
          overlay[u->row] = u->before;
          break;
      }
    }
  }
  std::vector<std::pair<storage::RowId, Tuple>> rows;
  relation_.ScanSlots([&](storage::RowId row, const Tuple* t) {
    auto it = overlay.find(row);
    if (it != overlay.end()) {
      if (it->second.has_value()) rows.push_back({row, *it->second});
      return;
    }
    if (t != nullptr) rows.push_back({row, *t});
  });
  ChargeCpu(static_cast<sim::SimTime>(rows.size()) *
            options_.exec.costs.tuple_ns);
  return rows;
}

void Ofm::ResyncReset() {
  relation_.Clear();
  for (DistinctSketch& sketch : sketches_) sketch.Clear();
  open_txns_.clear();
  undecided_records_.clear();
  undecided_order_.clear();
}

Status Ofm::ResyncRestoreRow(storage::RowId row, Tuple tuple) {
  if (relation_.num_slots() > row) {
    return InternalError("resync bulk rows arrived out of order on " +
                         fragment_name_);
  }
  while (relation_.num_slots() < row) {
    RETURN_IF_ERROR(relation_.RestoreSlot(std::nullopt));
  }
  RETURN_IF_ERROR(relation_.RestoreSlot(std::move(tuple)));
  ChargeCpu(options_.exec.costs.tuple_ns);
  return Status::OK();
}

Status Ofm::ResyncApplyRecord(const std::string& record) {
  BinaryReader r(record);
  ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
  ASSIGN_OR_RETURN(TxnId txn, r.GetI64());
  (void)txn;  // prisma-lint: unused-status - outcome was decided at the source.
  return ApplyWalData(op, &r);
}

Status Ofm::FinishResync(uint64_t source_slots) {
  if (relation_.num_slots() > source_slots) {
    return InternalError("resync target of " + fragment_name_ + " has " +
                         std::to_string(relation_.num_slots()) +
                         " slots, more than the source's " +
                         std::to_string(source_slots));
  }
  while (relation_.num_slots() < source_slots) {
    RETURN_IF_ERROR(relation_.RestoreSlot(std::nullopt));
  }
  RebuildAccessStructures();
  ChargeCpu(static_cast<sim::SimTime>(relation_.num_tuples()) *
            options_.exec.costs.hash_ns *
            static_cast<sim::SimTime>(hash_indexes_.size() +
                                      btree_indexes_.size()));
  return Checkpoint();
}

storage::StableWrite Ofm::EraseStaleState(const storage::StableStore& store,
                                          const std::string& fragment_name) {
  storage::StableWrite erase;
  if (store.stream_bytes(WalStream(fragment_name)) > 0) {
    erase.Truncate(WalStream(fragment_name));
  }
  if (store.ReadSnapshot(SnapshotName(fragment_name)).ok()) {
    erase.DropSnapshot(SnapshotName(fragment_name));
  }
  return erase;
}

Status Ofm::Recover() {
  if (options_.type == OfmType::kQueryOnly) {
    return FailedPreconditionError("query-only OFM cannot recover");
  }
  relation_.Clear();
  open_txns_.clear();

  // Reads at recovery stay synchronous, charged to the CPU: a recovering
  // process serves nothing until they finish, so there is no other work
  // for the device to overlap them with.
  const storage::StableStore& stable = options_.disk->store();
  // Load the checkpoint image, if any.
  auto snapshot = stable.ReadSnapshot(SnapshotName());
  if (snapshot.ok()) {
    ChargeCpu(stable.SnapshotReadNs(SnapshotName()));
    BinaryReader r(*snapshot);
    ASSIGN_OR_RETURN(Schema schema, r.GetSchema());
    if (!(schema == relation_.schema())) {
      return InternalError("checkpoint schema mismatch for " + fragment_name_);
    }
    ASSIGN_OR_RETURN(uint64_t slots, r.GetU64());
    for (uint64_t i = 0; i < slots; ++i) {
      ASSIGN_OR_RETURN(uint8_t live, r.GetU8());
      if (live != 0) {
        ASSIGN_OR_RETURN(Tuple t, r.GetTuple());
        RETURN_IF_ERROR(relation_.RestoreSlot(std::move(t)));
      } else {
        RETURN_IF_ERROR(relation_.RestoreSlot(std::nullopt));
      }
    }
  }

  // Scan the WAL once to classify transactions: committed work replays;
  // prepared-but-undecided work is withheld for the coordinator.
  const auto& wal = stable.ReadStream(WalStream());
  ChargeCpu(stable.StreamReadNs(WalStream()));
  std::set<TxnId> committed;
  std::set<TxnId> aborted;
  std::set<TxnId> prepared;
  committed.insert(kAutoCommit);
  for (const std::string& record : wal) {
    BinaryReader r(record);
    ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    ASSIGN_OR_RETURN(TxnId txn, r.GetI64());
    if (op == kWalCommit) committed.insert(txn);
    if (op == kWalAbort) aborted.insert(txn);
    if (op == kWalPrepare) prepared.insert(txn);
  }
  undecided_records_.clear();
  undecided_order_.clear();
  for (const TxnId txn : prepared) {
    if (committed.contains(txn)) {
      // Its marker is on disk, but the reply that would have said so may
      // have died with the predecessor: the next reply says it again.
      submitted_commits_.push_back(txn);
    } else if (!aborted.contains(txn)) {
      undecided_records_[txn] = {};
      undecided_order_.push_back(txn);
    }
  }

  // Replay committed work in order; buffer in-doubt records.
  for (const std::string& record : wal) {
    BinaryReader r(record);
    ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
    ASSIGN_OR_RETURN(TxnId txn, r.GetI64());
    if (op == kWalCommit || op == kWalAbort || op == kWalPrepare) continue;
    auto in_doubt = undecided_records_.find(txn);
    if (in_doubt != undecided_records_.end()) {
      in_doubt->second.push_back(record);
      continue;
    }
    if (!committed.contains(txn)) continue;
    RETURN_IF_ERROR(ApplyWalData(op, &r));
  }

  RebuildAccessStructures();
  ChargeCpu(static_cast<sim::SimTime>(relation_.num_tuples()) *
            options_.exec.costs.hash_ns *
            static_cast<sim::SimTime>(hash_indexes_.size() +
                                      btree_indexes_.size()));
  return Status::OK();
}

}  // namespace prisma::exec
