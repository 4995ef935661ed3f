#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "exec/ofm.h"
#include "pool/disk.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"

namespace prisma::exec {
namespace {

using algebra::BinaryOp;
using algebra::Col;
using algebra::Expr;
using algebra::Lit;
using algebra::ScanPlan;
using algebra::SelectPlan;

Schema AcctSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"owner", DataType::kString},
                 {"balance", DataType::kInt64}});
}

Tuple Acct(int64_t id, const std::string& owner, int64_t balance) {
  return Tuple({Value::Int(id), Value::String(owner), Value::Int(balance)});
}

class OfmTest : public ::testing::Test {
 protected:
  OfmTest() { Reset(OfmType::kFull); }

  /// Crash after every write was acknowledged: the disk completes what is
  /// in flight, then a fresh OFM replaces the old one over the same store.
  void Reset(OfmType type) {
    sim_.Run();
    Ofm::Options opts;
    opts.type = type;
    opts.disk = &disk_;
    ofm_ = std::make_unique<Ofm>("acct#0", AcctSchema(), opts);
  }

  sim::Simulator sim_;
  storage::StableStore stable_;
  pool::Disk disk_{&sim_, &stable_, /*pe=*/0};
  std::unique_ptr<Ofm> ofm_;
};

TEST_F(OfmTest, AutoCommitInsertIsDurable) {
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(1, "ann", 100)).ok());
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(2, "bob", 200)).ok());
  EXPECT_EQ(ofm_->num_tuples(), 2u);
  EXPECT_EQ(ofm_->wal_records(), 2u);

  // Crash: rebuild a fresh OFM over the same stable store and recover.
  Reset(OfmType::kFull);
  EXPECT_EQ(ofm_->num_tuples(), 0u);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 2u);
}

TEST_F(OfmTest, WritesAreDurableOnlyOnceTheDiskLandsThem) {
  const TxnId txn = 4;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  EXPECT_EQ(ofm_->last_write(), 0u);  // Buffered until prepare.
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  // The prepare write is an I/O request: not yet on the disk.
  EXPECT_FALSE(ofm_->WritesDurable());
  EXPECT_EQ(stable_.stream_bytes("acct#0.wal"), 0u);
  sim_.Run();
  EXPECT_TRUE(ofm_->WritesDurable());
  EXPECT_EQ(stable_.ReadStream("acct#0.wal").size(), 2u);  // Redo + marker.
}

TEST_F(OfmTest, UnacknowledgedWritesAreLostOnCrash) {
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(1, "ann", 100)).ok());
  sim_.Run();
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(2, "bob", 200)).ok());
  disk_.Crash();  // The second record was still in flight.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
}

TEST_F(OfmTest, TransactionalCommitSurvivesCrash) {
  const TxnId txn = 42;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  ASSERT_TRUE(ofm_->Insert(txn, Acct(2, "bob", 200)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  ASSERT_TRUE(ofm_->Commit(txn).ok());
  // The commit marker waits for this OFM's next write; submit it alone.
  ofm_->FlushMarkers();

  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 2u);
}

TEST_F(OfmTest, CommitMarkerRidesOnTheNextWriteAndRecoveryReportsIt) {
  const TxnId txn = 43;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  ASSERT_TRUE(ofm_->Commit(txn).ok());
  sim_.Run();
  // Phase 2 wrote nothing: the WAL holds the redo record and the prepare.
  EXPECT_EQ(stable_.ReadStream("acct#0.wal").size(), 2u);
  EXPECT_TRUE(ofm_->TakeSubmittedCommits().empty());

  // The next write carries the marker ahead of its own record.
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(2, "bob", 200)).ok());
  EXPECT_EQ(ofm_->TakeSubmittedCommits(), std::vector<TxnId>{txn});
  sim_.Run();
  EXPECT_EQ(stable_.ReadStream("acct#0.wal").size(), 4u);

  // A successor replays the marker and reports it again, since the reply
  // that listed it may have died with its predecessor.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 2u);
  EXPECT_TRUE(ofm_->recovered_undecided().empty());
  EXPECT_EQ(ofm_->TakeSubmittedCommits(), std::vector<TxnId>{txn});
}

TEST_F(OfmTest, OnePhaseCommitIsOneWriteAndStaysLoggedAcrossACrash) {
  const TxnId txn = 9;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  // Commit without a prepare: redo record and commit marker as one write.
  ASSERT_TRUE(ofm_->Commit(txn).ok());
  EXPECT_EQ(ofm_->wal_records(), 2u);
  EXPECT_EQ(ofm_->wal_markers(), 1u);
  EXPECT_FALSE(ofm_->CommitLogged(txn));  // Not landed yet.
  sim_.Run();
  EXPECT_TRUE(ofm_->CommitLogged(txn));
  EXPECT_FALSE(ofm_->CommitLogged(txn + 1));

  // A successor knows the outcome from the WAL alone.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
  EXPECT_TRUE(ofm_->CommitLogged(txn));
  EXPECT_TRUE(ofm_->recovered_undecided().empty());
}

TEST_F(OfmTest, DecidedTransactionStaysOutsideTheResyncBoundaryUntilMarked) {
  // A commit answered at its decision: prepared here, its commit marker
  // not yet delivered. Resync must treat it exactly like a transaction
  // still preparing: not in the snapshot, and the WAL cursor stops before
  // its records until the marker lands.
  auto ann = ofm_->Insert(kAutoCommit, Acct(1, "ann", 100));
  ASSERT_TRUE(ann.ok());
  const TxnId txn = 5;
  ASSERT_TRUE(ofm_->Update(txn, *ann, Acct(1, "ann", 150)).ok());
  ASSERT_TRUE(ofm_->Insert(txn, Acct(2, "bob", 200)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  sim_.Run();

  const std::vector<std::pair<storage::RowId, Tuple>> rows =
      ofm_->CommittedRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].second.at(2).int_value(), 100);  // The pre-image.
  size_t cursor = 0;
  auto records = ofm_->CommittedWalSince(&cursor);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);  // The autocommit insert only.
  EXPECT_EQ(cursor, 1u);           // Stopped at the decided transaction.

  ASSERT_TRUE(ofm_->Commit(txn).ok());
  ofm_->FlushMarkers();  // As a resync source does before reading.
  sim_.Run();
  records = ofm_->CommittedWalSince(&cursor);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // Its update and insert, once marked.
  EXPECT_EQ(ofm_->CommittedRows().size(), 2u);
}

TEST_F(OfmTest, PreparedButUncommittedRollsBackOnRecovery) {
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(1, "ann", 100)).ok());
  const TxnId txn = 7;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(2, "bob", 200)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  // Crash before the coordinator's commit arrives: presumed abort.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
}

TEST_F(OfmTest, InDoubtTransactionAwaitsCoordinatorDecision) {
  const TxnId txn = 8;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());

  // Crash after prepare: the transaction is in doubt, its effects held.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 0u);
  ASSERT_EQ(ofm_->recovered_undecided().size(), 1u);
  EXPECT_EQ(ofm_->recovered_undecided()[0], txn);

  // Coordinator says commit: effects apply and become durable.
  ASSERT_TRUE(ofm_->ResolveRecovered(txn, /*commit=*/true).ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
  EXPECT_TRUE(ofm_->recovered_undecided().empty());
  ofm_->FlushMarkers();  // The marker waits for the next write.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
  EXPECT_TRUE(ofm_->recovered_undecided().empty());

  // Unknown transactions cannot be resolved.
  EXPECT_EQ(ofm_->ResolveRecovered(999, true).code(), StatusCode::kNotFound);
}

TEST_F(OfmTest, InDoubtTransactionResolvedAbortLeavesNoTrace) {
  const TxnId txn = 12;
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(1, "base", 1)).ok());
  ASSERT_TRUE(ofm_->Insert(txn, Acct(2, "doubt", 2)).ok());
  ASSERT_TRUE(ofm_->Prepare(txn).ok());
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  ASSERT_EQ(ofm_->recovered_undecided().size(), 1u);
  ASSERT_TRUE(ofm_->ResolveRecovered(txn, /*commit=*/false).ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
  ofm_->FlushMarkers();  // The marker waits for the next write.
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
  EXPECT_TRUE(ofm_->recovered_undecided().empty());
}

TEST_F(OfmTest, AbortUndoesAllOperationKinds) {
  const auto r1 = ofm_->Insert(kAutoCommit, Acct(1, "ann", 100));
  const auto r2 = ofm_->Insert(kAutoCommit, Acct(2, "bob", 200));
  ASSERT_TRUE(r1.ok() && r2.ok());

  const TxnId txn = 9;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(3, "carol", 300)).ok());
  ASSERT_TRUE(ofm_->Delete(txn, *r1).ok());
  ASSERT_TRUE(ofm_->Update(txn, *r2, Acct(2, "bob", 999)).ok());
  EXPECT_EQ(ofm_->num_tuples(), 2u);
  EXPECT_TRUE(ofm_->HasTransaction(txn));

  ASSERT_TRUE(ofm_->Abort(txn).ok());
  EXPECT_FALSE(ofm_->HasTransaction(txn));
  EXPECT_EQ(ofm_->num_tuples(), 2u);
  EXPECT_EQ(ofm_->relation().Get(*r1)->at(1), Value::String("ann"));
  EXPECT_EQ(ofm_->relation().Get(*r2)->at(2), Value::Int(200));
}

TEST_F(OfmTest, AbortedTransactionLeavesNoDurableTrace) {
  const TxnId txn = 5;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(1, "ann", 100)).ok());
  ASSERT_TRUE(ofm_->Abort(txn).ok());
  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 0u);
}

TEST_F(OfmTest, CheckpointTruncatesWalAndRecovers) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "user", 100 * i)).ok());
  }
  ASSERT_TRUE(ofm_->Delete(kAutoCommit, 3).ok());
  sim_.Run();
  ASSERT_TRUE(ofm_->Checkpoint().ok());
  // The truncation lands with the snapshot, not before.
  EXPECT_GT(stable_.stream_bytes("acct#0.wal"), 0u);
  sim_.Run();
  EXPECT_EQ(stable_.stream_bytes("acct#0.wal"), 0u);

  // Post-checkpoint activity lands in the (new) WAL; RowIds keep working.
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(100, "late", 1)).ok());
  ASSERT_TRUE(ofm_->Update(kAutoCommit, 5, Acct(5, "user", 42)).ok());

  Reset(OfmType::kFull);
  ASSERT_TRUE(ofm_->Recover().ok());
  EXPECT_EQ(ofm_->num_tuples(), 10u);  // 10 - 1 deleted + 1 late.
  EXPECT_EQ(ofm_->relation().Get(5)->at(2), Value::Int(42));
  EXPECT_FALSE(ofm_->relation().IsLive(3));
}

TEST_F(OfmTest, CheckpointRefusesOpenTransactions) {
  ASSERT_TRUE(ofm_->Insert(77, Acct(1, "x", 1)).ok());
  EXPECT_EQ(ofm_->Checkpoint().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(ofm_->Commit(77).ok());
  EXPECT_TRUE(ofm_->Checkpoint().ok());
}

TEST_F(OfmTest, QueryOnlyOfmSkipsDurability) {
  Reset(OfmType::kQueryOnly);
  ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(1, "tmp", 1)).ok());
  EXPECT_EQ(ofm_->wal_records(), 0u);
  EXPECT_EQ(stable_.total_bytes(), 0u);
  EXPECT_EQ(ofm_->Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ofm_->Recover().code(), StatusCode::kFailedPrecondition);
  // But transactional undo still works (it is memory-only machinery).
  const TxnId txn = 3;
  ASSERT_TRUE(ofm_->Insert(txn, Acct(2, "tmp2", 2)).ok());
  ASSERT_TRUE(ofm_->Abort(txn).ok());
  EXPECT_EQ(ofm_->num_tuples(), 1u);
}

TEST_F(OfmTest, FullOfmWritesMoreWalThanQueryOnly) {
  // The E7 claim in miniature: durability costs WAL records.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", i)).ok());
  }
  const uint64_t full_wal = ofm_->wal_records();
  Reset(OfmType::kQueryOnly);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", i)).ok());
  }
  EXPECT_EQ(ofm_->wal_records(), 0u);
  EXPECT_EQ(full_wal, 20u);
}

TEST_F(OfmTest, DeleteWhereAndUpdateWhere) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", 100 * i)).ok());
  }
  auto pred = Expr::Binary(BinaryOp::kLt, Col("balance"), Lit(int64_t{300}));
  ASSERT_TRUE(pred->Bind(AcctSchema()).ok());
  auto deleted = ofm_->DeleteWhere(kAutoCommit, pred.get());
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 3u);
  EXPECT_EQ(ofm_->num_tuples(), 7u);

  // UPDATE acct SET balance = balance + 1 WHERE id >= 8.
  auto where = Expr::Binary(BinaryOp::kGe, Col("id"), Lit(int64_t{8}));
  ASSERT_TRUE(where->Bind(AcctSchema()).ok());
  auto add = Expr::Binary(BinaryOp::kAdd, Col("balance"), Lit(int64_t{1}));
  ASSERT_TRUE(add->Bind(AcctSchema()).ok());
  auto updated = ofm_->UpdateWhere(kAutoCommit, where.get(), {{2, add.get()}});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 2u);
  EXPECT_EQ(ofm_->relation().Get(8)->at(2), Value::Int(801));
}

TEST_F(OfmTest, ExecutePlanOverFragment) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", 100 * i)).ok());
  }
  auto scan = ScanPlan::Create("acct#0", AcctSchema());
  auto plan = SelectPlan::Create(
      std::move(scan),
      Expr::Binary(BinaryOp::kGe, Col("balance"), Lit(int64_t{700})));
  ASSERT_TRUE(plan.ok());
  auto out = ofm_->ExecutePlan(**plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
  EXPECT_GT(ofm_->last_exec_stats().charged_ns, 0);
}

TEST_F(OfmTest, IndexesMaintainedAcrossWritesAndRecovery) {
  ASSERT_TRUE(ofm_->CreateHashIndex("by_owner", {1}).ok());
  ASSERT_TRUE(ofm_->CreateBTreeIndex("by_balance", {2}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        ofm_->Insert(kAutoCommit, Acct(i, i % 2 ? "odd" : "even", 10 * i))
            .ok());
  }
  const auto* hash = ofm_->FindHashIndex({1});
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->Probe(Tuple({Value::String("odd")})).size(), 5u);

  ASSERT_TRUE(ofm_->Delete(kAutoCommit, 1).ok());
  EXPECT_EQ(hash->Probe(Tuple({Value::String("odd")})).size(), 4u);

  const auto* btree = ofm_->FindBTreeIndex({2});
  ASSERT_NE(btree, nullptr);
  size_t in_range = 0;
  btree->ScanRange(Tuple({Value::Int(20)}), true, Tuple({Value::Int(60)}),
                   true, [&](const Tuple&, storage::RowId) {
                     ++in_range;
                     return true;
                   });
  EXPECT_EQ(in_range, 5u);  // 20,30,40,50,60.
  EXPECT_EQ(ofm_->FindHashIndex({0}), nullptr);
}

TEST_F(OfmTest, ExecutePlanUsesLocalIndexes) {
  ASSERT_TRUE(ofm_->CreateHashIndex("by_id", {0}).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", i)).ok());
  }
  auto scan = ScanPlan::Create("acct#0", AcctSchema());
  auto plan = SelectPlan::Create(
      std::move(scan),
      Expr::Binary(BinaryOp::kEq, Col("id"), Lit(int64_t{123})));
  ASSERT_TRUE(plan.ok());
  auto out = ofm_->ExecutePlan(**plan);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  // The OFM's local optimizer answered through the index, not a scan.
  EXPECT_EQ(ofm_->last_exec_stats().index_selections, 1u);
  EXPECT_EQ(ofm_->last_exec_stats().tuples_scanned, 0u);
  // Index selection charges far less virtual CPU than a 200-row scan.
  const sim::SimTime indexed_ns = ofm_->last_exec_stats().charged_ns;
  Ofm::Options no_index_opts;
  no_index_opts.type = OfmType::kQueryOnly;
  Ofm plain("acct#0", AcctSchema(), no_index_opts);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(plain.Insert(kAutoCommit, Acct(i, "u", i)).ok());
  }
  auto scan2 = ScanPlan::Create("acct#0", AcctSchema());
  auto plan2 = SelectPlan::Create(
      std::move(scan2),
      Expr::Binary(BinaryOp::kEq, Col("id"), Lit(int64_t{123})));
  ASSERT_TRUE(plan2.ok());
  ASSERT_TRUE(plain.ExecutePlan(**plan2).ok());
  EXPECT_LT(indexed_ns, plain.last_exec_stats().charged_ns);
}

TEST_F(OfmTest, CursorWithMarkings) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ofm_->Insert(kAutoCommit, Acct(i, "u", i)).ok());
  }
  auto cursor = ofm_->OpenCursor();
  EXPECT_EQ(cursor.Next()->at(0), Value::Int(0));
  EXPECT_EQ(cursor.Next()->at(0), Value::Int(1));
  cursor.Mark();
  EXPECT_EQ(cursor.Next()->at(0), Value::Int(2));
  EXPECT_EQ(cursor.Next()->at(0), Value::Int(3));
  cursor.ResetToMark();
  EXPECT_EQ(cursor.Next()->at(0), Value::Int(2));
  while (cursor.Next().has_value()) {
  }
  EXPECT_FALSE(cursor.Next().has_value());
}

}  // namespace
}  // namespace prisma::exec
