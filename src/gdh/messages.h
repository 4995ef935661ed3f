#ifndef PRISMA_GDH_MESSAGES_H_
#define PRISMA_GDH_MESSAGES_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algebra/expr.h"
#include "algebra/plan.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/ofm.h"
#include "obs/query_profile.h"
#include "pool/runtime.h"

namespace prisma::gdh {

// Mail kinds exchanged between the GDH, query coordinators, OFM processes
// and clients. Payloads (std::any) hold std::shared_ptr of the structs
// below; plans and expressions are shared by pointer inside the simulated
// machine while the modelled wire size reflects their serialized form.

inline constexpr char kMailClientStatement[] = "client_stmt";
inline constexpr char kMailClientReply[] = "client_reply";
inline constexpr char kMailExecPlan[] = "exec_plan";
inline constexpr char kMailExecPlanReply[] = "exec_plan_reply";
inline constexpr char kMailWrite[] = "write";
inline constexpr char kMailWriteReply[] = "write_reply";
inline constexpr char kMailTxnControl[] = "txn_control";
inline constexpr char kMailTxnControlReply[] = "txn_control_reply";
inline constexpr char kMailLockBatch[] = "lock_batch";
inline constexpr char kMailLockBatchReply[] = "lock_batch_reply";
inline constexpr char kMailStatementDone[] = "stmt_done";
inline constexpr char kMailCreateIndex[] = "create_index";
inline constexpr char kMailCheckpoint[] = "checkpoint";
inline constexpr char kMailDecisionRequest[] = "decision_request";
inline constexpr char kMailDecisionReply[] = "decision_reply";
inline constexpr char kMailQueryTimeout[] = "query_timeout";
// Self-mail timers of the hardened RPC layer: per-request retransmission
// (GDH and query coordinators), coordinator liveness supervision (GDH),
// stmt_done retransmission (coordinators) and decision-inquiry retry
// (recovering OFMs).
inline constexpr char kMailRpcTimeout[] = "rpc_timeout";
inline constexpr char kMailCoordCheck[] = "coord_check";
inline constexpr char kMailStmtDoneResend[] = "stmt_done_resend";
inline constexpr char kMailDecisionRetry[] = "decision_retry";
// Completion of a stable-storage write on the PE's disk (pool::Disk),
// delivered to the process that issued it; routed to
// pool::Process::RunDurable (GDH and OFMs).
inline constexpr char kMailDiskDone[] = "disk_done";
// Streaming exchange layer (DESIGN.md §10). A plan request whose output
// streams (kind shuffle_plan) turns an OFM into a batch *producer* for
// one side of an exchange; tuple batches flow producer -> consumer under
// credit-based flow control, acks flow back. The two trailing kinds are
// self-mail timers: per-shuffle batch retransmission (producers) and
// final-reply retransmission (consumers).
inline constexpr char kMailShufflePlan[] = "shuffle_plan";
inline constexpr char kMailTupleBatch[] = "tuple_batch";
inline constexpr char kMailBatchAck[] = "batch_ack";
inline constexpr char kMailBatchResend[] = "batch_resend";
inline constexpr char kMailExchangeReplyResend[] = "exchange_reply_resend";
// Distributed fixpoint (DESIGN.md §11). The coordinator starts one
// fixpoint PE process per edge fragment, then drives lock-step join
// rounds: round directives fan out, per-PE "delta empty" votes flow
// back, and a harvest directive collects the partitioned closure. Delta
// shuffles between fixpoint PEs reuse kMailTupleBatch/kMailBatchAck with
// round-scoped channel ids. The trailing kinds are self-mail timers:
// per-round-stream batch retransmission, vote retransmission, and the
// coordinator's control-plane rebroadcast (fault configurations only).
inline constexpr char kMailFixpointStart[] = "fixpoint_start";
inline constexpr char kMailFixpointRound[] = "fixpoint_round";
inline constexpr char kMailFixpointVote[] = "fixpoint_vote";
inline constexpr char kMailFixpointBatchResend[] = "fixpoint_batch_resend";
inline constexpr char kMailFixpointVoteResend[] = "fixpoint_vote_resend";
inline constexpr char kMailFixpointCtrlResend[] = "fixpoint_ctrl_resend";
// Replica resync (DESIGN.md §13). The GDH asks the surviving replica (the
// *source*) to refill a freshly spawned empty replica (the *target*): a
// snapshot bulk-copy streamed as kMailTupleBatch frames, then committed
// WAL-delta rounds (kMailResyncDelta / kMailResyncDeltaAck, stop-and-wait)
// until caught up; a second request under the GDH's cutover lock ships the
// final delta. The bulk copy retransmits on kMailBatchResend, like a
// shuffle: both leave through the source's one stream sender.
inline constexpr char kMailResync[] = "resync";
inline constexpr char kMailResyncReply[] = "resync_reply";
inline constexpr char kMailResyncDelta[] = "resync_delta";
inline constexpr char kMailResyncDeltaAck[] = "resync_delta_ack";

/// Serialized-size model: row sets count their frame's byte length, plans
/// a fixed budget per node, expressions per tree node.
constexpr int64_t kPlanNodeBits = 512;
constexpr int64_t kExprNodeBits = 128;
constexpr int64_t kControlBits = 256;
/// A fragment plan named by its PlanRef instead of shipped (§15.4).
constexpr int64_t kPlanIdBits = 64;

/// One fragment plan of a cached split (DESIGN.md §15.4): the plan-cache
/// entry's id, the part, and the input side (an exchange join ships one
/// plan per side). An OFM serves one fragment replica, so the ref names
/// the same renamed plan at every OFM it reaches. `entry` 0 names none.
struct PlanRef {
  uint64_t entry = 0;
  size_t part = 0;
  int side = 0;

  auto operator<=>(const PlanRef&) const = default;
};

/// Wire size of a fragment plan: its nodes, or its id when it is resident
/// at the receiving OFM (`plan` null).
int64_t PlanBits(const algebra::Plan* plan);

/// The values an exec_plan request carries for a cached split's fragment
/// plan (DESIGN.md §15.4): `statement`'s value of each literal `plan`
/// tags, in ordinal order. Empty when they all equal the plan's own.
std::vector<Value> PlanParams(const algebra::Plan& plan,
                              const std::vector<Value>& statement);
/// Wire size of PlanParams' values: 64 bits a number, plus 8 per byte a
/// string.
int64_t ParamBits(const std::vector<Value>& params);
/// A copy of `plan` running PlanParams' `params`.
std::unique_ptr<algebra::Plan> BindPlanParams(const algebra::Plan& plan,
                                              const std::vector<Value>& params);

/// A row set on the wire: one serialized ColumnBatch
/// (DESIGN.md §12.2) whose actual byte length is its modelled size. Null
/// means the message carries no rows.
using RowFrame = std::shared_ptr<const std::string>;

RowFrame EncodeRows(std::span<const Tuple> rows);
int64_t FrameBits(const RowFrame& frame);  // 0 for none.

/// The one decoder every receiver of rows uses; no frame decodes to no
/// rows, a corrupt one to kOutOfRange / kInvalidArgument.
StatusOr<std::vector<Tuple>> TupleBatchRows(const RowFrame& frame);

/// Modelled wire size of a serialized operator-profile tree.
int64_t ProfileBits(const obs::OperatorProfile& profile);

/// A SQL or PRISMAlog statement submitted by a client session.
struct ClientStatement {
  uint64_t request_id = 0;
  std::string text;
  bool is_prismalog = false;
  /// Session transaction (kAutoCommit when outside BEGIN/COMMIT).
  exec::TxnId txn = exec::kAutoCommit;
};

/// Reply to a client statement: result rows for queries, affected count
/// for DML, the new transaction id for BEGIN. A result of more than
/// `exchange_batch_rows` rows travels as a train of frames (DESIGN.md
/// §15.5): each frame is a ClientReply with its own header, frame 0
/// carries the schema, and the client endpoint hands the reassembled
/// reply to the session when the `last` frame is in. A single-frame reply
/// is frame 0 with `last` set.
struct ClientReply {
  uint64_t request_id = 0;
  Status status;
  Schema schema;
  /// This frame's rows on the wire.
  RowFrame rows;
  /// The decoded result: set only on the reply the client endpoint hands
  /// to the session, never on the wire.
  std::shared_ptr<std::vector<Tuple>> tuples;
  uint64_t affected_rows = 0;
  exec::TxnId txn = exec::kAutoCommit;
  uint32_t frame = 0;
  bool last = true;

  int64_t WireBits() const { return kControlBits + FrameBits(rows); }
};

/// Coordinator -> OFM: run a fragment-local plan; `stream` says where its
/// rows go. Unset, they are gathered: the ExecPlanReply carries them (mail
/// kind exec_plan). Set, they stream (kind shuffle_plan) to the consumers
/// as flow-controlled tuple batches (framed by the machine's exchange
/// settings), hash-partitioned on a column of the output schema or
/// replicated (kBroadcast; with one consumer, a sorted run to the
/// coordinator), and the OFM answers the coordinator with an
/// (empty, control-sized) ExecPlanReply once every consumer has
/// acknowledged its stream, so the coordinator's hardened-RPC machinery
/// (retransmit, dedup, degrade-to-Unavailable) covers both outputs alike.
/// A plan from the plan cache carries its `plan_ref`: shipped whole, the
/// OFM keeps it under that ref; shipped by id (`plan` null), the OFM runs
/// the plan it kept, or answers `plan_not_resident`.
struct ExecPlanRequest {
  struct Stream {
    enum class Mode : uint8_t { kHash, kBroadcast };
    /// Identifies the exchange (one per lowered part) and this producer's
    /// role in it; consumers use these to route batches onto the right
    /// channel.
    uint64_t exchange_id = 0;
    int side = 0;          // 0 = left input of the join, 1 = right.
    size_t producer = 0;   // Index of this producer within its side.
    Mode mode = Mode::kHash;
    /// Hash mode: column of the plan's output schema to partition on.
    size_t partition_column = 0;
    /// Hash mode: route NULL partition keys to consumer 0 instead of
    /// dropping them. Join shuffles drop NULLs (they can never match an
    /// equi-join); group-by shuffles must keep them (NULL is a real group,
    /// DESIGN.md §14.2).
    bool keep_nulls = false;
    std::vector<pool::ProcessId> consumers;
  };
  uint64_t request_id = 0;
  /// The cached entry's own plan when `plan_ref` names one, shipped whole
  /// or null (resident at the OFM); `params` then holds this execution's
  /// values of its tagged literals when they differ from its own
  /// (PlanParams), and the OFM runs the plan with them bound in.
  std::shared_ptr<const algebra::Plan> plan;
  PlanRef plan_ref;
  std::vector<Value> params;
  /// EXPLAIN ANALYZE: the reply (a stream's settlement too) carries the
  /// plan's per-operator profile.
  bool profile = false;
  std::optional<Stream> stream;

  int64_t WireBits() const {
    return kControlBits + PlanBits(plan.get()) + ParamBits(params);
  }
};

struct ExecPlanReply {
  uint64_t request_id = 0;
  Status status;
  std::string fragment;
  /// Result rows; null for a shuffle producer's settlement or an error.
  RowFrame rows;
  /// Set when the request asked for profiling (a shuffle producer's
  /// settlement carries the profile of its fragment's plan).
  std::shared_ptr<obs::OperatorProfile> profile;
  /// Shuffle producers: first-transmission data-plane bits of the shuffle
  /// this reply settles (feeds olap.shuffle_bits; zero for plain plans).
  /// A fixpoint partition's harvest reply: its result streams' bits
  /// (fixpoint.result_bits).
  uint64_t shuffle_wire_bits = 0;
  /// The request named a plan by id that this OFM does not hold (evicted,
  /// or the OFM respawned): nothing ran, and the coordinator ships the
  /// plan whole under a fresh request id.
  bool plan_not_resident = false;

  int64_t WireBits() const {
    return kControlBits + FrameBits(rows) +
           (profile ? ProfileBits(*profile) : 0);
  }
};

/// GDH -> OFM: one write operation (insert / predicated delete / update).
struct WriteRequest {
  enum class Op : uint8_t { kInsert, kDeleteWhere, kUpdateWhere };
  uint64_t request_id = 0;
  Op op = Op::kInsert;
  exec::TxnId txn = exec::kAutoCommit;
  RowFrame rows;  // kInsert: the fragment's rows, in statement order.
  std::shared_ptr<const algebra::Expr> predicate;  // May be null (all rows).
  std::vector<std::pair<size_t, std::shared_ptr<const algebra::Expr>>>
      assignments;  // kUpdateWhere.

  int64_t WireBits() const {
    int64_t bits = kControlBits + FrameBits(rows);
    if (predicate) {
      bits += static_cast<int64_t>(predicate->TreeSize()) * kExprNodeBits;
    }
    for (const auto& [_, e] : assignments) {
      bits += static_cast<int64_t>(e->TreeSize()) * kExprNodeBits;
    }
    return bits;
  }
};

struct WriteReply {
  uint64_t request_id = 0;
  Status status;
  uint64_t affected_rows = 0;
  /// Row-count delta of the fragment (insert: +n; delete: -n).
  int64_t row_delta = 0;
  /// The fragment's per-column distinct estimates (exec::DistinctSketch),
  /// when they moved since this OFM last reported them; empty otherwise.
  std::vector<uint64_t> distinct;
  std::string fragment;
  /// Transactions whose phase-2 commit markers are durable at this OFM
  /// now: a write it submitted since its last such list carried them, and
  /// the reply left once that write landed (DESIGN.md §8.1, "Unforced
  /// commit markers").
  std::vector<exec::TxnId> commits_landed;

  /// A header, plus each estimate and each landed transaction as a varint.
  int64_t WireBits() const;
};

/// Producer -> consumer: one framed batch of an exchange channel. The
/// channel is identified by (exchange_id, side, producer); `shuffle_token`
/// names the producer-side shuffle instance so acks for a superseded
/// execution of the same shuffle are ignored.
struct TupleBatchMsg {
  uint64_t exchange_id = 0;
  int side = 0;
  size_t producer = 0;
  uint64_t shuffle_token = 0;
  uint64_t seq = 0;   // 1-based per-channel sequence number.
  bool eos = false;   // Final batch of this channel.
  RowFrame rows;

  int64_t WireBits() const { return kControlBits + FrameBits(rows); }
};

/// Consumer -> producer: cumulative acknowledgement for one channel.
/// `ack` is the highest sequence number delivered in order; the producer
/// may have batches up to `ack + credit` in flight.
struct BatchAckMsg {
  uint64_t shuffle_token = 0;
  size_t consumer = 0;  // Consumer index within the exchange.
  uint64_t ack = 0;
  uint64_t credit = 0;
};

/// Coordinator -> fixpoint PE: peer roster for one distributed fixpoint.
/// Sent once after all PEs are spawned (pids are unknown until then) and
/// rebroadcast by the control-plane timer under faults; idempotent.
struct FixpointStartMsg {
  uint64_t fixpoint_id = 0;
  std::vector<pool::ProcessId> peers;  // All fixpoint PEs, by index.
};

/// Coordinator -> fixpoint PE: run join round `round` (1-based), or — with
/// `harvest` set — reply with a status-only ExecPlanReply (the result has
/// streamed to the coordinator during the rounds).
/// PEs deduplicate by round counter / replied flag, so retransmitted or
/// duplicated directives are harmless.
struct FixpointRoundMsg {
  uint64_t fixpoint_id = 0;
  uint64_t round = 0;
  bool harvest = false;
};

/// Fixpoint PE -> coordinator: "I sent my round-`round` delta streams and
/// absorbed all inbound round-`round` streams". The coordinator's barrier
/// admits each (round, pe) vote once; duplicates from retransmission are
/// dropped, so the aggregated stats stay exact.
struct FixpointVoteMsg {
  uint64_t fixpoint_id = 0;
  uint64_t round = 0;
  size_t pe = 0;            // Voter's partition index.
  bool delta_empty = false; // No new owned pairs absorbed this round.
  /// New owned pairs deduplicated in; when nonzero, the PE streams them
  /// to the coordinator next (DESIGN.md §11.2).
  uint64_t absorbed_new = 0;
  uint64_t pairs_derived = 0;  // Join products of this round's JoinRound.
  uint64_t wire_bits = 0;      // First-transmission bits of round streams.
};

/// GDH -> OFM commit control; OFM replies with the same id. kPrepare,
/// kCommit and kAbort are the presumed-abort 2PC steps; kCommitOnePhase
/// commits a transaction whose only participant is this OFM: it forces
/// the redo records and the commit marker as one write and answers the
/// outcome, which it alone decides (DESIGN.md §8.1).
struct TxnControlRequest {
  enum class Op : uint8_t { kPrepare, kCommit, kAbort, kCommitOnePhase };
  uint64_t request_id = 0;
  Op op = Op::kPrepare;
  exec::TxnId txn = exec::kAutoCommit;
};

struct TxnControlReply {
  uint64_t request_id = 0;
  Status status;
  std::string fragment;
  /// As WriteReply::commits_landed.
  std::vector<exec::TxnId> commits_landed;

  /// A header, plus each landed transaction as a varint.
  int64_t WireBits() const;
};

/// GDH -> OFM: snapshot the fragment and truncate its WAL.
struct CheckpointRequest {
  uint64_t request_id = 0;
};

/// GDH -> OFM: build a secondary index on the fragment.
struct CreateIndexRequest {
  uint64_t request_id = 0;
  std::string index_name;
  std::vector<size_t> columns;
  bool ordered = false;
};

/// Coordinator -> GDH: acquire shared locks on a set of fragments.
struct LockBatchRequest {
  uint64_t request_id = 0;
  exec::TxnId txn = exec::kAutoCommit;  // Statement txn for autocommit reads.
  std::vector<std::string> resources;
  bool exclusive = false;
};

struct LockBatchReply {
  uint64_t request_id = 0;
  Status status;
};

/// Coordinator -> GDH: statement finished (releases statement locks).
struct StatementDone {
  exec::TxnId txn = exec::kAutoCommit;
};

/// GDH -> source OFM: refill `target` (the resync-mode OFM of the peer
/// replica). Phase 1 (`cutover` false): snapshot bulk-copy + WAL-delta
/// rounds until drained, then reply. Phase 2 (`cutover` true, sent while
/// the GDH holds the fragment's exclusive lock, so every 2PC touching the
/// fragment has completed): ship the final committed delta, wait for the
/// target to finish (index rebuild + checkpoint), then reply. Both phases
/// ride the hardened RPC layer (request ids, retransmission, reply cache).
struct ResyncRequest {
  uint64_t request_id = 0;
  /// GDH-chosen id of this resync attempt; frames and deltas carry it so
  /// the target ignores traffic from superseded attempts.
  uint64_t resync_id = 0;
  pool::ProcessId target = pool::kNoProcess;
  std::string target_fragment;
  bool cutover = false;
};

/// Source OFM -> GDH: phase outcome plus transfer accounting (feeds the
/// replica.* metric family).
struct ResyncReply {
  uint64_t request_id = 0;
  Status status;
  std::string fragment;       // Source replica name.
  uint64_t bulk_tuples = 0;   // Snapshot rows shipped this phase.
  uint64_t delta_records = 0; // WAL records shipped this phase.
  uint64_t delta_rounds = 0;  // Catch-up rounds this phase.
  uint64_t wire_bits = 0;     // Modelled bits of bulk frames + deltas.
};

/// Source -> target: one stop-and-wait round of committed WAL records
/// (encoded in the OFM's WAL record format). `seq` is 1-based within the
/// source session identified by `session_token`; `final` marks the cutover
/// delta — applying it makes the target rebuild its indexes, checkpoint,
/// and become a normal replica.
struct ResyncDeltaMsg {
  uint64_t resync_id = 0;
  uint64_t session_token = 0;
  uint64_t seq = 0;
  bool final_delta = false;
  /// Source relation's total slot count, trailing tombstones included.
  /// The bulk snapshot ships live rows only, so on the final delta the
  /// target pads to this count — checkpoints serialize the whole slot
  /// array and must stay byte-identical across replicas.
  uint64_t source_slots = 0;
  std::vector<std::string> records;

  int64_t WireBits() const {
    int64_t bits = kControlBits;
    for (const std::string& r : records) {
      bits += static_cast<int64_t>(r.size()) * 8;
    }
    return bits;
  }
};

/// Target -> source: cumulative delta acknowledgement.
struct ResyncDeltaAck {
  uint64_t resync_id = 0;
  uint64_t session_token = 0;
  uint64_t ack = 0;
};

/// Recovering OFM -> GDH: what happened to these in-doubt transactions?
/// Retransmitted on a timer until every transaction is resolved.
struct DecisionRequest {
  uint64_t request_id = 0;
  std::vector<exec::TxnId> transactions;
};

/// GDH -> OFM: commit flags for the echoed transaction ids (presumed
/// abort: the coordinator only remembers logged commit decisions, so any
/// transaction it does not recognise aborts). The echo lets the OFM apply
/// a late or duplicated reply to exactly the transactions it asked about.
struct DecisionReply {
  uint64_t request_id = 0;
  std::vector<exec::TxnId> transactions;
  std::vector<bool> commit;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_MESSAGES_H_
