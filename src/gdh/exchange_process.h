#ifndef PRISMA_GDH_EXCHANGE_PROCESS_H_
#define PRISMA_GDH_EXCHANGE_PROCESS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/exchange.h"
#include "exec/executor.h"
#include "gdh/machine_params.h"
#include "gdh/messages.h"
#include "gdh/transport.h"
#include "pool/owned.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// Consumer endpoint of one streaming exchange (DESIGN.md §10): a
/// short-lived POOL-X process spawned by the query coordinator on the PE
/// of one anchor fragment. It receives flow-controlled tuple batches from
/// the moving input(s) of an exchange part and answers the coordinator
/// with a normal ExecPlanReply. With two inputs (a join) it pipelines them
/// into the build and probe phases of a hash join (no full-input
/// materialization); with one input and no keys (a group-by, §14.2) it
/// collects its rows in arrival order. Either way it then runs the post
/// plan (a partial aggregate, or a group-by's merge) over its rows if it
/// has one.
///
/// Fault tolerance is the transport's (gdh/transport.h): its receiver
/// seq-deduplicates inbound batches per producer (duplicated or
/// re-executed producers are harmless) and acknowledges every batch
/// cumulatively (lost acks are repaired by the producer's
/// retransmission), and the final reply is
/// retransmitted on a timer until the coordinator kills this process at
/// statement completion.
class ExchangeConsumerProcess : public pool::Process {
 public:
  /// One input as seen by a consumer. A *moving* side arrives as
  /// `producers` batch channels; a stationary join side is executed
  /// locally (`local_plan`, its Scan already retargeted at this PE's
  /// fragment) against co-located fragments once the build side is
  /// complete. A one-input consumer leaves `right` empty.
  struct SideSpec {
    bool moving = false;
    size_t producers = 0;
    std::shared_ptr<const algebra::Plan> local_plan;
  };

  struct Config {
    uint64_t exchange_id = 0;
    size_t index = 0;        // Consumer index within the exchange.
    std::string fragment;    // Anchor fragment (labels, reply attribution).
    pool::ProcessId coordinator = pool::kNoProcess;
    /// The coordinator registered this id for our ExecPlanReply.
    uint64_t reply_request_id = 0;
    SideSpec left;
    SideSpec right;
    /// Which input builds the hash table (0 = left). The build side is
    /// always a moving side; a stationary side is always probed. A
    /// one-input consumer receives on side 0.
    int build_side = 0;
    /// Join keys; empty for a one-input consumer, which joins nothing.
    std::vector<std::pair<size_t, size_t>> keys;
    std::shared_ptr<const algebra::Expr> predicate;
    /// ExchangeSpec::post_plan, run over this consumer's rows (schema
    /// `input_schema`) before it replies; null: reply with the rows.
    std::shared_ptr<const algebra::Plan> post_plan;
    Schema input_schema;
    /// Stationary-side scans resolve through `machine.registry`; the
    /// final reply is resent every `machine.retransmit.resend_ns` (0:
    /// never).
    MachineParams machine;
  };

  explicit ExchangeConsumerProcess(Config config);

  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override {
    return "exch:" + config_.fragment;
  }

 private:
  /// The pipelined join, with the residual predicate compiled; sets
  /// compiled_predicate_ and predicate_size_ (declared before join_).
  /// Null for a one-input consumer.
  std::unique_ptr<exec::PipelinedHashJoin> MakeJoin();
  /// Advances the pipeline by one delivery: build rows go into the hash
  /// table (a one-input consumer: into its result, replying on EOS), the
  /// build's EOS seals it and probes what waited (buffered moving rows,
  /// or the local stationary input), and later probe rows stream through.
  void Take(StreamReceiver::Delivery& delivery);
  Status ProbeTuples(const std::vector<Tuple>& tuples);
  void RunLocalProbe();
  void SendReply(Status status);
  /// Charges this PE for the join work performed since the last call
  /// (same cost formula as Executor::RunJoin).
  void ChargeJoinDelta();

  const SideSpec& Side(int side) const {
    return side == 0 ? config_.left : config_.right;
  }

  Config config_;
  // Prepared residual predicate (full join predicate re-checked per pair,
  // as in Executor::RunJoin). Initialized before join_, whose filter uses
  // them.
  std::shared_ptr<exec::CompiledExpr> compiled_predicate_;
  /// Its VM instructions, or tree nodes when interpreted: each pair costs
  /// this many compiled_instr_ns (interpreted_node_ns), read from the
  /// runtime when charged, as MakeJoin runs before the spawn.
  sim::SimTime predicate_size_ = 0;
  // Process-local state below is wrapped in the ownership checker.
  pool::OwnedPtr<exec::PipelinedHashJoin> join_;
  pool::Owned<std::vector<Tuple>> probe_buffer_;  // Pre-build-EOS arrivals.
  pool::Owned<std::vector<Tuple>> results_;
  StreamReceiver in_;
  Resender reply_;

  bool build_done_ = false;
  exec::JoinCounters charged_;  // Counter snapshot of the last charge.
};

/// Runs `plan` over `rows` materialized under OlapInputName() with
/// `schema`, charging `process`'s PE for the operator work at the
/// runtime's costs: the one way a shuffle consumer executes a plan over
/// rows it received (a group-by's merge plan, an exchange join's post-join
/// plan).
StatusOr<std::vector<Tuple>> RunPlanOverRows(pool::Process* process,
                                             const algebra::Plan& plan,
                                             const Schema& schema,
                                             std::vector<Tuple> rows,
                                             exec::ExprMode expr_mode);

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_EXCHANGE_PROCESS_H_
