#ifndef PRISMA_GDH_QUERY_PROCESS_H_
#define PRISMA_GDH_QUERY_PROCESS_H_

#include <any>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "gdh/data_dictionary.h"
#include "gdh/distributed_plan.h"
#include "gdh/machine_params.h"
#include "gdh/messages.h"
#include "gdh/optimizer.h"
#include "gdh/transport.h"
#include "obs/query_profile.h"
#include "pool/owned.h"
#include "pool/runtime.h"
#include "storage/relation.h"

namespace prisma::gdh {

/// Per-query coordinator: the paper's "for each query a new instance is
/// created, possibly running at its own processor" (§2.2). Spawned by the
/// GDH on the client's PE (or round-robin over `coordinator_pes` when the
/// machine lists them); it parses, optimizes and schedules one SELECT
/// (or PRISMAlog program), scatters fragment plans to the OFMs, merges
/// the gathered results, answers the client, and reports back to the GDH
/// so its statement locks can be released and the process reaped.
///
/// The data dictionary is read through shared memory: conceptually the
/// GDH hands the coordinator the catalog slice it needs at spawn time
/// (catalog traffic is not modelled; see DESIGN.md).
class QueryProcess : public pool::Process {
 public:
  struct Config {
    const DataDictionary* dictionary = nullptr;
    pool::ProcessId gdh = pool::kNoProcess;
    pool::ProcessId client = pool::kNoProcess;
    std::shared_ptr<ClientStatement> statement;
    /// Transaction whose locks cover this statement (the session txn, or
    /// a GDH-assigned statement txn released at stmt_done).
    exec::TxnId lock_txn = exec::kAutoCommit;
    /// The machine's settings, handed whole to every consumer process
    /// spawned here. OFM requests retransmit under `machine.retransmit`,
    /// and stmt_done is resent every resend_ns until this process is
    /// reaped; per-query metrics carry the {query=<request_id>} label.
    MachineParams machine;
  };

  explicit QueryProcess(Config config);

  void OnStart() override;
  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override { return "coordinator"; }

 private:
  void StartSql();
  /// Collects the shared fragment locks of every part of `split_` (with
  /// fragmentation-key pruning) and sends the lock batch to the GDH.
  void AcquireSelectLocks();
  void ReplyExplain();
  /// The lines EXPLAIN and EXPLAIN ANALYZE share: the optimizer summary,
  /// and the heading of part `i` (sorted runs, a table or a co-located
  /// join) over `fan` fragments; EXPLAIN notes where sorted runs merge.
  std::string OptimizerLine() const;
  std::string PartHeading(size_t i, size_t fan, bool explain) const;
  /// EXPLAIN's line on a costed GROUP BY: its path, estimates and the
  /// modelled times of both paths.
  static std::string GroupByLine(const GroupByChoice& choice);
  /// max(estimate, actual) / min(...), each at least 1.
  static double QError(double estimate, double actual);
  /// EXPLAIN ANALYZE: renders the measured per-operator profiles (global
  /// plan + merged fragment profiles per part) as the result rows.
  void ReplyAnalyze(const obs::OperatorProfile& global);
  void StartPrismalog();
  void RequestLocks(std::vector<std::string> resources);
  void Scatter();
  /// Sends work_ (all at once, or one entry at a time under the
  /// sequential ablation) and gathers its replies plus
  /// `consumer_replies` from spawned consumers; with nothing to wait for,
  /// finishes the gather at once.
  void StartGather(size_t consumer_replies);
  /// Statement-unique id of part `part_index`'s stream: batches of another
  /// statement's exchange can never be mistaken for this one's.
  uint64_t ExchangeId(size_t part_index) const;
  void SendNextFragmentPlan();
  /// Sends work_[index]'s plan under a fresh request id: by id when the
  /// target OFM is on the plan cache's record (and `by_id_ok`), else whole.
  void SendFragmentPlan(size_t index, bool by_id_ok);
  void HandlePlanReply(const pool::Mail& mail);

  /// Registers an outgoing request for retransmission. `work_index` names
  /// the work_ entry whose OFM is the target, or SIZE_MAX for the GDH
  /// (lock batches).
  void SendRpc(uint64_t request_id, const char* kind, std::any body,
               int64_t size_bits, size_t work_index);
  /// Cancels retransmission of an answered request; false if it was
  /// already settled (duplicate reply).
  bool SettleRpc(uint64_t request_id);
  pool::ProcessId ResolveTarget(size_t work_index) const;
  /// The dictionary entry of `fragment` (a base name) of `table`; null
  /// if either is gone.
  const FragmentInfo* FindFragment(const std::string& table,
                                   const std::string& fragment) const;
  /// Exhaustion hook: fails the statement with a typed kUnavailable that
  /// names the unreachable replica.
  void RpcExhausted(uint64_t request_id, size_t work_index);
  void FinishGather();
  void RunGlobalPhase();
  void RunPrismalogPhase();
  // Distributed fixpoint (DESIGN.md §11).
  /// Spawns the partitions of fixpoint part `part_index` and appends its
  /// edge producers; returns the partition replies the gather waits for.
  size_t ScatterFixpointPart(size_t part_index);
  void HandleFixpointVote(const pool::Mail& mail);
  /// Sends the harvest once the final barrier is reached and every result
  /// stream an admitted vote announced is complete.
  void MaybeHarvest();
  /// Broadcasts a directive: round fx_round_, or the harvest.
  void DirectFixpoint(bool harvest);
  void BroadcastFixpointCtrl();
  void RunFixpointPhase();
  void ReplyFixpointExplain();
  /// Final answer to the client. An error is one frame (it makes the
  /// client discard any partial train); a result of more than one
  /// exchange batch, or the tail of a forwarded train, goes out as frames
  /// (DESIGN.md §15.5).
  void Reply(Status status, Schema schema,
             std::shared_ptr<std::vector<Tuple>> tuples);
  /// Sends `unframed_` as client_reply frames of exchange_batch_rows rows.
  /// Unless `last`, the final (possibly full) frame is held back, so the
  /// frame that carries the `last` flag always carries rows and a result
  /// of n rows is max(1, ceil(n / batch)) frames in all.
  void SendFrames(const Schema& schema, bool last);

  /// Notes that the statement advanced (an admitted lock or plan reply, a
  /// fresh stream batch, an admitted fixpoint vote): the watchdog fires
  /// only after kWatchdogNs without any.
  void NoteProgress() { last_progress_ = runtime()->simulator()->now(); }

  static constexpr sim::SimTime kWatchdogNs = 30 * sim::kNanosPerSecond;

  Config config_;
  bool finished_ = false;
  sim::EventId timeout_event_ = 0;
  sim::SimTime start_time_ = 0;
  sim::SimTime last_progress_ = 0;

  // Plan state, for every statement kind. The split plan is immutable
  // once built and may be shared with the plan cache and concurrent
  // queries (read-only here).
  std::shared_ptr<const DistributedPlan> split_;
  OptimizerReport optimizer_report_;
  /// Plan-cache id of split_ (0: not from the cache); its fragment plans
  /// may then go to the OFMs by id (DESIGN.md §15.4).
  uint64_t plan_entry_ = 0;
  bool explain_ = false;
  bool analyze_ = false;

  // Scatter/gather bookkeeping.
  struct FragmentWork {
    pool::ProcessId ofm = pool::kNoProcess;
    /// The request each send copies: the whole plan (its scans naming the
    /// replica it is aimed at) and its output, gathered or streamed. Its
    /// request id is the one the plan was last sent under.
    ExecPlanRequest request;
    size_t part = 0;
    /// Names for pid re-resolution on retransmit (the OFM may respawn).
    /// `fragment` is the BASE fragment name; `replica` the replica the
    /// plan is currently aimed at (plan scans carry the replica name).
    std::string table;
    std::string fragment;
    int replica = 0;
    /// Co-located join partner (empty when none): needed to re-aim the
    /// partner's scan together with the anchor's on read failover.
    std::string second_table;
    std::string second_fragment;
  };
  /// Read routing (DESIGN.md §13): the replica of `frag` a read should
  /// address — the primary while it is in-sync and alive, else the peer
  /// if IT is in-sync and alive, else the primary (the RPC layer then
  /// degrades to a typed Unavailable — never a wrong answer).
  int ChooseReadReplica(const FragmentInfo& frag) const;
  /// True when `replica` of `frag` is in-sync and its OFM is alive.
  bool ServesReads(const FragmentInfo& frag, int replica) const;
  /// Outstanding requests, named by the work_ entry whose OFM is the
  /// target (SIZE_MAX: the GDH).
  using Rpcs = RpcClient<size_t>;
  /// Re-aims an unanswered fragment read at the currently chosen replica
  /// (crash failover at retransmission time), or, for an exec_plan read
  /// whose addressed replica is alive but silent, at its serving peer:
  /// rebuilds the request body with the plan's scans renamed, keeping the
  /// request id.
  void MaybeFailover(size_t work_index, Rpcs::PendingRpc& rpc);
  /// Bumps the labeled query.unavailable{pe,table} counter (registered
  /// lazily so fault-free metric dumps are unchanged).
  void CountUnavailable(net::NodeId pe, const std::string& table);
  /// "fragment <replica-name> on PE <n>" for the replica `w` is aimed at;
  /// fills *pe with that replica's PE (degradation reporting).
  std::string DescribeWorkTarget(const FragmentWork& w, net::NodeId* pe) const;
  /// Builds the consumer processes and producer work entries of one
  /// exchange part (a join, or a group-by, DESIGN.md §14.2); returns the
  /// number of consumer replies the gather now additionally waits for.
  size_t ScatterExchangePart(size_t part_index);
  /// Appends the work entry that runs `plan` on fragment `frag` of
  /// `table`, aimed at the replica that serves reads: the plan's scans of
  /// `table`, and of a co-located partner (`second_table`, fragment
  /// `second`), are renamed to that replica. Its output is gathered
  /// unless the caller sets a stream.
  FragmentWork& AddFragmentWork(size_t part_index, const std::string& table,
                                const FragmentInfo& frag,
                                const algebra::Plan& plan,
                                const std::string& second_table = {},
                                const FragmentInfo* second = nullptr);
  /// Appends a work entry (AddFragmentWork) whose output streams to
  /// `consumers` as producer `producer` of `side`. The caller sets the
  /// routing mode.
  ExecPlanRequest::Stream& AddShuffleProducer(
      size_t part_index, uint64_t exchange_id, int side, size_t producer,
      const std::string& table, const FragmentInfo& frag,
      const algebra::Plan& plan, std::vector<pool::ProcessId> consumers);
  /// Appends one sorted-run part's work entries (DESIGN.md §14.3): a
  /// shuffle producer per fragment, streaming its run to this
  /// coordinator.
  void ScatterRunsPart(size_t part_index);
  /// Takes one batch of the part streaming here (sorted runs or a
  /// closure's results): fails the statement on a bad frame, else counts
  /// the rows and hands them to the part's sink. A run's rows are acked on
  /// receipt, independent of the merge (so a sequential scatter cannot
  /// stall a producer on credit), then merged; a closure's are gathered,
  /// and the harvest goes out once no result stream is owed.
  void HandleStreamBatch(const pool::Mail& mail);
  /// K-way merges the sorted runs of part in_part_ as far as every
  /// unfinished run has a head row. Merged rows join the client's frame
  /// train when forwarding, else the part's gather buffer.
  void MergeRuns();
  // Process-local state below is wrapped in the ownership checker: only
  // this process's handlers (or control-plane code between events) may
  // touch it; see pool/owned.h.
  pool::Owned<std::vector<FragmentWork>> work_;
  size_t next_work_ = 0;      // Sequential mode cursor.
  size_t outstanding_ = 0;
  size_t completed_ = 0;
  /// Replies the gather waits for: every work_ entry plus one per spawned
  /// exchange consumer.
  size_t expected_replies_ = 0;
  /// Exchange consumers spawned for this statement, killed in Reply().
  std::vector<pool::ProcessId> consumer_pids_;
  uint64_t next_request_id_ = 1;
  /// EXPLAIN ANALYZE: how a part's fragment plans went out.
  struct PlanShipping {
    size_t by_id = 0;
    size_t whole = 0;
    int64_t whole_bits = 0;
  };
  /// What the coordinator keeps of one part of split_.
  struct Part {
    /// The fragments the part reads, by index: pruned (see
    /// PruneFragmentsForPart), or an exchange part's every anchor fragment.
    std::vector<int> fragments;
    /// Common-subexpression elimination: the earlier identical part whose
    /// gathered result this one reuses (SIZE_MAX: scattered normally).
    size_t duplicate_of = SIZE_MAX;
    /// The part's rows: gathered, merged from sorted runs, or streamed by
    /// a closure's partitions.
    std::vector<Tuple> gathered;
    /// A costed GROUP BY's part: the rows it gathered, once the gather
    /// finished.
    std::optional<uint64_t> group_rows;
    /// Sorted runs: received rows not merged yet, by run. Run r is
    /// producer r of side 0, sent as work_ entry first_work + r.
    std::vector<std::deque<Tuple>> runs;
    size_t first_work = 0;
    /// EXPLAIN ANALYZE: fragment profiles merged per producer side.
    std::map<int, obs::OperatorProfile> profiles;
    PlanShipping shipping;
  };
  /// Indexed like split_->parts; built with the lock request.
  pool::Owned<std::vector<Part>> parts_;
  /// Where a reply lands: its part, and for a shuffle producer its input
  /// side (EXPLAIN ANALYZE profiles each side of an exchange join). Plan
  /// requests name their work_ entry; consumer replies SIZE_MAX.
  struct ReplySlot {
    size_t part = 0;
    int side = 0;
    size_t work = SIZE_MAX;
  };
  std::map<uint64_t, ReplySlot> request_part_;  // By request id.

  // Settlement contract (D6): replies settle via SettleRpc, retry-budget
  // exhaustion via RpcExhausted, and Reply clears whatever is still
  // outstanding when the statement finishes (sheds the stragglers).
  // PRISMA_SETTLES(rpcs_: success=SettleRpc, exhaustion=RpcExhausted,
  //                shed=Reply)
  RpcClient<size_t> rpcs_;
  /// stmt_done, resent without a budget until the GDH reaps this process.
  Resender done_;
  uint64_t tuples_gathered_ = 0;
  uint64_t olap_shuffle_bits_ = 0;  // First-transmission stream bits.
  uint64_t olap_gather_bits_ = 0;   // Group-by consumer reply bits.
  /// Bits of plain (non-OLAP) fragment replies gathered at the
  /// coordinator — the gather-baseline figure E14 compares against.
  uint64_t gather_bits_ = 0;

  /// The one inbound stream: the sorted runs (DESIGN.md §14.3) or the
  /// closure's results (§11.2) of part in_part_, a statement's only
  /// streaming part. Built with the part, so other statements register
  /// none of its series.
  std::optional<StreamReceiver> in_;
  size_t in_part_ = 0;

  // Result delivery (DESIGN.md §15.5). `forward_runs_` is set when the
  // global plan is a bare Scan of one sorted-run part: merged rows are
  // framed to the client as they come, so the coordinator -> client
  // transfer overlaps the runs' arrival.
  bool forward_runs_ = false;
  /// Result rows not yet framed (a forwarded train's held-back tail).
  std::vector<Tuple> unframed_;
  uint32_t frames_sent_ = 0;

  /// PRISMAlog program text with any leading EXPLAIN keyword stripped
  /// (what the parser actually sees, re-parsed at reply time).
  std::string plog_text_;

  // Distributed fixpoint state (the coordinator's termination barrier).
  uint64_t fixpoint_id_ = 0;
  size_t fx_num_pes_ = 0;
  std::vector<pool::ProcessId> fx_pids_;
  /// Round the barrier is collecting votes for (0 = seed round).
  uint64_t fx_round_ = 0;
  /// Partitions whose vote for fx_round_ was admitted (at most one each;
  /// dedups retransmits). Full once the round's barrier opens.
  std::set<size_t> fx_voters_;
  bool fx_any_new_ = false;  // Any vote this round absorbed new pairs.
  /// The final barrier is reached and the harvest not sent yet: it waits
  /// until no result stream is owed.
  bool fx_harvest_due_ = false;
  /// Result streams announced by admitted votes (they absorbed new pairs)
  /// minus result streams complete. It dips below zero when a stream
  /// completes before its vote is admitted; at the final barrier every
  /// vote is in, so zero means every announced stream is complete.
  int64_t fx_streams_owed_ = 0;
  /// First-transmission bits of the result streams, from the harvest
  /// replies.
  uint64_t fx_result_bits_ = 0;
  uint64_t fx_delta_total_ = 0;
  uint64_t fx_pairs_total_ = 0;
  uint64_t fx_wire_total_ = 0;
  /// Rebroadcast on the ctrl-resend timer when the interconnect can drop
  /// control mail (both handlers are idempotent at the PEs).
  std::shared_ptr<FixpointStartMsg> fx_start_msg_;
  std::shared_ptr<FixpointRoundMsg> fx_round_msg_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_QUERY_PROCESS_H_
