#ifndef PRISMA_GDH_OLAP_PROCESS_H_
#define PRISMA_GDH_OLAP_PROCESS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/exchange.h"
#include "exec/executor.h"
#include "gdh/messages.h"
#include "gdh/transport.h"
#include "obs/metrics.h"
#include "pool/owned.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// Merge consumer of one multi-stage OLAP group-by (DESIGN.md §14.2): a
/// short-lived POOL-X process spawned by the query coordinator, one per
/// fragment of the anchor table. It receives flow-controlled tuple
/// batches from every producer fragment — partial aggregates or base rows
/// routed by group key — materializes them under OlapInputName(), runs
/// the merge plan (the combining aggregation) over that input, and
/// answers the coordinator with a normal ExecPlanReply carrying final
/// rows only.
///
/// Fault tolerance is the exchange consumer's, from the same transport
/// (gdh/transport.h): per-channel seq dedup, cumulative acks on every
/// arrival (even duplicates), and reply retransmission until the
/// coordinator kills this process.
class OlapMergeProcess : public pool::Process {
 public:
  struct Config {
    uint64_t exchange_id = 0;
    size_t index = 0;        // Consumer index within the shuffle.
    std::string fragment;    // Anchor fragment (labels, reply attribution).
    pool::ProcessId coordinator = pool::kNoProcess;
    /// The coordinator registered this id for our ExecPlanReply.
    uint64_t reply_request_id = 0;
    size_t producers = 0;    // Inbound channel count (side 0 only).
    Schema input_schema;     // Schema of the shuffled-in rows.
    /// Merge plan; its Scan names OlapInputName().
    std::shared_ptr<const algebra::Plan> merge_plan;
    exec::ExprMode expr_mode = exec::ExprMode::kCompiled;
    pool::CostModel costs;
    uint64_t credit_window = 4;
    /// The final reply is resent every retransmit.resend_ns (0: never).
    RetransmitPolicy retransmit;
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit OlapMergeProcess(Config config);

  void OnMail(const pool::Mail& mail) override;

  std::string debug_name() const override {
    return "olap:" + config_.fragment;
  }

 private:
  void HandleBatch(const pool::Mail& mail);
  /// Drains in-order batches into the input buffer; on EOS of every
  /// channel, runs the merge plan and replies.
  void Pump();
  void RunMerge();
  /// Sends the final reply once: the merged rows, or `status` on error.
  void SendReply(Status status, RowFrame rows = nullptr);

  Config config_;
  // Process-local state below is wrapped in the ownership checker.
  pool::Owned<std::vector<exec::InboundChannel>> channels_;
  pool::Owned<std::vector<Tuple>> rows_;  // Materialized shuffle input.
  StreamReceiver in_;
  Resender reply_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_OLAP_PROCESS_H_
