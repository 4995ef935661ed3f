#include "gdh/olap_process.h"

#include <any>

#include "common/logging.h"
#include "gdh/exchange_process.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
OlapMergeProcess::OlapMergeProcess(Config config)
    : config_(std::move(config)),
      channels_(std::vector<exec::InboundChannel>(config_.producers)),
      // Shares the exchange consumer's data-plane counters: the shuffle
      // machinery underneath is the same.
      in_(this, ShuffleConsumerOptions(config_.index, config_.fragment,
                                       config_.credit_window, config_.costs,
                                       config_.metrics)),
      reply_(this, config_.coordinator, kMailExecPlanReply,
             kMailExchangeReplyResend, config_.retransmit.resend_ns) {
  PRISMA_CHECK(config_.merge_plan != nullptr);
  PRISMA_CHECK(config_.producers > 0);
}

// Handler contract (D5): the merge consumer owns the shuffle data plane.
// PRISMA_HANDLES(kMailTupleBatch, kMailExchangeReplyResend)
void OlapMergeProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    HandleBatch(mail);
    return;
  }
  if (mail.kind == kMailExchangeReplyResend) {
    reply_.OnTimer();
    return;
  }
  // Unknown kinds are ignored (forward compatibility).
}

void OlapMergeProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.exchange_id) return;
  if (msg->producer >= channels_->size()) return;
  exec::InboundChannel& channel = (*channels_)[msg->producer];
  const Status status = in_.Offer(*msg, channel);
  if (!status.ok()) {
    SendReply(status);
    return;
  }
  // Advance before acking: TakeReady inside Pump moves the cumulative ack
  // point, so the ack below covers this very batch.
  Pump();
  in_.Ack(mail.from, msg->shuffle_token, channel);
}

void OlapMergeProcess::Pump() {
  if (reply_.sent()) return;
  bool all_done = true;
  // Fixed channel order keeps the materialized input deterministic given
  // the (deterministic) simulated delivery schedule.
  for (exec::InboundChannel& channel : *channels_) {
    for (exec::TupleBatch& batch : channel.TakeReady()) {
      for (Tuple& tuple : batch.tuples) {
        rows_->push_back(std::move(tuple));
      }
    }
    if (!channel.done()) all_done = false;
  }
  if (all_done) RunMerge();
}

void OlapMergeProcess::RunMerge() {
  // The shuffled-in slice is the merge plan's input (the combining
  // aggregation).
  StatusOr<std::vector<Tuple>> result = RunPlanOverRows(
      this, *config_.merge_plan, config_.input_schema, std::move(*rows_),
      config_.expr_mode, config_.costs);
  rows_->clear();
  if (!result.ok()) {
    SendReply(result.status());
    return;
  }
  SendReply(Status::OK(), EncodeRows(*result));
}

void OlapMergeProcess::SendReply(Status status, RowFrame rows) {
  if (reply_.sent()) return;
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = config_.fragment;
  reply->rows = std::move(rows);
  reply_.Send(reply, reply->WireBits());
}

}  // namespace prisma::gdh
