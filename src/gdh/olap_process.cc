#include "gdh/olap_process.h"

#include <any>

#include "common/logging.h"
#include "gdh/distributed_plan.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
OlapMergeProcess::OlapMergeProcess(Config config)
    : config_(std::move(config)),
      channels_(std::vector<exec::InboundChannel>(config_.producers)) {
  PRISMA_CHECK(config_.merge_plan != nullptr);
  PRISMA_CHECK(config_.producers > 0);
  if (config_.metrics != nullptr) {
    // Shares the exchange consumer's data-plane counters: the shuffle
    // machinery underneath is the same.
    m_batches_received_ = config_.metrics->GetCounter(
        "exchange.batches_received", {{"fragment", config_.fragment}});
  }
}

// Handler contract (D5): the merge consumer owns the shuffle data plane.
// PRISMA_HANDLES(kMailTupleBatch, kMailExchangeReplyResend)
void OlapMergeProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    HandleBatch(mail);
    return;
  }
  if (mail.kind == kMailExchangeReplyResend) {
    if (!replied_ || reply_resends_left_ <= 0) return;
    --reply_resends_left_;
    SendMail(config_.coordinator, kMailExecPlanReply, *reply_,
             (*reply_)->WireBits());
    if (reply_resends_left_ > 0) {
      SendSelfAfter(config_.reply_resend_ns, kMailExchangeReplyResend);
    }
    return;
  }
  // Unknown kinds are ignored (forward compatibility).
}

void OlapMergeProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.exchange_id) return;
  if (msg->producer >= channels_->size()) return;
  exec::InboundChannel& channel = (*channels_)[msg->producer];

  exec::TupleBatch batch;
  batch.seq = msg->seq;
  batch.eos = msg->eos;
  auto rows_or = TupleBatchRows(*msg);
  if (!rows_or.ok()) {
    // A frame that fails to decode can never become deliverable; fail the
    // query instead of stalling the producer into its retry budget.
    SendReply(rows_or.status());
    return;
  }
  batch.tuples = std::move(rows_or).value();
  const size_t rows = batch.tuples.size();
  if (channel.Offer(std::move(batch))) {
    ChargeCpu(static_cast<sim::SimTime>(rows) * config_.costs.tuple_ns);
    if (m_batches_received_ != nullptr) m_batches_received_->Increment();
  } else if (config_.metrics != nullptr) {
    if (m_dup_batches_ == nullptr) {
      m_dup_batches_ = config_.metrics->GetCounter(
          "exchange.dup_batches", {{"fragment", config_.fragment}});
    }
    m_dup_batches_->Increment();
  }

  // Advance before acking: TakeReady inside Pump moves the cumulative ack
  // point, so the ack below covers this very batch.
  Pump();

  // Always (re-)acknowledge, even duplicates: a lost ack would otherwise
  // stall the producer's credit window forever.
  auto ack = std::make_shared<BatchAckMsg>();
  ack->shuffle_token = msg->shuffle_token;
  ack->consumer = config_.index;
  ack->ack = channel.ack();
  ack->credit = config_.credit_window;
  SendMail(mail.from, kMailBatchAck, std::move(ack), kControlBits);
}

void OlapMergeProcess::Pump() {
  if (replied_) return;
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
  // Materialize the shuffled-in slice under the sentinel input name and
  // run the merge plan over it (combining aggregation / slice sort).
  storage::Relation input(OlapInputName(), config_.input_schema);
  for (Tuple& tuple : *rows_) {
    StatusOr<storage::RowId> row = input.Insert(std::move(tuple));
    if (!row.ok()) {
      SendReply(row.status());
      return;
    }
  }
  rows_->clear();
  exec::MapTableResolver resolver;
  resolver.Register(OlapInputName(), &input);
  exec::ExecOptions options;
  options.expr_mode = config_.expr_mode;
  options.exec_mode = config_.exec_mode;
  options.costs = config_.costs;
  options.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  exec::Executor executor(&resolver, std::move(options));
  StatusOr<std::vector<Tuple>> result = executor.Execute(*config_.merge_plan);
  if (!result.ok()) {
    SendReply(result.status());
    return;
  }
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = Status::OK();
  reply->fragment = config_.fragment;
  reply->tuples =
      std::make_shared<std::vector<Tuple>>(std::move(result).value());
  if (replied_) return;
  replied_ = true;
  *reply_ = reply;
  SendMail(config_.coordinator, kMailExecPlanReply, reply, reply->WireBits());
  if (config_.reply_resend_ns > 0 && config_.reply_resend_attempts > 0) {
    reply_resends_left_ = config_.reply_resend_attempts;
    SendSelfAfter(config_.reply_resend_ns, kMailExchangeReplyResend);
  }
}

void OlapMergeProcess::SendReply(Status status) {
  if (replied_) return;
  replied_ = true;
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = config_.fragment;
  *reply_ = reply;
  SendMail(config_.coordinator, kMailExecPlanReply, reply, reply->WireBits());
  if (config_.reply_resend_ns > 0 && config_.reply_resend_attempts > 0) {
    reply_resends_left_ = config_.reply_resend_attempts;
    SendSelfAfter(config_.reply_resend_ns, kMailExchangeReplyResend);
  }
}

}  // namespace prisma::gdh
