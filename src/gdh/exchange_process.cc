#include "gdh/exchange_process.h"

#include <any>

#include "common/logging.h"
#include "exec/expr_eval.h"
#include "gdh/distributed_plan.h"
#include "storage/relation.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
ExchangeConsumerProcess::ExchangeConsumerProcess(Config config)
    : config_(std::move(config)),
      join_(MakeJoin()),
      build_channels_(std::vector<exec::InboundChannel>(
          Side(config_.build_side).producers)),
      probe_channels_(std::vector<exec::InboundChannel>(
          Side(1 - config_.build_side).moving
              ? Side(1 - config_.build_side).producers
              : 0)),
      in_(this, ShuffleConsumerOptions(config_.index, config_.fragment,
                                       config_.credit_window, config_.costs,
                                       config_.metrics)),
      reply_(this, config_.coordinator, kMailExecPlanReply,
             kMailExchangeReplyResend, config_.retransmit.resend_ns) {
  PRISMA_CHECK(config_.build_side == 0 || config_.build_side == 1);
  // The build side is fully received before probing starts, so it must be
  // a moving side; a stationary input can always stream into the probe.
  PRISMA_CHECK(Side(config_.build_side).moving);
  const SideSpec& probe = Side(1 - config_.build_side);
  if (join_.null()) {
    PRISMA_CHECK(config_.build_side == 0 && !probe.moving &&
                 probe.local_plan == nullptr);
  } else {
    PRISMA_CHECK(probe.moving || probe.local_plan != nullptr);
  }
}

StreamReceiver::Options ShuffleConsumerOptions(size_t index,
                                               const std::string& fragment,
                                               uint64_t credit_window,
                                               const pool::CostModel& costs,
                                               obs::MetricsRegistry* metrics) {
  StreamReceiver::Options options;
  options.consumer = index;
  options.credit_window = credit_window;
  // Unmarshalling cost of a fresh batch, as for gathered reply tuples.
  options.tuple_ns = costs.tuple_ns;
  if (metrics != nullptr) {
    options.received = metrics->GetCounter("exchange.batches_received",
                                           {{"fragment", fragment}});
    options.dups = [metrics, fragment] {
      return metrics->GetCounter("exchange.dup_batches",
                                 {{"fragment", fragment}});
    };
  }
  return options;
}

StatusOr<std::vector<Tuple>> RunPlanOverRows(pool::Process* process,
                                             const algebra::Plan& plan,
                                             const Schema& schema,
                                             std::vector<Tuple> rows,
                                             exec::ExprMode expr_mode,
                                             const pool::CostModel& costs) {
  storage::Relation input(OlapInputName(), schema);
  for (Tuple& tuple : rows) {
    RETURN_IF_ERROR(input.Insert(std::move(tuple)).status());
  }
  rows.clear();
  exec::MapTableResolver resolver;
  resolver.Register(OlapInputName(), &input);
  exec::ExecOptions options;
  options.expr_mode = expr_mode;
  options.costs = costs;
  options.charge = [process](sim::SimTime ns) { process->ChargeCpu(ns); };
  exec::Executor executor(&resolver, std::move(options));
  return executor.Execute(plan);
}

std::unique_ptr<exec::PipelinedHashJoin>
ExchangeConsumerProcess::MakeJoin() {
  if (config_.keys.empty()) return nullptr;
  exec::PipelinedHashJoin::Options options;
  const bool build_left = config_.build_side == 0;
  options.build_is_left = build_left;
  for (const auto& [l, r] : config_.keys) {
    options.build_cols.push_back(build_left ? l : r);
    options.probe_cols.push_back(build_left ? r : l);
  }
  if (config_.predicate != nullptr) {
    if (config_.expr_mode == exec::ExprMode::kCompiled) {
      auto compiled = exec::CompileExpr(*config_.predicate);
      if (compiled.ok()) {
        compiled_predicate_ = std::make_shared<exec::CompiledExpr>(
            std::move(compiled).value());
        predicate_cost_ns_ =
            static_cast<sim::SimTime>(
                compiled_predicate_->num_instructions()) *
            config_.costs.compiled_instr_ns;
      }
    }
    if (compiled_predicate_ == nullptr) {
      predicate_cost_ns_ =
          static_cast<sim::SimTime>(config_.predicate->TreeSize()) *
          config_.costs.interpreted_node_ns;
    }
    options.filter = [this](const Tuple& tuple) -> StatusOr<bool> {
      ChargeCpu(predicate_cost_ns_);
      return compiled_predicate_ != nullptr
                 ? compiled_predicate_->EvalPredicate(tuple)
                 : exec::EvalPredicate(*config_.predicate, tuple);
    };
  }
  return std::make_unique<exec::PipelinedHashJoin>(std::move(options));
}

// Handler contract (D5): the exchange consumer owns the shuffle data plane.
// PRISMA_HANDLES(kMailTupleBatch, kMailExchangeReplyResend)
void ExchangeConsumerProcess::OnMail(const pool::Mail& mail) {
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

void ExchangeConsumerProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.exchange_id) return;
  const bool is_build = msg->side == config_.build_side;
  auto& channels = is_build ? build_channels_ : probe_channels_;
  if (msg->producer >= channels->size()) return;
  exec::InboundChannel& channel = (*channels)[msg->producer];
  const Status status = in_.Offer(*msg, channel);
  if (!status.ok()) {
    SendReply(status);
    return;
  }

  // Advance the pipeline first: TakeReady inside Pump is what moves the
  // channel's cumulative ack point, so acking afterwards covers this very
  // batch (acking before it would leave the stream's last batch
  // permanently unacknowledged, stalling the producer into its
  // retransmission timer).
  Pump();

  in_.Ack(mail.from, msg->shuffle_token, channel);
}

void ExchangeConsumerProcess::Pump() {
  if (reply_.sent()) return;

  // Build phase: insert in-order build batches into the hash table. A
  // one-input consumer collects them in fixed channel order, which keeps
  // its rows deterministic given the (deterministic) delivery schedule.
  bool build_channels_done = true;
  for (exec::InboundChannel& channel : *build_channels_) {
    for (exec::TupleBatch& batch : channel.TakeReady()) {
      if (failed_) continue;
      for (Tuple& tuple : batch.tuples) {
        if (!join_.null()) {
          join_->AddBuild(std::move(tuple));
        } else {
          results_->push_back(std::move(tuple));
        }
      }
    }
    if (!channel.done()) build_channels_done = false;
  }
  if (!build_done_ && build_channels_done) {
    build_done_ = true;
    if (join_.null()) {
      SendReply(Status::OK());
      return;
    }
    join_->FinishBuild();
    ChargeJoinDelta();
  }

  // Probe phase. Moving probe tuples arriving before the build is sealed
  // are buffered; everything after streams straight through the join.
  const SideSpec& probe = Side(1 - config_.build_side);
  if (probe.moving) {
    bool probe_channels_done = true;
    for (exec::InboundChannel& channel : *probe_channels_) {
      for (exec::TupleBatch& batch : channel.TakeReady()) {
        if (failed_) continue;
        if (!build_done_) {
          for (Tuple& tuple : batch.tuples) {
            probe_buffer_->push_back(std::move(tuple));
          }
        } else {
          const Status status = ProbeTuples(batch.tuples);
          if (!status.ok()) SendReply(status);
        }
      }
      if (!channel.done()) probe_channels_done = false;
    }
    if (build_done_ && !failed_) {
      if (!probe_buffer_->empty()) {
        std::vector<Tuple> buffered = std::move(*probe_buffer_);
        probe_buffer_->clear();
        const Status status = ProbeTuples(buffered);
        if (!status.ok()) SendReply(status);
      }
      if (probe_channels_done && !reply_.sent()) SendReply(Status::OK());
    }
  } else if (build_done_ && !probe_drained_ && !failed_) {
    probe_drained_ = true;
    RunLocalProbe();
  }
}

Status ExchangeConsumerProcess::ProbeTuples(const std::vector<Tuple>& tuples) {
  for (const Tuple& tuple : tuples) {
    RETURN_IF_ERROR(join_->Probe(tuple, &results_.get()));
  }
  ChargeJoinDelta();
  return Status::OK();
}

void ExchangeConsumerProcess::RunLocalProbe() {
  const SideSpec& probe = Side(1 - config_.build_side);
  exec::ExecOptions options;
  options.expr_mode = config_.expr_mode;
  options.costs = config_.costs;
  options.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  PeLocalResolver resolver(config_.registry, pe());
  exec::Executor executor(&resolver, std::move(options));
  StatusOr<std::vector<Tuple>> rows = executor.Execute(*probe.local_plan);
  if (!rows.ok()) {
    SendReply(rows.status());
    return;
  }
  const Status status = ProbeTuples(*rows);
  if (!status.ok()) {
    SendReply(status);
    return;
  }
  SendReply(Status::OK());
}

void ExchangeConsumerProcess::SendReply(Status status) {
  if (reply_.sent()) return;
  failed_ = !status.ok();
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = config_.fragment;
  if (!failed_) {
    std::vector<Tuple> rows = std::move(*results_);
    results_->clear();
    if (config_.post_plan != nullptr) {
      StatusOr<std::vector<Tuple>> post = RunPlanOverRows(
          this, *config_.post_plan, config_.input_schema, std::move(rows),
          config_.expr_mode, config_.costs);
      if (post.ok()) {
        rows = std::move(post).value();
      } else {
        failed_ = true;
        reply->status = post.status();
      }
    }
    if (!failed_) reply->rows = EncodeRows(rows);
  }
  reply_.Send(reply, reply->WireBits());
}

void ExchangeConsumerProcess::ChargeJoinDelta() {
  const exec::JoinCounters& counters = join_->counters();
  ChargeCpu(static_cast<sim::SimTime>(counters.hash_ops - charged_.hash_ops) *
                config_.costs.hash_ns +
            static_cast<sim::SimTime>(counters.compare_ops -
                                      charged_.compare_ops) *
                config_.costs.compare_ns +
            static_cast<sim::SimTime>(counters.pairs_examined -
                                      charged_.pairs_examined) *
                config_.costs.tuple_ns);
  charged_ = counters;
}

}  // namespace prisma::gdh
