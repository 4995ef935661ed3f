#include "gdh/exchange_process.h"

#include <any>

#include "common/logging.h"
#include "exec/expr_eval.h"
#include "gdh/distributed_plan.h"
#include "gdh/pe_registry.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
ExchangeConsumerProcess::ExchangeConsumerProcess(Config config)
    : config_(std::move(config)),
      join_(MakeJoin()),
      in_(this, ConsumerOptions(config_.exchange_id, config_.index,
                                config_.machine,
                                {{"fragment", config_.fragment}},
                                /*fixpoint=*/false)),
      reply_(this, config_.coordinator, kMailExecPlanReply,
             kMailExchangeReplyResend, config_.machine.retransmit.resend_ns) {
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
  in_.Expect(config_.build_side, Side(config_.build_side).producers);
  if (probe.moving) in_.Expect(1 - config_.build_side, probe.producers);
}

StatusOr<std::vector<Tuple>> RunPlanOverRows(pool::Process* process,
                                             const algebra::Plan& plan,
                                             const Schema& schema,
                                             std::vector<Tuple> rows,
                                             exec::ExprMode expr_mode) {
  exec::MapTableResolver resolver;
  RETURN_IF_ERROR(resolver.Load(OlapInputName(), schema, std::move(rows)));
  exec::ExecOptions options;
  options.expr_mode = expr_mode;
  options.costs = process->runtime()->costs();
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
    if (config_.machine.expr_mode == exec::ExprMode::kCompiled) {
      auto compiled = exec::CompileExpr(*config_.predicate);
      if (compiled.ok()) {
        compiled_predicate_ = std::make_shared<exec::CompiledExpr>(
            std::move(compiled).value());
      }
    }
    predicate_size_ = static_cast<sim::SimTime>(
        compiled_predicate_ != nullptr ? compiled_predicate_->num_instructions()
                                       : config_.predicate->TreeSize());
    options.filter = [this](const Tuple& tuple) -> StatusOr<bool> {
      const pool::CostModel& costs = runtime()->costs();
      ChargeCpu(predicate_size_ * (compiled_predicate_ != nullptr
                                       ? costs.compiled_instr_ns
                                       : costs.interpreted_node_ns));
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
    const Status status =
        in_.Receive(mail, [this](StreamReceiver::Delivery& delivery) {
          Take(delivery);
          return Status::OK();
        });
    if (!status.ok()) SendReply(status);
    return;
  }
  if (mail.kind == kMailExchangeReplyResend) {
    reply_.OnTimer();
    return;
  }
  // Unknown kinds are ignored (forward compatibility).
}

void ExchangeConsumerProcess::Take(StreamReceiver::Delivery& delivery) {
  if (reply_.sent()) return;
  const int probe_side = 1 - config_.build_side;
  if (delivery.side == config_.build_side) {
    for (Tuple& tuple : delivery.rows) {
      if (!join_.null()) {
        join_->AddBuild(std::move(tuple));
      } else {
        results_->push_back(std::move(tuple));
      }
    }
    if (!in_.Done(config_.build_side)) return;
    build_done_ = true;
    if (join_.null()) {
      SendReply(Status::OK());
      return;
    }
    join_->FinishBuild();
    ChargeJoinDelta();
    if (!Side(probe_side).moving) {
      RunLocalProbe();
      return;
    }
    // Moving probe rows that arrived before the build was sealed.
    delivery.rows = std::move(*probe_buffer_);
    probe_buffer_->clear();
  } else if (!build_done_) {
    probe_buffer_->insert(probe_buffer_->end(),
                          std::make_move_iterator(delivery.rows.begin()),
                          std::make_move_iterator(delivery.rows.end()));
    return;
  }
  if (!delivery.rows.empty()) {
    const Status status = ProbeTuples(delivery.rows);
    if (!status.ok()) {
      SendReply(status);
      return;
    }
  }
  if (in_.Done(probe_side)) SendReply(Status::OK());
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
  options.expr_mode = config_.machine.expr_mode;
  options.costs = runtime()->costs();
  options.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  PeLocalResolver resolver(config_.machine.registry, pe());
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
  std::vector<Tuple> rows = std::move(*results_);
  results_->clear();
  if (status.ok() && config_.post_plan != nullptr) {
    StatusOr<std::vector<Tuple>> post =
        RunPlanOverRows(this, *config_.post_plan, config_.input_schema,
                        std::move(rows), config_.machine.expr_mode);
    if (post.ok()) {
      rows = std::move(post).value();
    } else {
      status = post.status();
    }
  }
  SendConsumerReply(reply_, config_.reply_request_id, config_.fragment,
                    std::move(status), rows);
}

void ExchangeConsumerProcess::ChargeJoinDelta() {
  const exec::JoinCounters& counters = join_->counters();
  ChargeCpu(static_cast<sim::SimTime>(counters.hash_ops - charged_.hash_ops) *
                runtime()->costs().hash_ns +
            static_cast<sim::SimTime>(counters.compare_ops -
                                      charged_.compare_ops) *
                runtime()->costs().compare_ns +
            static_cast<sim::SimTime>(counters.pairs_examined -
                                      charged_.pairs_examined) *
                runtime()->costs().tuple_ns);
  charged_ = counters;
}

}  // namespace prisma::gdh
