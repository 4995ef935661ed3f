#include "gdh/fixpoint_process.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/column_batch.h"
#include "common/logging.h"
#include "common/serialize.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
FixpointPeProcess::FixpointPeProcess(Config config)
    : config_(std::move(config)),
      kernel_(std::make_unique<exec::FixpointPartition>(
          config_.algorithm, config_.num_pes, config_.index)),
      known_ofm_(MakeKnownOfm()),
      edge_channels_(
          std::vector<exec::InboundChannel>(config_.edge_producers)) {
  PRISMA_CHECK(config_.num_pes > 0);
  PRISMA_CHECK(config_.index < config_.num_pes);
  if (config_.metrics != nullptr) {
    const obs::Labels labels = {{"pe", std::to_string(config_.index)}};
    m_batches_received_ =
        config_.metrics->GetCounter("fixpoint.batches_received", labels);
    m_batches_sent_ =
        config_.metrics->GetCounter("fixpoint.batches_sent", labels);
  }
}

std::unique_ptr<exec::Ofm> FixpointPeProcess::MakeKnownOfm() {
  // The known set lives in a recovery-free intermediate-result OFM
  // (§2.5): no WAL, no checkpointing — a crashed fixpoint is re-run, not
  // recovered.
  exec::Ofm::Options ofm_options;
  ofm_options.type = exec::OfmType::kQueryOnly;
  ofm_options.exec.costs = config_.costs;
  ofm_options.exec.charge = [this](sim::SimTime ns) { ChargeCpu(ns); };
  return std::make_unique<exec::Ofm>(
      "fixpoint#" + std::to_string(config_.index), config_.edge_schema,
      std::move(ofm_options));
}

// Handler contract (D5): a fixpoint PE consumes the recursive-query data
// plane plus the round-barrier control mail from the coordinator.
// PRISMA_HANDLES(kMailTupleBatch, kMailBatchAck, kMailFixpointStart)
// PRISMA_HANDLES(kMailFixpointRound, kMailFixpointBatchResend)
// PRISMA_HANDLES(kMailFixpointVoteResend, kMailExchangeReplyResend)
void FixpointPeProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    HandleBatch(mail);
  } else if (mail.kind == kMailBatchAck) {
    HandleAck(mail);
  } else if (mail.kind == kMailFixpointStart) {
    HandleStart(mail);
  } else if (mail.kind == kMailFixpointRound) {
    HandleRound(mail);
  } else if (mail.kind == kMailFixpointBatchResend) {
    HandleBatchResend(mail);
  } else if (mail.kind == kMailFixpointVoteResend) {
    if (replied_ || failed_ || *last_vote_ == nullptr ||
        vote_resends_left_ <= 0) {
      vote_timer_armed_ = false;
      return;
    }
    --vote_resends_left_;
    SendMail(config_.coordinator, kMailFixpointVote, *last_vote_,
             kControlBits);
    SendSelfAfter(config_.vote_resend_ns, kMailFixpointVoteResend);
  } else if (mail.kind == kMailExchangeReplyResend) {
    if (!replied_ || reply_resends_left_ <= 0) return;
    --reply_resends_left_;
    SendMail(config_.coordinator, kMailExecPlanReply, *reply_,
             (*reply_)->WireBits());
    if (reply_resends_left_ > 0) {
      SendSelfAfter(config_.reply_resend_ns, kMailExchangeReplyResend);
    }
  }
  // Unknown kinds are ignored (forward compatibility).
}

void FixpointPeProcess::HandleStart(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<FixpointStartMsg>>(mail.body);
  if (msg->fixpoint_id != config_.fixpoint_id) return;
  if (started_) return;  // Duplicated/rebroadcast start: idempotent.
  if (msg->peers.size() != config_.num_pes) return;
  *peers_ = msg->peers;
  started_ = true;
  Advance();
}

void FixpointPeProcess::HandleRound(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<FixpointRoundMsg>>(mail.body);
  if (msg->fixpoint_id != config_.fixpoint_id) return;
  if (failed_ || replied_) return;
  if (msg->harvest) {
    HandleHarvest();
    return;
  }
  // The coordinator only issues round r+1 after this PE voted for round
  // r, so anything other than the successor round is a duplicated or
  // reordered directive (a dropped one is repaired by the coordinator's
  // control-plane rebroadcast).
  if (!seeded_ || msg->round != current_round_ + 1) return;
  current_round_ = msg->round;
  absorbed_new_current_ = 0;
  exec::RoutedPairs owner;
  exec::RoutedPairs index;
  round_products_ = kernel_->JoinRound(&owner, &index);
  // Same cost formula as the single-node TC shortcut: the join products
  // dominate.
  ChargeCpu(static_cast<sim::SimTime>(round_products_) *
            config_.costs.hash_ns);
  SendRoundStreams(current_round_, std::move(owner), std::move(index));
  Advance();
}

void FixpointPeProcess::HandleBatch(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg->exchange_id != config_.fixpoint_id) return;
  if (failed_) return;  // The coordinator is already aborting the query.
  exec::InboundChannel* channel = nullptr;
  if (msg->side == 0) {
    if (msg->producer >= edge_channels_->size()) return;
    channel = &(*edge_channels_)[msg->producer];
  } else {
    if (msg->producer >= config_.num_pes) return;
    std::vector<exec::InboundChannel>& round_channels =
        (*inbound_)[msg->side];
    if (round_channels.empty()) round_channels.resize(config_.num_pes);
    channel = &round_channels[msg->producer];
  }

  exec::TupleBatch batch;
  batch.seq = msg->seq;
  batch.eos = msg->eos;
  auto rows_or = TupleBatchRows(*msg);
  if (!rows_or.ok()) {
    // An undecodable frame can never become deliverable; degrade the
    // whole fixpoint instead of stalling the peer's retry budget.
    Fail(rows_or.status());
    return;
  }
  batch.tuples = std::move(rows_or).value();
  const size_t rows = batch.tuples.size();
  if (channel->Offer(std::move(batch))) {
    ChargeCpu(static_cast<sim::SimTime>(rows) * config_.costs.tuple_ns);
    if (m_batches_received_ != nullptr) m_batches_received_->Increment();
  } else if (config_.metrics != nullptr) {
    if (m_dup_batches_ == nullptr) {
      // Registered on first duplicate so fault-free dumps are unchanged.
      m_dup_batches_ = config_.metrics->GetCounter(
          "fixpoint.dup_batches", {{"pe", std::to_string(config_.index)}});
    }
    m_dup_batches_->Increment();
  }

  // Advance first: draining moves the channel's cumulative ack point, so
  // acking afterwards covers this very batch (DESIGN.md §10.2).
  Advance();
  if (failed_) return;  // Advancing may have degraded; stop acking.

  auto ack = std::make_shared<BatchAckMsg>();
  ack->shuffle_token = msg->shuffle_token;
  ack->consumer = config_.index;
  ack->ack = channel->ack();
  ack->credit = config_.credit_window;
  SendMail(mail.from, kMailBatchAck, std::move(ack), kControlBits);
}

void FixpointPeProcess::HandleAck(const pool::Mail& mail) {
  auto msg = std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
  auto it = outbound_->find(msg->shuffle_token);
  if (it == outbound_->end()) return;  // Finished stream; stale ack.
  OutStream& out = it->second;
  out.channel.set_window(msg->credit);
  if (out.channel.OnAck(msg->ack)) {
    // Window progress: the peer is alive, so the retransmission budget
    // and backoff start over.
    out.attempts = 0;
    out.retry_delay = config_.batch_retry_ns;
  }
  PumpOut(it->first, out);
  if (out.channel.done()) outbound_->erase(it);
  // Outbound progress may complete this round's first transmissions.
  MaybeVote();
}

void FixpointPeProcess::HandleBatchResend(const pool::Mail& mail) {
  const uint64_t token = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
  auto it = outbound_->find(token);
  if (it == outbound_->end()) return;  // Stream finished; timer is moot.
  OutStream& out = it->second;
  if (++out.attempts > config_.batch_attempts) {
    Fail(UnavailableError(
        "fixpoint partition " + std::to_string(config_.index) +
        " round " + std::to_string(out.round) +
        " delta stream made no progress after " +
        std::to_string(config_.batch_attempts) + " retransmission windows"));
    return;
  }
  // Retransmit the lowest unacknowledged already-sent batch (repairs both
  // a lost batch and a lost ack), then pump in case credit is free.
  const uint64_t seq = out.channel.acked() + 1;
  if (out.channel.Sent(seq)) {
    if (const exec::TupleBatch* batch = out.channel.BatchAt(seq)) {
      SendBatchMsg(token, out, *batch, /*first=*/false);
    }
  }
  PumpOut(token, out);
  out.retry_delay =
      std::min(out.retry_delay * 2, config_.batch_backoff_cap_ns);
  SendSelfAfter(out.retry_delay, kMailFixpointBatchResend,
                std::make_shared<uint64_t>(token));
}

void FixpointPeProcess::Advance() {
  if (failed_ || replied_) return;
  DrainEdges();
  if (failed_) return;
  if (started_ && edges_done_ && !seeded_) Seed();
  DrainRounds();
  if (failed_) return;
  MaybeVote();
}

void FixpointPeProcess::DrainEdges() {
  if (edges_done_) return;
  bool all_done = true;
  for (exec::InboundChannel& channel : *edge_channels_) {
    for (exec::TupleBatch& batch : channel.TakeReady()) {
      for (const Tuple& tuple : batch.tuples) {
        const Status status = kernel_->AddEdge(tuple);
        if (!status.ok()) {
          Fail(status);
          return;
        }
      }
      // Adjacency insertion, as for build-side hash-table inserts.
      ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
                config_.costs.hash_ns);
    }
    if (!channel.done()) all_done = false;
  }
  edges_done_ = all_done;
}

void FixpointPeProcess::Seed() {
  exec::RoutedPairs owner;
  exec::RoutedPairs index;
  kernel_->Seed(&owner, &index);
  seeded_ = true;
  current_round_ = 0;
  absorbed_new_current_ = 0;
  round_products_ = 0;  // Seeding routes edges; it derives nothing.
  SendRoundStreams(0, std::move(owner), std::move(index));
}

void FixpointPeProcess::SendRoundStreams(uint64_t round,
                                         exec::RoutedPairs owner,
                                         exec::RoutedPairs index) {
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    exec::RoutedPairs& parts = copy == 0 ? owner : index;
    for (size_t peer = 0; peer < config_.num_pes; ++peer) {
      const uint64_t token = next_token_++;
      auto [it, inserted] = outbound_->emplace(
          token,
          OutStream{exec::OutboundChannel(
                        std::vector<Tuple>(parts[peer].begin(),
                                           parts[peer].end()),
                        config_.batch_rows, config_.credit_window),
                    peers_->at(peer), SideFor(round, copy), round, 0,
                    config_.batch_retry_ns});
      PRISMA_CHECK(inserted);
      PumpOut(token, it->second);
      SendSelfAfter(config_.batch_retry_ns, kMailFixpointBatchResend,
                    std::make_shared<uint64_t>(token));
    }
  }
}

void FixpointPeProcess::PumpOut(uint64_t token, OutStream& out) {
  while (const exec::TupleBatch* batch = out.channel.TakeNextToSend()) {
    SendBatchMsg(token, out, *batch, /*first=*/true);
  }
}

void FixpointPeProcess::SendBatchMsg(uint64_t token, OutStream& out,
                                     const exec::TupleBatch& batch,
                                     bool first) {
  auto msg = std::make_shared<TupleBatchMsg>();
  msg->exchange_id = config_.fixpoint_id;
  msg->side = out.side;
  msg->producer = config_.index;
  msg->shuffle_token = token;
  msg->seq = batch.seq;
  msg->eos = batch.eos;
  if (config_.columnar) {
    msg->column_frame = std::make_shared<const std::string>(
        SerializeColumnBatch(ColumnBatch::FromTuples(batch.tuples)));
  } else {
    msg->tuples = std::make_shared<std::vector<Tuple>>(batch.tuples);
  }
  const int64_t bits = msg->WireBits();
  // Marshalling cost, mirroring the receiver's per-tuple unmarshal charge.
  ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
            config_.costs.tuple_ns);
  if (first) {
    // First transmissions only: the per-round shipping-cost axis must not
    // vary with fault-plan luck beyond what the seed already fixes.
    (*wire_bits_by_round_)[out.round] += static_cast<uint64_t>(bits);
    if (m_batches_sent_ != nullptr) m_batches_sent_->Increment();
  } else if (config_.metrics != nullptr) {
    if (m_retransmits_ == nullptr) {
      m_retransmits_ = config_.metrics->GetCounter(
          "fixpoint.retransmits", {{"pe", std::to_string(config_.index)}});
    }
    m_retransmits_->Increment();
  }
  SendMail(out.peer, kMailTupleBatch, std::move(msg), bits);
}

void FixpointPeProcess::DrainRounds() {
  if (!seeded_) return;
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    auto it = inbound_->find(SideFor(current_round_, copy));
    if (it == inbound_->end()) continue;
    for (exec::InboundChannel& channel : it->second) {
      for (exec::TupleBatch& batch : channel.TakeReady()) {
        ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
                  config_.costs.hash_ns);
        if (copy == 0) {
          std::vector<Tuple> fresh;
          absorbed_new_current_ +=
              kernel_->AbsorbOwned(batch.tuples, &fresh);
          for (Tuple& tuple : fresh) {
            auto row = known_ofm_->Insert(exec::kAutoCommit,
                                          std::move(tuple));
            if (!row.ok()) {
              Fail(row.status());
              return;
            }
          }
        } else {
          kernel_->AbsorbIndex(batch.tuples);
        }
      }
    }
  }
}

bool FixpointPeProcess::InboundComplete(uint64_t round) {
  const int copies =
      config_.algorithm == exec::TcAlgorithm::kSmart ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    auto it = inbound_->find(SideFor(round, copy));
    // Every peer sends at least one (possibly empty) eos batch per round,
    // so a missing or incomplete channel set means the round is inflight.
    if (it == inbound_->end() || it->second.size() != config_.num_pes) {
      return false;
    }
    for (const exec::InboundChannel& channel : it->second) {
      if (!channel.done()) return false;
    }
  }
  return true;
}

bool FixpointPeProcess::OutboundSentComplete(uint64_t round) const {
  // Streams are erased once fully acked, so anything still present for
  // this round must at least have first-transmitted every batch (the
  // vote's wire_bits are complete and the receivers can finish).
  for (const auto& [token, out] : *outbound_) {
    (void)token;  // prisma-lint: unused-status - key only identifies the stream.
    if (out.round == round && out.channel.next_unsent() != 0) return false;
  }
  return true;
}

void FixpointPeProcess::MaybeVote() {
  if (failed_ || replied_ || !seeded_) return;
  if (voted_round_ >= static_cast<int64_t>(current_round_)) return;
  if (!InboundComplete(current_round_)) return;
  if (!OutboundSentComplete(current_round_)) return;

  auto vote = std::make_shared<FixpointVoteMsg>();
  vote->fixpoint_id = config_.fixpoint_id;
  vote->round = current_round_;
  vote->pe = config_.index;
  vote->delta_empty = kernel_->delta_empty();
  vote->absorbed_new = absorbed_new_current_;
  vote->pairs_derived = round_products_;
  auto bits = wire_bits_by_round_->find(current_round_);
  vote->wire_bits = bits == wire_bits_by_round_->end() ? 0 : bits->second;
  voted_round_ = static_cast<int64_t>(current_round_);
  *last_vote_ = vote;
  SendMail(config_.coordinator, kMailFixpointVote, vote, kControlBits);
  if (config_.vote_resend_ns > 0 && !vote_timer_armed_) {
    vote_timer_armed_ = true;
    vote_resends_left_ = config_.resend_attempts;
    SendSelfAfter(config_.vote_resend_ns, kMailFixpointVoteResend);
  }
}

void FixpointPeProcess::HandleHarvest() {
  if (replied_ || failed_) return;
  SendReply(Status::OK());
}

void FixpointPeProcess::SendReply(Status status) {
  if (replied_) return;
  replied_ = true;
  failed_ = !status.ok();
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = "fixpoint#" + std::to_string(config_.index);
  if (!failed_) {
    std::vector<Tuple> slice = kernel_->OwnedSorted();
    ChargeCpu(static_cast<sim::SimTime>(slice.size()) *
              config_.costs.tuple_ns);
    reply->tuples = std::make_shared<std::vector<Tuple>>(std::move(slice));
  }
  *reply_ = reply;
  SendMail(config_.coordinator, kMailExecPlanReply, reply,
           reply->WireBits());
  // Retransmit until the coordinator kills us at statement completion.
  if (config_.reply_resend_ns > 0 && config_.resend_attempts > 0) {
    reply_resends_left_ = config_.resend_attempts;
    SendSelfAfter(config_.reply_resend_ns, kMailExchangeReplyResend);
  }
}

void FixpointPeProcess::Fail(Status status) {
  if (failed_) return;
  if (!replied_) {
    SendReply(std::move(status));
  }
  failed_ = true;
}

}  // namespace prisma::gdh
