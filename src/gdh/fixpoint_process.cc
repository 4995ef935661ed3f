#include "gdh/fixpoint_process.h"

#include <algorithm>
#include <any>
#include <set>
#include <utility>

#include "common/logging.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
FixpointPeProcess::FixpointPeProcess(Config config)
    : config_(std::move(config)),
      kernel_(std::make_unique<exec::FixpointPartition>(
          config_.machine.fixpoint_algorithm, config_.num_pes,
          config_.index)),
      out_(this, OutOptions()),
      in_(this, ConsumerOptions(config_.fixpoint_id, config_.index,
                                config_.machine,
                                {{"pe", std::to_string(config_.index)}},
                                /*fixpoint=*/true)),
      reply_(this, config_.coordinator, kMailExecPlanReply,
             kMailExchangeReplyResend, config_.machine.retransmit.resend_ns),
      vote_(this, config_.coordinator, kMailFixpointVote,
            kMailFixpointVoteResend, config_.machine.retransmit.resend_ns) {
  PRISMA_CHECK(config_.num_pes > 0);
  PRISMA_CHECK(config_.index < config_.num_pes);
  in_.Expect(0, config_.edge_producers);
  in_.ExpectOthers(config_.num_pes);  // Round sides: one per partition.
  if (config_.machine.metrics != nullptr) {
    m_batches_sent_ = config_.machine.metrics->GetCounter(
        "fixpoint.batches_sent", {{"pe", std::to_string(config_.index)}});
  }
}

StreamSender::Options FixpointPeProcess::OutOptions() {
  StreamSender::Options options;
  options.resend_kind = kMailFixpointBatchResend;
  options.policy = config_.machine.retransmit;
  options.on_send = [this](const StreamSender::Stream& stream, int64_t bits,
                           bool first) {
    if (!first) return;
    // First transmissions only: the per-round shipping-cost axis must not
    // vary with fault-plan luck beyond what the seed already fixes. The
    // result streams are the harvest, not shipping between partitions.
    uint64_t& total = stream.side < 0 ? result_bits_
                                      : (*wire_bits_by_round_)[stream.tag];
    total += static_cast<uint64_t>(bits);
    if (m_batches_sent_ != nullptr) m_batches_sent_->Increment();
  };
  options.on_exhausted = [this](const StreamSender::Stream& stream) {
    Fail(UnavailableError(
        "fixpoint partition " + std::to_string(config_.index) + " round " +
        std::to_string(stream.tag) +
        (stream.side < 0 ? " result" : " delta") +
        " stream made no progress after " +
        std::to_string(config_.machine.retransmit.attempts) +
        " retransmission windows"));
  };
  if (config_.machine.metrics != nullptr) {
    options.retransmits = [this] {
      return config_.machine.metrics->GetCounter(
          "fixpoint.retransmits", {{"pe", std::to_string(config_.index)}});
    };
  }
  return options;
}

// Handler contract (D5): a fixpoint PE consumes the recursive-query data
// plane plus the round-barrier control mail from the coordinator.
// PRISMA_HANDLES(kMailTupleBatch, kMailBatchAck, kMailFixpointStart)
// PRISMA_HANDLES(kMailFixpointRound, kMailFixpointBatchResend)
// PRISMA_HANDLES(kMailFixpointVoteResend, kMailExchangeReplyResend)
void FixpointPeProcess::OnMail(const pool::Mail& mail) {
  if (mail.kind == kMailTupleBatch) {
    // Once failed, the coordinator is already aborting the query.
    if (failed_) return;
    const Status status =
        in_.Receive(mail, [this](StreamReceiver::Delivery& delivery) {
          RETURN_IF_ERROR(Take(delivery));
          Advance();
          return Status::OK();
        });
    // An undecodable frame or edge can never be absorbed: degrade the
    // whole fixpoint instead of stalling the peer's retry budget.
    if (!status.ok()) Fail(status);
  } else if (mail.kind == kMailBatchAck) {
    HandleAck(mail);
  } else if (mail.kind == kMailFixpointStart) {
    HandleStart(mail);
  } else if (mail.kind == kMailFixpointRound) {
    HandleRound(mail);
  } else if (mail.kind == kMailFixpointBatchResend) {
    out_.OnTimer(mail);
  } else if (mail.kind == kMailFixpointVoteResend) {
    vote_.OnTimer();
  } else if (mail.kind == kMailExchangeReplyResend) {
    reply_.OnTimer();
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
  if (failed_ || reply_.sent()) return;
  if (msg->harvest) {
    SendReply(Status::OK());
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
            runtime()->costs().hash_ns);
  SendRoundStreams(current_round_, std::move(owner), std::move(index));
  Advance();
}

Status FixpointPeProcess::Take(StreamReceiver::Delivery& delivery) {
  if (delivery.side != 0) {
    std::vector<Tuple>& held = (*held_)[delivery.side];
    held.insert(held.end(), std::make_move_iterator(delivery.rows.begin()),
                std::make_move_iterator(delivery.rows.end()));
    return Status::OK();
  }
  for (const Tuple& tuple : delivery.rows) {
    RETURN_IF_ERROR(kernel_->AddEdge(tuple));
  }
  // Adjacency insertion, as for build-side hash-table inserts.
  ChargeCpu(static_cast<sim::SimTime>(delivery.rows.size()) *
            runtime()->costs().hash_ns);
  return Status::OK();
}

void FixpointPeProcess::HandleAck(const pool::Mail& mail) {
  const BatchAckMsg& ack =
      *std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
  const StreamSender::Stream* stream = out_.OnAck(ack);
  if (stream == nullptr) return;  // Closed stream; stale ack.
  if (stream->done()) out_.Close(ack.shuffle_token);
  // Outbound progress may complete this round's first transmissions.
  MaybeVote();
}

void FixpointPeProcess::Advance() {
  if (failed_ || reply_.sent()) return;
  if (started_ && !seeded_ && in_.Done(0)) Seed();
  AbsorbRound();
  MaybeVote();
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
  for (int copy = 0; copy < copies(); ++copy) {
    exec::RoutedPairs& parts = copy == 0 ? owner : index;
    for (size_t peer = 0; peer < config_.num_pes; ++peer) {
      StreamSender::Stream stream;
      stream.exchange_id = config_.fixpoint_id;
      stream.side = SideFor(round, copy);
      stream.producer = config_.index;
      stream.token = next_token_++;
      stream.channels.push_back(
          {exec::OutboundChannel(
               std::vector<Tuple>(parts[peer].begin(), parts[peer].end()),
               config_.machine.exchange_batch_rows,
               config_.machine.exchange_credit_window),
           peers_->at(peer), nullptr});
      stream.tag = round;
      out_.Open(std::move(stream));
    }
  }
}

void FixpointPeProcess::StreamResult(uint64_t round) {
  const std::set<Tuple>& fresh = kernel_->delta();
  StreamSender::Stream stream;
  stream.exchange_id = config_.fixpoint_id;
  stream.side = ResultSide(round);
  stream.producer = config_.index;
  stream.token = next_token_++;
  stream.channels.push_back(
      {exec::OutboundChannel(std::vector<Tuple>(fresh.begin(), fresh.end()),
                             config_.machine.exchange_batch_rows,
                             kResultWindow),
       config_.coordinator, nullptr});
  // Its round has voted, so the tag never holds a vote back.
  stream.tag = round;
  out_.Open(std::move(stream));
}

void FixpointPeProcess::AbsorbRound() {
  if (!seeded_) return;
  for (int copy = 0; copy < copies(); ++copy) {
    auto it = held_->find(SideFor(current_round_, copy));
    if (it == held_->end()) continue;
    ChargeCpu(static_cast<sim::SimTime>(it->second.size()) *
              runtime()->costs().hash_ns);
    if (copy == 0) {
      absorbed_new_current_ += kernel_->AbsorbOwned(it->second);
    } else {
      kernel_->AbsorbIndex(it->second);
    }
    held_->erase(it);
  }
}

bool FixpointPeProcess::OutboundSentComplete(uint64_t round) const {
  // Streams are closed once fully acked, so anything still open for this
  // round must at least have first-transmitted every batch (the vote's
  // wire_bits are complete and the receivers can finish).
  for (const auto& [token, stream] : out_.streams()) {
    (void)token;  // prisma-lint: unused-status - key only identifies the stream.
    if (stream.tag == round && !stream.sent()) return false;
  }
  return true;
}

void FixpointPeProcess::MaybeVote() {
  if (failed_ || reply_.sent() || !seeded_) return;
  if (voted_round_ >= static_cast<int64_t>(current_round_)) return;
  // Every peer sends at least one (possibly empty) eos batch per round.
  for (int copy = 0; copy < copies(); ++copy) {
    if (!in_.Done(SideFor(current_round_, copy))) return;
  }
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
  // Resent until the coordinator advances (the next vote replaces it) or
  // this partition replies.
  vote_.Send(vote, kControlBits);
  // The vote goes first; the result fills the links while the barrier
  // and the next round run. A vote with nothing new announces no stream.
  if (absorbed_new_current_ > 0) StreamResult(current_round_);
}

void FixpointPeProcess::SendReply(Status status) {
  if (reply_.sent()) return;
  failed_ = !status.ok();
  // Quiet when done: at the harvest every peer already holds every batch
  // (each voted its inbound complete) and the coordinator every result
  // batch (it harvests only then), and a failing fixpoint is aborted by
  // the coordinator — no stream timer may outlive this reply.
  out_.CloseAll();
  vote_.Stop();
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->fragment = "fixpoint#" + std::to_string(config_.index);
  reply->status = std::move(status);
  reply->shuffle_wire_bits = result_bits_;
  reply_.Send(reply, reply->WireBits());
}

void FixpointPeProcess::Fail(Status status) {
  if (failed_) return;
  SendReply(std::move(status));
  failed_ = true;
}

}  // namespace prisma::gdh
