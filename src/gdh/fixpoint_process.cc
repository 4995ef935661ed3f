#include "gdh/fixpoint_process.h"

#include <algorithm>
#include <any>
#include <utility>

#include "common/logging.h"

namespace prisma::gdh {

// Everything a batch needs is built here rather than in OnStart: a batch
// can be handled before the spawn handler runs, and must find its channel.
FixpointPeProcess::FixpointPeProcess(Config config)
    : config_(std::move(config)),
      kernel_(std::make_unique<exec::FixpointPartition>(
          config_.algorithm, config_.num_pes, config_.index)),
      edge_channels_(
          std::vector<exec::InboundChannel>(config_.edge_producers)),
      out_(this, OutOptions()),
      in_(this, InOptions()),
      reply_(this, config_.coordinator, kMailExecPlanReply,
             kMailExchangeReplyResend, config_.retransmit.resend_ns),
      vote_(this, config_.coordinator, kMailFixpointVote,
            kMailFixpointVoteResend, config_.retransmit.resend_ns) {
  PRISMA_CHECK(config_.num_pes > 0);
  PRISMA_CHECK(config_.index < config_.num_pes);
  if (config_.metrics != nullptr) {
    m_batches_sent_ = config_.metrics->GetCounter(
        "fixpoint.batches_sent", {{"pe", std::to_string(config_.index)}});
  }
}

StreamSender::Options FixpointPeProcess::OutOptions() {
  StreamSender::Options options;
  options.resend_kind = kMailFixpointBatchResend;
  options.policy = config_.retransmit;
  options.tuple_ns = config_.costs.tuple_ns;
  options.on_send = [this](const StreamSender::Stream& stream, int64_t bits,
                           bool first) {
    if (!first) return;
    // First transmissions only: the per-round shipping-cost axis must not
    // vary with fault-plan luck beyond what the seed already fixes.
    (*wire_bits_by_round_)[stream.tag] += static_cast<uint64_t>(bits);
    if (m_batches_sent_ != nullptr) m_batches_sent_->Increment();
  };
  options.on_exhausted = [this](const StreamSender::Stream& stream) {
    Fail(UnavailableError(
        "fixpoint partition " + std::to_string(config_.index) + " round " +
        std::to_string(stream.tag) +
        " delta stream made no progress after " +
        std::to_string(config_.retransmit.attempts) +
        " retransmission windows"));
  };
  if (config_.metrics != nullptr) {
    options.retransmits = [this] {
      return config_.metrics->GetCounter(
          "fixpoint.retransmits", {{"pe", std::to_string(config_.index)}});
    };
  }
  return options;
}

StreamReceiver::Options FixpointPeProcess::InOptions() {
  StreamReceiver::Options options;
  options.consumer = config_.index;
  options.credit_window = config_.credit_window;
  options.tuple_ns = config_.costs.tuple_ns;
  if (config_.metrics != nullptr) {
    options.received = config_.metrics->GetCounter(
        "fixpoint.batches_received", {{"pe", std::to_string(config_.index)}});
    options.dups = [this] {
      return config_.metrics->GetCounter(
          "fixpoint.dup_batches", {{"pe", std::to_string(config_.index)}});
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
    HandleBatch(mail);
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

  const Status status = in_.Offer(*msg, *channel);
  if (!status.ok()) {
    // An undecodable frame can never become deliverable; degrade the
    // whole fixpoint instead of stalling the peer's retry budget.
    Fail(status);
    return;
  }
  // Advance first: draining moves the channel's cumulative ack point, so
  // acking afterwards covers this very batch (DESIGN.md §10.2).
  Advance();
  if (failed_) return;  // Advancing may have degraded; stop acking.
  in_.Ack(mail.from, msg->shuffle_token, *channel);
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
      StreamSender::Stream stream;
      stream.exchange_id = config_.fixpoint_id;
      stream.side = SideFor(round, copy);
      stream.producer = config_.index;
      stream.token = next_token_++;
      stream.channels.push_back(
          {exec::OutboundChannel(
               std::vector<Tuple>(parts[peer].begin(), parts[peer].end()),
               config_.batch_rows, config_.credit_window),
           peers_->at(peer), nullptr});
      stream.tag = round;
      out_.Open(std::move(stream));
    }
  }
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
          absorbed_new_current_ += kernel_->AbsorbOwned(batch.tuples);
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
  // Resent until the coordinator advances (the next vote replaces it) or
  // this partition replies.
  vote_.Send(vote, kControlBits);
}

void FixpointPeProcess::HandleHarvest() {
  if (reply_.sent() || failed_) return;
  SendReply(Status::OK());
}

void FixpointPeProcess::SendReply(Status status) {
  if (reply_.sent()) return;
  failed_ = !status.ok();
  // Quiet when done: at the harvest every peer already holds every batch
  // (each voted its inbound complete), and a failing fixpoint is aborted
  // by the coordinator — no stream timer may outlive this reply.
  out_.CloseAll();
  vote_.Stop();
  auto reply = std::make_shared<ExecPlanReply>();
  reply->request_id = config_.reply_request_id;
  reply->status = std::move(status);
  reply->fragment = "fixpoint#" + std::to_string(config_.index);
  if (!failed_) {
    std::vector<Tuple> slice = kernel_->OwnedSorted();
    ChargeCpu(static_cast<sim::SimTime>(slice.size()) *
              config_.costs.tuple_ns);
    reply->rows = EncodeRows(slice);
  }
  reply_.Send(reply, reply->WireBits());
}

void FixpointPeProcess::Fail(Status status) {
  if (failed_) return;
  SendReply(std::move(status));
  failed_ = true;
}

}  // namespace prisma::gdh
