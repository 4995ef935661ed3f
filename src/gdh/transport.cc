#include "gdh/transport.h"

#include "common/logging.h"
#include "gdh/machine_params.h"

namespace prisma::gdh {

bool StreamSender::Stream::done() const {
  return std::all_of(channels.begin(), channels.end(),
                     [](const Channel& c) { return c.channel.done(); });
}

bool StreamSender::Stream::sent() const {
  return std::all_of(channels.begin(), channels.end(), [](const Channel& c) {
    return c.channel.next_unsent() == 0;
  });
}

const StreamSender::Stream& StreamSender::Open(Stream stream) {
  const uint64_t token = stream.token;
  stream.delay = options_.policy.timeout_ns;
  auto [it, inserted] = streams_.emplace(token, std::move(stream));
  PRISMA_CHECK(inserted) << "stream token " << token << " reused";
  Pump(it->second);
  Arm(it->second);
  return it->second;
}

const StreamSender::Stream* StreamSender::OnAck(const BatchAckMsg& ack) {
  auto it = streams_.find(ack.shuffle_token);
  if (it == streams_.end()) return nullptr;
  Stream& stream = it->second;
  // A single-channel stream takes every ack (fixpoint peers stamp their
  // own index); a multi-channel one is indexed by consumer.
  const size_t index = stream.channels.size() == 1 ? 0 : ack.consumer;
  if (index >= stream.channels.size()) return nullptr;
  exec::OutboundChannel& channel = stream.channels[index].channel;
  channel.set_window(ack.credit);
  bool rearm = false;
  if (channel.OnAck(ack.ack)) {
    // Window progress: the peer is alive, so budget and backoff restart.
    // A backed-off timer is pulled in to the base timeout; one never
    // backed off (every fault-free stream) is left as it is.
    rearm = stream.delay != options_.policy.timeout_ns;
    stream.attempts = 0;
    stream.delay = options_.policy.timeout_ns;
  }
  Pump(stream);
  // The fault-free backoff is seconds-scale: a live timer would pad every
  // drain-to-empty makespan by that much.
  if (stream.done()) {
    Disarm(stream);
  } else if (rearm) {
    Disarm(stream);
    Arm(stream);
  }
  return &stream;
}

bool StreamSender::OnTimer(const pool::Mail& mail) {
  const uint64_t token = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
  auto it = streams_.find(token);
  if (it == streams_.end()) return false;
  Stream& stream = it->second;
  stream.timer = 0;
  if (++stream.attempts > options_.policy.attempts) {
    options_.on_exhausted(stream);
    return true;
  }
  for (const Channel& c : stream.channels) {
    const uint64_t seq = c.channel.acked() + 1;
    // Batches never sent are Pump's job.
    if (c.channel.done() || !c.channel.Sent(seq)) continue;
    if (options_.retransmits != nullptr) {
      if (m_retransmits_ == nullptr) m_retransmits_ = options_.retransmits();
      m_retransmits_->Increment();
    }
    Transmit(stream, c, *c.channel.BatchAt(seq), /*first=*/false);
  }
  Pump(stream);
  stream.delay = options_.policy.Backoff(stream.delay);
  Arm(stream);
  return true;
}

void StreamSender::Close(uint64_t token) {
  auto it = streams_.find(token);
  if (it == streams_.end()) return;
  Disarm(it->second);
  for (const Channel& c : it->second.channels) {
    if (c.credit_gauge != nullptr) c.credit_gauge->Set(0);
  }
  streams_.erase(it);
}

void StreamSender::CloseAll() {
  while (!streams_.empty()) Close(streams_.begin()->first);
}

const StreamSender::Stream* StreamSender::Find(uint64_t token) const {
  auto it = streams_.find(token);
  return it == streams_.end() ? nullptr : &it->second;
}

void StreamSender::Pump(Stream& stream) {
  for (Channel& c : stream.channels) {
    bool sent = false;
    while (const exec::TupleBatch* batch = c.channel.TakeNextToSend()) {
      Transmit(stream, c, *batch, /*first=*/true);
      sent = true;
    }
    // A drain that halted at the window edge (rather than running out of
    // batches) is one stall event: the pipeline now waits on acks.
    if (sent && c.channel.Stalled() && stream.stalls != nullptr) {
      stream.stalls->Increment();
    }
    if (c.credit_gauge != nullptr) {
      c.credit_gauge->Set(static_cast<int64_t>(c.channel.credit()));
    }
  }
}

void StreamSender::Transmit(Stream& stream, const Channel& channel,
                            const exec::TupleBatch& batch, bool first) {
  auto msg = std::make_shared<TupleBatchMsg>();
  msg->exchange_id = stream.exchange_id;
  msg->side = stream.side;
  msg->producer = stream.producer;
  msg->shuffle_token = stream.token;
  msg->seq = batch.seq;
  msg->eos = batch.eos;
  msg->rows = EncodeRows(batch.tuples);
  const int64_t bits = msg->WireBits();
  owner_->ChargeCpu(static_cast<sim::SimTime>(batch.tuples.size()) *
                    owner_->runtime()->costs().tuple_ns);
  if (first) stream.first_bits += static_cast<uint64_t>(bits);
  if (options_.on_send != nullptr) options_.on_send(stream, bits, first);
  owner_->SendMail(channel.to, kMailTupleBatch, std::move(msg), bits);
}

void StreamSender::Arm(Stream& stream) {
  stream.timer = owner_->SendSelfAfter(stream.delay, options_.resend_kind,
                                       std::make_shared<uint64_t>(stream.token));
}

void StreamSender::Disarm(Stream& stream) {
  if (stream.timer == 0) return;
  owner_->runtime()->simulator()->Cancel(stream.timer);
  stream.timer = 0;
}

StreamReceiver::Options ConsumerOptions(uint64_t exchange_id, size_t consumer,
                                        const MachineParams& machine,
                                        obs::Labels labels, bool fixpoint) {
  StreamReceiver::Options options;
  options.exchange_id = exchange_id;
  options.consumer = consumer;
  options.credit_window = machine.exchange_credit_window;
  obs::MetricsRegistry* metrics = machine.metrics;
  if (metrics == nullptr) return options;
  options.received =
      fixpoint ? metrics->GetCounter("fixpoint.batches_received", labels)
               : metrics->GetCounter("exchange.batches_received", labels);
  options.dups = [metrics, labels = std::move(labels), fixpoint] {
    return fixpoint ? metrics->GetCounter("fixpoint.dup_batches", labels)
                    : metrics->GetCounter("exchange.dup_batches", labels);
  };
  return options;
}

void StreamReceiver::Expect(int side, size_t producers) {
  sides_[side].resize(producers);
}

Status StreamReceiver::Receive(const pool::Mail& mail, const Sink& sink) {
  const auto& msg = *std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
  if (msg.exchange_id != options_.exchange_id) return Status::OK();
  auto it = sides_.find(msg.side);
  if (it == sides_.end()) {
    if (other_producers_ == 0) return Status::OK();
    it = sides_.emplace(msg.side, other_producers_).first;
  }
  if (msg.producer >= it->second.size()) return Status::OK();
  exec::InboundChannel& channel = it->second[msg.producer];
  auto rows = TupleBatchRows(msg.rows);
  if (!rows.ok()) return rows.status();
  const size_t count = rows->size();
  if (channel.Offer({msg.seq, msg.eos, std::move(rows).value()})) {
    // Unmarshalling, as for gathered reply tuples.
    owner_->ChargeCpu(static_cast<sim::SimTime>(count) *
                      owner_->runtime()->costs().tuple_ns);
    if (options_.received != nullptr) options_.received->Increment();
  } else if (options_.dups != nullptr) {
    if (m_dups_ == nullptr) m_dups_ = options_.dups();
    m_dups_->Increment();
  }
  std::vector<exec::TupleBatch> ready = channel.TakeReady();
  if (!ready.empty()) {
    Delivery delivery{msg.side, msg.producer, std::move(ready[0].tuples)};
    for (size_t i = 1; i < ready.size(); ++i) {
      delivery.rows.insert(delivery.rows.end(),
                           std::make_move_iterator(ready[i].tuples.begin()),
                           std::make_move_iterator(ready[i].tuples.end()));
    }
    RETURN_IF_ERROR(sink(delivery));
  }
  auto ack = std::make_shared<BatchAckMsg>();
  ack->shuffle_token = msg.shuffle_token;
  ack->consumer = options_.consumer;
  ack->ack = channel.ack();
  ack->credit = options_.credit_window;
  owner_->SendMail(mail.from, kMailBatchAck, std::move(ack), kControlBits);
  return Status::OK();
}

bool StreamReceiver::Done(int side) const {
  auto it = sides_.find(side);
  return it != sides_.end() &&
         std::all_of(it->second.begin(), it->second.end(),
                     [](const exec::InboundChannel& c) { return c.done(); });
}

bool StreamReceiver::Done(int side, size_t producer) const {
  auto it = sides_.find(side);
  return it != sides_.end() && producer < it->second.size() &&
         it->second[producer].done();
}

void StreamReceiver::Reset() {
  for (auto& side : sides_) {
    side.second.assign(side.second.size(), exec::InboundChannel());
  }
}

void Resender::Send(std::any body, int64_t size_bits) {
  body_ = std::move(body);
  size_bits_ = size_bits;
  owner_->SendMail(to_, kind_, body_, size_bits_);
  if (resend_ns_ > 0 && left_ == 0) {
    left_ = budget_;
    owner_->SendSelfAfter(resend_ns_, timer_kind_);
  }
}

void Resender::OnTimer() {
  if (!body_.has_value()) {
    left_ = 0;
    return;
  }
  owner_->SendMail(to_, kind_, body_, size_bits_);
  if (--left_ > 0) owner_->SendSelfAfter(resend_ns_, timer_kind_);
}

void SendConsumerReply(Resender& reply, uint64_t request_id,
                       std::string fragment, Status status,
                       std::span<const Tuple> rows) {
  auto msg = std::make_shared<ExecPlanReply>();
  msg->request_id = request_id;
  msg->fragment = std::move(fragment);
  if (status.ok()) msg->rows = EncodeRows(rows);
  msg->status = std::move(status);
  reply.Send(msg, msg->WireBits());
}

}  // namespace prisma::gdh
