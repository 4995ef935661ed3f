// The retransmitting transport (gdh/transport.h) in isolation: two PEs, a
// producer and a consumer process built directly on StreamSender and
// StreamReceiver, a client built on RpcClient, a notifier built on
// Resender, and a FaultPlan that loses exactly the messages a test names.

#include "gdh/transport.h"

#include <gtest/gtest.h>

#include <any>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/metrics.h"
#include "pool/runtime.h"
#include "sim/simulator.h"

namespace prisma::gdh {
namespace {

constexpr sim::SimTime kTimeout = sim::kNanosPerSecond;

RetransmitPolicy TestPolicy(int attempts = 4) {
  RetransmitPolicy policy;
  policy.timeout_ns = kTimeout;
  policy.backoff_cap_ns = 4 * kTimeout;
  policy.attempts = attempts;
  return policy;
}

/// Two PEs whose link loses every message `lose` picks; everything else
/// is delivered.
struct Machine {
  sim::Simulator sim;
  net::Network network{&sim, net::Topology::FullyConnected(2)};
  pool::Runtime runtime{&sim, &network};
  obs::MetricsRegistry metrics;
  std::function<bool(const pool::Mail&)> lose = [](const pool::Mail&) {
    return false;
  };

  Machine() {
    net::FaultPlan plan;
    plan.link.drop_probability = 1.0;
    network.SetFaultPlan(plan);
    network.SetFaultExempt([this](const net::Message& message) {
      const auto* mail =
          std::any_cast<std::shared_ptr<pool::Mail>>(&message.payload);
      return mail == nullptr || !lose(**mail);
    });
  }

  /// Loses the first `count` mails of `kind`.
  void LoseFirst(std::string kind, int count = 1) {
    auto left = std::make_shared<int>(count);
    lose = [kind = std::move(kind), left](const pool::Mail& mail) {
      if (mail.kind != kind || *left == 0) return false;
      --*left;
      return true;
    };
  }

  uint64_t Retransmits() const {
    return metrics.CounterValue("exchange.retransmits");
  }
};

std::vector<Tuple> Rows(int n) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) rows.push_back(Tuple({Value::Int(i)}));
  return rows;
}

/// Receives exchange 1 on `sides` sides of `producers` producers each,
/// recording every delivery, every Receive status and, after each batch,
/// whether sides 0 and 1 are done.
class Consumer : public pool::Process {
 public:
  explicit Consumer(Machine* m, int sides = 1, size_t producers = 1)
      : receiver_(this, Options(m)) {
    for (int side = 0; side < sides; ++side) {
      receiver_.Expect(side, producers);
    }
  }

  void OnMail(const pool::Mail& mail) override {
    if (mail.kind != kMailTupleBatch) return;
    statuses_.push_back(
        receiver_.Receive(mail, [this](StreamReceiver::Delivery& delivery) {
          deliveries_.push_back(delivery);
          rows_.insert(rows_.end(), delivery.rows.begin(),
                       delivery.rows.end());
          return Status::OK();
        }));
    done_.emplace_back(receiver_.Done(0), receiver_.Done(1));
  }

  const std::vector<Tuple>& rows() const { return rows_; }
  const std::vector<StreamReceiver::Delivery>& deliveries() const {
    return deliveries_;
  }
  const std::vector<Status>& statuses() const { return statuses_; }
  const std::vector<std::pair<bool, bool>>& done() const { return done_; }

 private:
  static StreamReceiver::Options Options(Machine* m) {
    StreamReceiver::Options options;
    options.exchange_id = 1;
    options.credit_window = 4;
    options.received = m->metrics.GetCounter("exchange.batches_received");
    options.dups = [m] {
      return m->metrics.GetCounter("exchange.dup_batches");
    };
    return options;
  }

  StreamReceiver receiver_;
  std::vector<Tuple> rows_;
  std::vector<StreamReceiver::Delivery> deliveries_;
  std::vector<Status> statuses_;
  std::vector<std::pair<bool, bool>> done_;
};

/// Streams `rows` to one consumer in batches of two. It never closes the
/// stream itself, so a finished stream's timer state stays observable.
class Producer : public pool::Process {
 public:
  static constexpr uint64_t kToken = 7;

  Producer(Machine* m, pool::ProcessId consumer, std::vector<Tuple> rows,
           RetransmitPolicy policy)
      : consumer_(consumer),
        rows_(std::move(rows)),
        sender_(this, MakeOptions(m, policy)) {}

  void OnStart() override {
    StreamSender::Stream stream;
    stream.exchange_id = 1;
    stream.token = kToken;
    stream.channels.push_back(
        {exec::OutboundChannel(rows_, 2, 4), consumer_, nullptr});
    sender_.Open(std::move(stream));
  }

  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == kMailBatchAck) {
      const auto& ack = *std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
      sender_.OnAck(ack);
    } else if (mail.kind == kMailBatchResend) {
      sender_.OnTimer(mail);
    }
  }

  const StreamSender& sender() const { return sender_; }
  int exhausted() const { return exhausted_; }

 private:
  StreamSender::Options MakeOptions(Machine* m, RetransmitPolicy policy) {
    StreamSender::Options options;
    options.policy = policy;
    options.on_exhausted = [this](const StreamSender::Stream& stream) {
      ++exhausted_;
      sender_.Close(stream.token);
    };
    options.retransmits = [m] {
      return m->metrics.GetCounter("exchange.retransmits");
    };
    return options;
  }

  pool::ProcessId consumer_;
  std::vector<Tuple> rows_;
  StreamSender sender_;
  int exhausted_ = 0;
};

struct StreamRun {
  Consumer* consumer = nullptr;
  Producer* producer = nullptr;
};

StreamRun StartStream(Machine* m, int rows, int attempts = 4) {
  StreamRun run;
  auto consumer = std::make_unique<Consumer>(m);
  run.consumer = consumer.get();
  const pool::ProcessId consumer_pid = m->runtime.Spawn(1, std::move(consumer));
  auto producer = std::make_unique<Producer>(m, consumer_pid, Rows(rows),
                                             TestPolicy(attempts));
  run.producer = producer.get();
  m->runtime.Spawn(0, std::move(producer));
  return run;
}

TEST(StreamSenderTest, LostBatchIsRepairedByTheLowestUnackedRetransmission) {
  Machine m;
  auto lost = std::make_shared<bool>(false);
  m.lose = [lost](const pool::Mail& mail) {  // Batch 2, first time only.
    if (mail.kind != kMailTupleBatch || *lost) return false;
    const auto& msg = *std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
    *lost = msg.seq == 2;
    return *lost;
  };
  const StreamRun run = StartStream(&m, 6);
  m.sim.Run();
  // Batch 3 waited in the reorder buffer; one retransmission of batch 2
  // released both.
  EXPECT_EQ(run.consumer->rows(), Rows(6));
  EXPECT_EQ(m.Retransmits(), 1u);
  EXPECT_EQ(m.metrics.CounterValue("exchange.dup_batches"), 0u);
  EXPECT_TRUE(run.producer->sender().Find(Producer::kToken)->done());
  EXPECT_EQ(run.producer->exhausted(), 0);
}

TEST(StreamSenderTest, LostAckIsRepairedByAReAckedDuplicate) {
  Machine m;
  m.LoseFirst(kMailBatchAck);
  const StreamRun run = StartStream(&m, 2);  // One batch, eos.
  m.sim.Run();
  EXPECT_EQ(run.consumer->rows(), Rows(2));
  EXPECT_EQ(m.Retransmits(), 1u);
  // The retransmitted batch was a duplicate; its re-ack finished the
  // stream.
  EXPECT_EQ(m.metrics.CounterValue("exchange.dup_batches"), 1u);
  EXPECT_TRUE(run.producer->sender().Find(Producer::kToken)->done());
}

TEST(StreamSenderTest, SilentWindowsReportExhaustionExactlyOnce) {
  Machine m;
  m.lose = [](const pool::Mail& mail) { return mail.kind == kMailTupleBatch; };
  const StreamRun run = StartStream(&m, 4, /*attempts=*/3);
  m.sim.Run();
  EXPECT_EQ(run.producer->exhausted(), 1);
  // Three silent windows retransmitted (1 s, then 2 s, then 4 s later);
  // the fourth firing spent the budget.
  EXPECT_EQ(m.Retransmits(), 3u);
  EXPECT_EQ(m.sim.now() / kTimeout, 1 + 2 + 4 + 4);
  EXPECT_EQ(run.producer->sender().Find(Producer::kToken), nullptr);
  EXPECT_TRUE(run.consumer->rows().empty());
}

TEST(StreamSenderTest, ProgressAfterBackoffRearmsAtTheBaseTimeout) {
  // Six batches, a window of four. Batch 1 is lost twice, so the timer
  // backs off (resends at 1 s and 3 s); the 3 s resend lands and its ack
  // opens the window for batches 5 and 6. Batch 5 is lost once: its
  // resend must come one base timeout after that progress, not at the
  // backed-off 7 s.
  Machine m;
  auto sent = std::make_shared<std::map<uint64_t, std::vector<sim::SimTime>>>();
  m.lose = [&m, sent](const pool::Mail& mail) {
    if (mail.kind != kMailTupleBatch) return false;
    const auto& msg = *std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
    std::vector<sim::SimTime>& times = (*sent)[msg.seq];
    times.push_back(m.sim.now());
    return (msg.seq == 1 && times.size() <= 2) ||
           (msg.seq == 5 && times.size() == 1);
  };
  const StreamRun run = StartStream(&m, 12);
  m.sim.Run();
  EXPECT_EQ(run.consumer->rows(), Rows(12));
  EXPECT_EQ(run.producer->exhausted(), 0);
  // Times are link entries, a few microseconds after each handler.
  constexpr sim::SimTime kSlack = kTimeout / 1000;
  ASSERT_EQ((*sent)[1].size(), 3u);
  EXPECT_NEAR((*sent)[1][2] - (*sent)[1][1], 2 * kTimeout, kSlack);
  ASSERT_EQ((*sent)[5].size(), 2u);
  // First sent on the progress ack, a round trip after the 3 s resend;
  // resent one base timeout later.
  EXPECT_NEAR((*sent)[5][0], (*sent)[1][2], kSlack);
  EXPECT_NEAR((*sent)[5][1] - (*sent)[5][0], kTimeout, kSlack);
  EXPECT_EQ(m.Retransmits(), 3u);
  EXPECT_EQ(run.producer->sender().Find(Producer::kToken)->timer, 0u);
}

TEST(StreamSenderTest, CompletionLeavesNoPendingTimer) {
  Machine m;
  const StreamRun run = StartStream(&m, 6);
  m.sim.Run();
  const StreamSender::Stream* stream =
      run.producer->sender().Find(Producer::kToken);
  ASSERT_NE(stream, nullptr);  // Still open: completion alone disarmed it.
  EXPECT_TRUE(stream->done());
  EXPECT_EQ(stream->timer, 0u);
  EXPECT_EQ(m.sim.events_cancelled(), 1u);
  // The queue drained at the last ack, not at the timer's instant.
  EXPECT_LT(m.sim.now(), kTimeout);
  EXPECT_EQ(m.Retransmits(), 0u);
  // Three first transmissions of two rows each, as column frames;
  // nothing was resent.
  const std::vector<Tuple> rows = Rows(6);
  int64_t frames_bits = 0;
  for (size_t at = 0; at < rows.size(); at += 2) {
    frames_bits += kControlBits +
                   FrameBits(EncodeRows(std::span(rows).subspan(at, 2)));
  }
  EXPECT_EQ(stream->first_bits, static_cast<uint64_t>(frames_bits));
}

// ---------------------------------------------------------- StreamReceiver

constexpr char kFeed[] = "feed";

/// One batch of exchange 1 as a producer would frame it; its row is
/// side·100 + producer·10 + seq, and `cut` halves the frame so it no
/// longer decodes.
struct Scripted {
  int side = 0;
  size_t producer = 0;
  uint64_t seq = 1;
  bool eos = false;
  bool cut = false;
};

uint64_t TokenOf(int side, size_t producer) {
  return static_cast<uint64_t>(side) * 10 + producer + 1;
}

Tuple RowOf(int side, size_t producer, uint64_t seq) {
  return Tuple({Value::Int(side * 100 + static_cast<int64_t>(producer) * 10 +
                           static_cast<int64_t>(seq))});
}

/// Sends a script of batches one millisecond apart, in script order, and
/// records every ack as (token, ack).
class Feeder : public pool::Process {
 public:
  Feeder(pool::ProcessId to, std::vector<Scripted> script)
      : to_(to), script_(std::move(script)) {}

  void OnStart() override {
    for (size_t i = 0; i < script_.size(); ++i) {
      SendSelfAfter(static_cast<sim::SimTime>(i + 1) * sim::kNanosPerMilli,
                    kFeed, i);
    }
  }

  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == kMailBatchAck) {
      const auto& ack = *std::any_cast<std::shared_ptr<BatchAckMsg>>(mail.body);
      acks_.emplace_back(ack.shuffle_token, ack.ack);
      return;
    }
    if (mail.kind != kFeed) return;
    const Scripted& step = script_[std::any_cast<size_t>(mail.body)];
    auto msg = std::make_shared<TupleBatchMsg>();
    msg->exchange_id = 1;
    msg->side = step.side;
    msg->producer = step.producer;
    msg->shuffle_token = TokenOf(step.side, step.producer);
    msg->seq = step.seq;
    msg->eos = step.eos;
    const std::vector<Tuple> rows = {RowOf(step.side, step.producer, step.seq)};
    msg->rows = EncodeRows(rows);
    if (step.cut) {
      msg->rows = std::make_shared<const std::string>(
          msg->rows->substr(0, msg->rows->size() / 2));
    }
    SendMail(to_, kMailTupleBatch, std::move(msg), kControlBits);
  }

  const std::vector<std::pair<uint64_t, uint64_t>>& acks() const {
    return acks_;
  }

 private:
  pool::ProcessId to_;
  std::vector<Scripted> script_;
  std::vector<std::pair<uint64_t, uint64_t>> acks_;
};

struct ReceiverRun {
  Consumer* consumer = nullptr;
  Feeder* feeder = nullptr;
};

ReceiverRun FeedReceiver(Machine* m, std::vector<Scripted> script) {
  ReceiverRun run;
  auto consumer = std::make_unique<Consumer>(m, /*sides=*/2, /*producers=*/2);
  run.consumer = consumer.get();
  const pool::ProcessId to = m->runtime.Spawn(1, std::move(consumer));
  auto feeder = std::make_unique<Feeder>(to, std::move(script));
  run.feeder = feeder.get();
  m->runtime.Spawn(0, std::move(feeder));
  m->sim.Run();
  return run;
}

TEST(StreamReceiverTest, ReorderedAndDuplicatedBatchesOfTwoSides) {
  Machine m;
  const ReceiverRun run = FeedReceiver(
      &m, {{0, 1, 1},                // Delivered at once.
           {1, 0, 2, true},          // Waits for seq 1.
           {0, 0, 2, true},          // Waits for seq 1.
           {0, 1, 1},                // Duplicate of a delivered batch.
           {0, 0, 1},                // Releases seq 1 and 2: side 0 p0 ends.
           {1, 0, 2, true},          // Duplicate of a buffered batch.
           {0, 1, 2, true},          // Side 0 ends.
           {1, 1, 1, true},
           {1, 0, 1},                // Releases seq 1 and 2: side 1 ends.
           {0, 2, 1, true}});        // No such producer: ignored.
  using D = std::tuple<int, size_t, std::vector<Tuple>>;
  std::vector<D> got;
  for (const StreamReceiver::Delivery& d : run.consumer->deliveries()) {
    got.emplace_back(d.side, d.producer, d.rows);
  }
  // Rows in arrival order, each channel's in sequence order.
  const std::vector<D> want = {
      {0, 1, {RowOf(0, 1, 1)}},
      {0, 0, {RowOf(0, 0, 1), RowOf(0, 0, 2)}},
      {0, 1, {RowOf(0, 1, 2)}},
      {1, 1, {RowOf(1, 1, 1)}},
      {1, 0, {RowOf(1, 0, 1), RowOf(1, 0, 2)}}};
  EXPECT_EQ(got, want);
  // Every batch but the foreign one is acked, and each ack covers exactly
  // the prefix its channel delivered, duplicates and gaps included.
  const std::vector<std::pair<uint64_t, uint64_t>> acks = {
      {TokenOf(0, 1), 1}, {TokenOf(1, 0), 0}, {TokenOf(0, 0), 0},
      {TokenOf(0, 1), 1}, {TokenOf(0, 0), 2}, {TokenOf(1, 0), 0},
      {TokenOf(0, 1), 2}, {TokenOf(1, 1), 1}, {TokenOf(1, 0), 2}};
  EXPECT_EQ(run.feeder->acks(), acks);
  // Each side is done once its last producer's eos was delivered.
  std::vector<std::pair<bool, bool>> done(6, {false, false});
  done.insert(done.end(), 2, {true, false});
  done.insert(done.end(), 2, {true, true});
  EXPECT_EQ(run.consumer->done(), done);
  // Each duplicate is counted once, and never as a fresh batch.
  EXPECT_EQ(m.metrics.CounterValue("exchange.dup_batches"), 2u);
  EXPECT_EQ(m.metrics.CounterValue("exchange.batches_received"), 7u);
  for (const Status& status : run.consumer->statuses()) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(StreamReceiverTest, UndecodableFrameReturnsItsErrorAndIsNotAcked) {
  Machine m;
  const ReceiverRun run =
      FeedReceiver(&m, {{0, 0, 1, true, /*cut=*/true}, {0, 0, 1, true}});
  ASSERT_EQ(run.consumer->statuses().size(), 2u);
  EXPECT_FALSE(run.consumer->statuses()[0].ok());
  EXPECT_TRUE(run.consumer->statuses()[1].ok());
  // Only the intact copy is delivered, counted and acked.
  EXPECT_EQ(run.consumer->rows(), std::vector<Tuple>{RowOf(0, 0, 1)});
  const std::vector<std::pair<uint64_t, uint64_t>> acks = {
      {TokenOf(0, 0), 1}};
  EXPECT_EQ(run.feeder->acks(), acks);
  EXPECT_EQ(m.metrics.CounterValue("exchange.batches_received"), 1u);
  EXPECT_EQ(m.metrics.CounterValue("exchange.dup_batches"), 0u);
}

// --------------------------------------------------------------- RpcClient

constexpr char kPing[] = "ping";
constexpr char kPong[] = "pong";

/// Answers every ping with a pong echoing its id.
class Server : public pool::Process {
 public:
  void OnMail(const pool::Mail& mail) override {
    if (mail.kind != kPing) return;
    ++pings_;
    SendMail(mail.from, kPong, mail.body, kControlBits);
  }
  int pings() const { return pings_; }

 private:
  int pings_ = 0;
};

/// Sends one request to the service named "svc", resolved through a
/// directory the test controls.
class Client : public pool::Process {
 public:
  explicit Client(const std::map<std::string, pool::ProcessId>* directory)
      : directory_(directory),
        rpcs_(this, TestPolicy(3),
              {[this](const RpcClient<std::string>::PendingRpc& rpc) {
                 auto it = directory_->find(rpc.target);
                 return it == directory_->end() ? pool::kNoProcess
                                                : it->second;
               },
               [this](uint64_t, RpcClient<std::string>::PendingRpc&) {
                 ++retries_;
                 return true;
               },
               [this](uint64_t id, const RpcClient<std::string>::PendingRpc&) {
                 ++exhausted_;
                 rpcs_.Settle(id);
               }}) {}

  void OnStart() override {
    rpcs_.Send(1, "svc", kPing, std::make_shared<uint64_t>(1), kControlBits,
               TestPolicy(3).attempts);
  }

  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == kMailRpcTimeout) {
      rpcs_.OnTimeout(mail);
    } else if (mail.kind == kPong) {
      const uint64_t id = *std::any_cast<std::shared_ptr<uint64_t>>(mail.body);
      if (rpcs_.Settle(id)) ++answered_;
    }
  }

  int retries() const { return retries_; }
  int exhausted() const { return exhausted_; }
  int answered() const { return answered_; }
  size_t outstanding() const { return rpcs_.calls().size(); }

 private:
  const std::map<std::string, pool::ProcessId>* directory_;
  RpcClient<std::string> rpcs_;
  int retries_ = 0;
  int exhausted_ = 0;
  int answered_ = 0;
};

TEST(RpcClientTest, SettleCancelsTheTimer) {
  Machine m;
  std::map<std::string, pool::ProcessId> directory;
  auto server = std::make_unique<Server>();
  directory["svc"] = m.runtime.Spawn(1, std::move(server));
  auto client = std::make_unique<Client>(&directory);
  Client* raw = client.get();
  m.runtime.Spawn(0, std::move(client));
  m.sim.Run();
  EXPECT_EQ(raw->answered(), 1);
  EXPECT_EQ(raw->retries(), 0);
  EXPECT_EQ(raw->outstanding(), 0u);
  EXPECT_EQ(m.sim.events_cancelled(), 1u);
  EXPECT_LT(m.sim.now(), kTimeout);
}

TEST(RpcClientTest, RetryReResolvesARespawnedTarget) {
  Machine m;
  std::map<std::string, pool::ProcessId> directory;
  directory["svc"] = m.runtime.Spawn(1, std::make_unique<Server>());
  auto client = std::make_unique<Client>(&directory);
  Client* raw = client.get();
  m.runtime.Spawn(0, std::move(client));
  m.runtime.Kill(directory["svc"]);  // Crashes before the ping lands.
  m.sim.RunUntil(kTimeout / 2);
  ASSERT_EQ(raw->answered(), 0);
  // A replacement comes up under a new pid; the retry must chase it.
  auto second = std::make_unique<Server>();
  Server* replacement = second.get();
  directory["svc"] = m.runtime.Spawn(1, std::move(second));
  m.sim.Run();
  EXPECT_EQ(raw->answered(), 1);
  EXPECT_EQ(raw->retries(), 1);
  EXPECT_EQ(replacement->pings(), 1);
  EXPECT_EQ(raw->exhausted(), 0);
}

TEST(RpcClientTest, ExhaustionFiresOnce) {
  Machine m;
  std::map<std::string, pool::ProcessId> directory;  // "svc" never exists.
  auto client = std::make_unique<Client>(&directory);
  Client* raw = client.get();
  m.runtime.Spawn(0, std::move(client));
  m.sim.Run();
  EXPECT_EQ(raw->exhausted(), 1);
  EXPECT_EQ(raw->retries(), 2);  // Three sends in all.
  EXPECT_EQ(raw->answered(), 0);
  EXPECT_EQ(raw->outstanding(), 0u);
  // Timers at 1 s, then 2 s and 4 s later; nothing is armed after the
  // last one.
  EXPECT_EQ(m.sim.now(), (1 + 2 + 4) * kTimeout);
}

// ---------------------------------------------------------------- Resender

constexpr char kNote[] = "note";
constexpr char kNoteResend[] = "note_resend";

/// Keeps one note flowing to a Server-like sink that never acks it.
class Notifier : public pool::Process {
 public:
  Notifier(pool::ProcessId to, int budget)
      : resender_(this, to, kNote, kNoteResend, kTimeout, budget) {}
  void OnStart() override {
    resender_.Send(std::make_shared<uint64_t>(1), kControlBits);
  }
  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == kNoteResend) resender_.OnTimer();
  }
  Resender& resender() { return resender_; }

 private:
  Resender resender_;
};

class NoteSink : public pool::Process {
 public:
  void OnMail(const pool::Mail& mail) override {
    if (mail.kind == kNote) ++notes_;
  }
  int notes() const { return notes_; }

 private:
  int notes_ = 0;
};

TEST(ResenderTest, ResendsUntilTheBudgetRunsOut) {
  Machine m;
  auto sink = std::make_unique<NoteSink>();
  NoteSink* raw = sink.get();
  const pool::ProcessId to = m.runtime.Spawn(1, std::move(sink));
  m.runtime.Spawn(0, std::make_unique<Notifier>(to, /*budget=*/3));
  m.sim.Run();
  EXPECT_EQ(raw->notes(), 1 + 3);
  EXPECT_EQ(m.sim.now() / kTimeout, 3);  // Nothing armed after the last.
}

TEST(ResenderTest, StopEndsTheResends) {
  Machine m;
  auto sink = std::make_unique<NoteSink>();
  NoteSink* raw = sink.get();
  const pool::ProcessId to = m.runtime.Spawn(1, std::move(sink));
  auto notifier = std::make_unique<Notifier>(to, kOrphanResendBudget);
  Notifier* sender = notifier.get();
  m.runtime.Spawn(0, std::move(notifier));
  m.sim.RunUntil(kTimeout + kTimeout / 2);
  EXPECT_TRUE(sender->resender().sent());
  sender->resender().Stop();
  m.sim.Run();
  EXPECT_EQ(raw->notes(), 2);  // The send and one resend.
  EXPECT_FALSE(sender->resender().sent());
  EXPECT_EQ(m.sim.now() / kTimeout, 2);  // The pending firing was the last.
}

}  // namespace
}  // namespace prisma::gdh
