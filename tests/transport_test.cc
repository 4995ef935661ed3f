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

/// Receives one stream, acking after every delivery.
class Consumer : public pool::Process {
 public:
  Consumer() : receiver_(this, Options()) {}

  void OnMail(const pool::Mail& mail) override {
    if (mail.kind != kMailTupleBatch) return;
    const auto& msg = *std::any_cast<std::shared_ptr<TupleBatchMsg>>(mail.body);
    ASSERT_TRUE(receiver_.Offer(msg, channel_).ok());
    for (exec::TupleBatch& batch : channel_.TakeReady()) {
      for (Tuple& t : batch.tuples) rows_.push_back(std::move(t));
    }
    receiver_.Ack(mail.from, msg.shuffle_token, channel_);
  }

  const std::vector<Tuple>& rows() const { return rows_; }
  const exec::InboundChannel& channel() const { return channel_; }

 private:
  static StreamReceiver::Options Options() {
    StreamReceiver::Options options;
    options.credit_window = 4;
    return options;
  }

  StreamReceiver receiver_;
  exec::InboundChannel channel_;
  std::vector<Tuple> rows_;
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
  auto consumer = std::make_unique<Consumer>();
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
  EXPECT_EQ(run.consumer->channel().duplicates(), 0u);
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
  EXPECT_EQ(run.consumer->channel().duplicates(), 1u);
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
