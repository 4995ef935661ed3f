#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "pool/runtime.h"
#include "sim/simulator.h"

namespace prisma::pool {
namespace {

/// Test fixture wiring a simulator + 2x2 mesh network + runtime.
class PoolTest : public ::testing::Test {
 protected:
  PoolTest()
      : network_(&sim_, net::Topology::Mesh(2, 2)), runtime_(&sim_, &network_) {}

  sim::Simulator sim_;
  net::Network network_;
  Runtime runtime_;
};

/// Records every mail it receives.
class Recorder : public Process {
 public:
  void OnMail(const Mail& mail) override {
    kinds.push_back(mail.kind);
    senders.push_back(mail.from);
    times.push_back(runtime()->simulator()->now());
  }
  std::vector<std::string> kinds;
  std::vector<ProcessId> senders;
  std::vector<sim::SimTime> times;
};

/// Sends one greeting to a peer on start.
class Greeter : public Process {
 public:
  explicit Greeter(ProcessId peer) : peer_(peer) {}
  void OnStart() override { SendMail(peer_, "hello", std::string("hi"), 512); }
  void OnMail(const Mail&) override {}

 private:
  ProcessId peer_;
};

TEST_F(PoolTest, SpawnRunsOnStart) {
  class Starter : public Process {
   public:
    explicit Starter(bool* flag) : flag_(flag) {}
    void OnStart() override { *flag_ = true; }
    void OnMail(const Mail&) override {}
   private:
    bool* flag_;
  };
  bool started = false;
  runtime_.Spawn(0, std::make_unique<Starter>(&started));
  sim_.Run();
  EXPECT_TRUE(started);
  EXPECT_EQ(runtime_.num_processes(), 1u);
}

TEST_F(PoolTest, CrossPeMailIsDeliveredViaNetwork) {
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ProcessId rid = runtime_.Spawn(3, std::move(recorder));
  runtime_.Spawn(0, std::make_unique<Greeter>(rid));
  sim_.Run();
  ASSERT_EQ(rec->kinds.size(), 1u);
  EXPECT_EQ(rec->kinds[0], "hello");
  // PE 0 -> PE 3 on a 2x2 mesh is 2 hops; bits crossed links.
  EXPECT_GT(network_.stats().link_bits, 0);
  EXPECT_GT(rec->times[0], 0);
}

TEST_F(PoolTest, SamePeMailSkipsLinks) {
  auto recorder = std::make_unique<Recorder>();
  Recorder* rec = recorder.get();
  const ProcessId rid = runtime_.Spawn(1, std::move(recorder));
  runtime_.Spawn(1, std::make_unique<Greeter>(rid));
  sim_.Run();
  ASSERT_EQ(rec->kinds.size(), 1u);
  EXPECT_EQ(network_.stats().link_bits, 0);
}

TEST_F(PoolTest, MailToDeadProcessIsDropped) {
  auto recorder = std::make_unique<Recorder>();
  const ProcessId rid = runtime_.Spawn(3, std::move(recorder));
  runtime_.Kill(rid);
  runtime_.Spawn(0, std::make_unique<Greeter>(rid));
  sim_.Run();
  EXPECT_GE(runtime_.dropped_mail(), 1u);
}

TEST_F(PoolTest, ChargedCpuSerializesHandlersOnOnePe) {
  /// Each mail burns 1ms of CPU; deliveries to the same PE must be spaced
  /// at least 1ms apart even though they arrive nearly simultaneously.
  class Burner : public Process {
   public:
    void OnMail(const Mail&) override {
      ChargeCpu(1 * sim::kNanosPerMilli);
      handled_at.push_back(runtime()->simulator()->now());
    }
    std::vector<sim::SimTime> handled_at;
  };
  auto burner = std::make_unique<Burner>();
  Burner* b = burner.get();
  const ProcessId bid = runtime_.Spawn(3, std::move(burner));

  class Blaster : public Process {
   public:
    explicit Blaster(ProcessId to) : to_(to) {}
    void OnStart() override {
      for (int i = 0; i < 3; ++i) SendMail(to_, "burn", {}, 256);
    }
    void OnMail(const Mail&) override {}
   private:
    ProcessId to_;
  };
  runtime_.Spawn(0, std::make_unique<Blaster>(bid));
  sim_.Run();
  ASSERT_EQ(b->handled_at.size(), 3u);
  EXPECT_GE(b->handled_at[1] - b->handled_at[0], 1 * sim::kNanosPerMilli);
  EXPECT_GE(b->handled_at[2] - b->handled_at[1], 1 * sim::kNanosPerMilli);
  // The PE accumulated at least the 3ms of charged work.
  EXPECT_GE(runtime_.pe_busy_ns(3), 3 * sim::kNanosPerMilli);
}

TEST_F(PoolTest, DeferredSendsReleaseAfterChargedWork) {
  /// A handler that charges CPU before sending: the reply must not arrive
  /// at the peer before the charged work is complete.
  class Worker : public Process {
   public:
    void OnMail(const Mail& mail) override {
      ChargeCpu(5 * sim::kNanosPerMilli);
      SendMail(mail.from, "done", {}, 256);
    }
  };
  class Caller : public Process {
   public:
    explicit Caller(ProcessId worker) : worker_(worker) {}
    void OnStart() override {
      sent_at = runtime()->simulator()->now();
      SendMail(worker_, "work", {}, 256);
    }
    void OnMail(const Mail& mail) override {
      if (mail.kind == "done") done_at = runtime()->simulator()->now();
    }
    sim::SimTime sent_at = -1;
    sim::SimTime done_at = -1;
   private:
    ProcessId worker_;
  };
  auto worker = std::make_unique<Worker>();
  const ProcessId wid = runtime_.Spawn(3, std::move(worker));
  auto caller = std::make_unique<Caller>(wid);
  Caller* c = caller.get();
  runtime_.Spawn(0, std::move(caller));
  sim_.Run();
  ASSERT_GE(c->done_at, 0);
  EXPECT_GE(c->done_at - c->sent_at, 5 * sim::kNanosPerMilli);
}

TEST_F(PoolTest, SendSelfAfterActsAsTimer) {
  class Ticker : public Process {
   public:
    void OnStart() override { SendSelfAfter(2 * sim::kNanosPerMilli, "tick"); }
    void OnMail(const Mail& mail) override {
      if (mail.kind == "tick") {
        ticked_at = runtime()->simulator()->now();
      }
    }
    sim::SimTime ticked_at = -1;
  };
  auto t = std::make_unique<Ticker>();
  Ticker* raw = t.get();
  runtime_.Spawn(2, std::move(t));
  sim_.Run();
  EXPECT_GE(raw->ticked_at, 2 * sim::kNanosPerMilli);
  // Timers do not touch the network.
  EXPECT_EQ(network_.stats().link_bits, 0);
}

TEST_F(PoolTest, ExplicitPlacementIsHonored) {
  const ProcessId a = runtime_.Spawn(0, std::make_unique<Recorder>());
  const ProcessId b = runtime_.Spawn(3, std::make_unique<Recorder>());
  EXPECT_EQ(runtime_.PeOf(a), 0);
  EXPECT_EQ(runtime_.PeOf(b), 3);
}

TEST_F(PoolTest, BiggerMailTakesLongerOnTheWire) {
  class SizedGreeter : public Process {
   public:
    SizedGreeter(ProcessId peer, int64_t bits) : peer_(peer), bits_(bits) {}
    void OnStart() override { SendMail(peer_, "m", {}, bits_); }
    void OnMail(const Mail&) override {}
   private:
    ProcessId peer_;
    int64_t bits_;
  };
  auto rec1 = std::make_unique<Recorder>();
  Recorder* r1 = rec1.get();
  const ProcessId p1 = runtime_.Spawn(3, std::move(rec1));
  runtime_.Spawn(0, std::make_unique<SizedGreeter>(p1, 256));
  sim_.Run();
  const sim::SimTime small_arrival = r1->times.at(0);

  sim::Simulator sim2;
  net::Network net2(&sim2, net::Topology::Mesh(2, 2));
  Runtime rt2(&sim2, &net2);
  auto rec2 = std::make_unique<Recorder>();
  Recorder* r2 = rec2.get();
  const ProcessId p2 = rt2.Spawn(3, std::move(rec2));
  rt2.Spawn(0, std::make_unique<SizedGreeter>(p2, 256 * 64));
  sim2.Run();
  EXPECT_GT(r2->times.at(0), small_arrival);
}

TEST_F(PoolTest, CrashPeKillsEveryProcessOnThatPeOnly) {
  auto a = std::make_unique<Recorder>();
  Recorder* survivor = a.get();
  const ProcessId on_pe2 = runtime_.Spawn(2, std::move(a));
  const ProcessId victim1 = runtime_.Spawn(1, std::make_unique<Recorder>());
  const ProcessId victim2 = runtime_.Spawn(1, std::make_unique<Recorder>());
  sim_.Run();

  EXPECT_EQ(runtime_.CrashPe(1), 2u);
  EXPECT_FALSE(runtime_.IsAlive(victim1));
  EXPECT_FALSE(runtime_.IsAlive(victim2));
  EXPECT_TRUE(runtime_.IsAlive(on_pe2));
  EXPECT_EQ(runtime_.pe_crashes(), 1u);

  // Mail addressed to the wreckage is dropped, not delivered; the
  // survivor still receives.
  runtime_.Spawn(0, std::make_unique<Greeter>(victim1));
  runtime_.Spawn(0, std::make_unique<Greeter>(on_pe2));
  sim_.Run();
  EXPECT_EQ(survivor->kinds.size(), 1u);
}

/// Charges CPU, then answers the sender; optionally kills itself after
/// sending. `handled` outlives the process (a crash destroys it).
class SlowReplier : public Process {
 public:
  SlowReplier(bool* handled, bool kill_self)
      : handled_(handled), kill_self_(kill_self) {}
  void OnMail(const Mail& mail) override {
    *handled_ = true;
    ChargeCpu(5 * sim::kNanosPerMilli);
    SendMail(mail.from, "done", {}, 256);
    if (kill_self_) runtime()->Kill(self());
  }

 private:
  bool* handled_;
  bool kill_self_;
};

/// Sends one "work" request on start and records the answer.
class Requester : public Process {
 public:
  explicit Requester(ProcessId worker) : worker_(worker) {}
  void OnStart() override { SendMail(worker_, "work", {}, 256); }
  void OnMail(const Mail& mail) override {
    if (mail.kind == "done") ++answers;
  }
  int answers = 0;

 private:
  ProcessId worker_;
};

TEST_F(PoolTest, CrashMidHandlerDropsTheHandlersSends) {
  bool handled = false;
  const ProcessId worker = runtime_.Spawn(
      3, std::make_unique<SlowReplier>(&handled, /*kill_self=*/false));
  auto requester = std::make_unique<Requester>(worker);
  Requester* r = requester.get();
  runtime_.Spawn(0, std::move(requester));
  while (!handled) ASSERT_TRUE(sim_.Step()) << "the request never arrived";
  // The handler ran and its 5 ms of charged work is still in progress:
  // the crash takes that work, and the reply it would have released.
  const sim::SimTime crashed_at = sim_.now();
  const uint64_t dropped_before = runtime_.dropped_mail();
  runtime_.CrashPe(3);
  sim_.Run();
  EXPECT_GT(sim_.now(), crashed_at);
  EXPECT_EQ(r->answers, 0);
  EXPECT_EQ(runtime_.dropped_mail(), dropped_before + 1);
}

TEST_F(PoolTest, ProcessThatKillsItselfAfterSendingStillDelivers) {
  bool handled = false;
  const ProcessId worker = runtime_.Spawn(
      3, std::make_unique<SlowReplier>(&handled, /*kill_self=*/true));
  auto requester = std::make_unique<Requester>(worker);
  Requester* r = requester.get();
  runtime_.Spawn(0, std::move(requester));
  sim_.Run();
  ASSERT_TRUE(handled);
  EXPECT_FALSE(runtime_.IsAlive(worker));
  EXPECT_EQ(r->answers, 1);
  EXPECT_EQ(runtime_.dropped_mail(), 0u);
}

// ------------------------------------------------- Ownership checker

/// Captures ownership violations instead of aborting, restoring the
/// previous handler on destruction.
class ViolationCapture {
 public:
  ViolationCapture() {
    prev_ = internal_owned::SetOwnershipViolationHandler(&Record);
    messages().clear();
  }
  ~ViolationCapture() { internal_owned::SetOwnershipViolationHandler(prev_); }

  static std::vector<std::string>& messages() {
    static std::vector<std::string> m;
    return m;
  }

 private:
  static void Record(const std::string& message) {
    messages().push_back(message);
  }
  internal_owned::ViolationHandler prev_;
};

/// Holds an Owned counter and bumps it from its own handlers.
class StatefulProcess : public Process {
 public:
  std::string debug_name() const override { return "stateful"; }
  void OnStart() override { ++*counter_; }
  void OnMail(const Mail&) override { ++*counter_; }
  int value() const { return *counter_; }  // Control-plane read.
  Owned<int>& counter() { return counter_; }

 private:
  Owned<int> counter_;
};

/// Reaches into another process's Owned state from its own handler — the
/// POOL-X shared-memory violation the checker exists to catch.
class Intruder : public Process {
 public:
  explicit Intruder(StatefulProcess* victim) : victim_(victim) {}
  std::string debug_name() const override { return "intruder"; }
  void OnStart() override { touched_value_ = *victim_->counter(); }
  void OnMail(const Mail&) override {}

 private:
  StatefulProcess* victim_;
  int touched_value_ = 0;
};

TEST_F(PoolTest, OwnedStateAllowsOwnerAndControlPlane) {
  ViolationCapture capture;
  auto process = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = process.get();
  const ProcessId pid = runtime_.Spawn(0, std::move(process));
  runtime_.Spawn(1, std::make_unique<Greeter>(pid));
  sim_.Run();
  // OnStart + one mail, each from the owner's handler; the read below is
  // control-plane (no handler running) — all allowed.
  EXPECT_EQ(raw->value(), 2);
  EXPECT_TRUE(ViolationCapture::messages().empty());
  EXPECT_EQ(raw->counter().owner(), pid);
}

TEST_F(PoolTest, CrossProcessAccessIsCaught) {
  ViolationCapture capture;
  auto victim = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = victim.get();
  runtime_.Spawn(0, std::move(victim));
  sim_.Run();  // Victim's OnStart binds the counter to it.
  runtime_.Spawn(1, std::make_unique<Intruder>(raw));
  sim_.Run();  // Intruder's OnStart reads the victim's counter.
  ASSERT_EQ(ViolationCapture::messages().size(), 1u);
  const std::string& message = ViolationCapture::messages()[0];
  // The diagnostic names both processes.
  EXPECT_NE(message.find("stateful"), std::string::npos) << message;
  EXPECT_NE(message.find("intruder"), std::string::npos) << message;
}

TEST_F(PoolTest, OwnedBindsToFirstHandlerThatTouchesIt) {
  ViolationCapture capture;
  auto victim = std::make_unique<StatefulProcess>();
  StatefulProcess* raw = victim.get();
  // The intruder's OnStart runs before any victim handler ever touched
  // the counter, so the intruder (wrongly but silently) becomes the
  // owner — and the victim's own OnStart then trips the check. Spawn
  // order decides because handlers run in spawn order at t=0.
  runtime_.Spawn(1, std::make_unique<Intruder>(raw));
  runtime_.Spawn(0, std::move(victim));
  sim_.Run();
  EXPECT_EQ(ViolationCapture::messages().size(), 1u);
}

}  // namespace
}  // namespace prisma::pool
