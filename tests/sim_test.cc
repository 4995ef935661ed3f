#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace prisma::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroWithNoEvents) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, TiesBreakBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.Schedule(5, [&] {
    times.push_back(sim.now());
    sim.Schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{5, 10}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Schedule(30, [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.RunUntil(500);
  EXPECT_EQ(sim.now(), 500);
}

TEST(SimulatorTest, RunWithEventCap) {
  Simulator sim;
  int fired = 0;
  // A self-perpetuating event chain; the cap must stop it.
  std::function<void()> tick = [&] {
    ++fired;
    sim.Schedule(1, tick);
  };
  sim.Schedule(1, tick);
  EXPECT_EQ(sim.Run(100), 100u);
  EXPECT_EQ(fired, 100);
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(20, [&] { ++fired; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
}

TEST(SimulatorTest, CancelledTailDoesNotAdvanceClock) {
  // A late timer that gets cancelled must not drag the clock (the whole
  // point of cancellable timeouts: makespans stay meaningful).
  Simulator sim;
  const EventId timeout = sim.Schedule(1'000'000, [] {});
  sim.Schedule(5, [&] { sim.Cancel(timeout); });
  sim.Run();
  EXPECT_EQ(sim.now(), 5);
}

TEST(SimulatorTest, CancelAfterExecutionIsHarmless) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  sim.Cancel(id);  // Already ran; must not affect future events.
  sim.Schedule(1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilSkipsCancelledFront) {
  Simulator sim;
  int fired = 0;
  const EventId early = sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(50, [&] { ++fired; });
  sim.Schedule(99999, [&] { ++fired; });
  sim.Cancel(early);
  EXPECT_EQ(sim.RunUntil(60), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 60);
}

TEST(SimulatorTest, TiesBreakBySequenceAcrossInterleavedSchedules) {
  // Same-time events fire in scheduling order even when they are created
  // from inside other events — the (time, seq) key, not heap luck.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(10, [&] {
    order.push_back(0);
    sim.Schedule(10, [&] { order.push_back(3); });  // t=20, seq later.
  });
  sim.Schedule(20, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, EventAccountingTracksSchedulesAndCancels) {
  Simulator sim;
  EXPECT_EQ(sim.events_scheduled(), 0u);
  const EventId a = sim.Schedule(10, [] {});
  sim.Schedule(20, [] {});
  EXPECT_EQ(sim.events_scheduled(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.cancel_requests(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 1u);
  EXPECT_EQ(sim.events_cancelled(), 0u);  // Tombstone not yet consumed.
  sim.Run();
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, CancelOfUnissuedIdIsRejected) {
  // Ids the simulator never handed out must not poison future events.
  Simulator sim;
  sim.Cancel(9999);
  int fired = 0;
  for (int i = 0; i < 3; ++i) sim.Schedule(i + 1, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.events_cancelled(), 0u);
}

TEST(SimulatorTest, DoubleCancelConsumesOneTombstone) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.Schedule(10, [&] { ++fired; });
  sim.Cancel(id);
  sim.Cancel(id);  // Idempotent: the set holds one entry.
  EXPECT_EQ(sim.cancel_requests(), 2u);
  EXPECT_EQ(sim.tombstones_pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
}

TEST(SimulatorTest, MassCancelsCompactTheQueue) {
  // Long timeouts armed per request and cancelled when the reply lands:
  // the queue must not hold them until their due time.
  auto run = [](std::vector<std::pair<SimTime, int>>* fired) {
    Simulator sim;
    std::vector<EventId> timeouts;
    for (int i = 0; i < 1000; ++i) {
      timeouts.push_back(sim.Schedule(10 * kNanosPerSecond + i, [] {}));
    }
    for (int i = 0; i < 20; ++i) {
      sim.Schedule(i * 3, [fired, &sim, i] {
        fired->push_back({sim.now(), i});
      });
    }
    EXPECT_EQ(sim.pending(), 1020u);
    for (int i = 0; i < 900; ++i) sim.Cancel(timeouts[i]);
    // Compacted well before the due time: neither the queue nor the
    // tombstone set holds the cancelled timers.
    EXPECT_LT(sim.pending(), 1020u - 500u);
    EXPECT_LT(sim.tombstones_pending(), 500u);
    sim.Run();
    // Every cancelled event is counted exactly once, compacted or not.
    EXPECT_EQ(sim.events_cancelled(), 900u);
    EXPECT_EQ(sim.events_executed(), 120u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.tombstones_pending(), 0u);
    return sim.now();
  };
  std::vector<std::pair<SimTime, int>> first;
  std::vector<std::pair<SimTime, int>> second;
  EXPECT_EQ(run(&first), run(&second));
  EXPECT_EQ(first.size(), 20u);
  EXPECT_EQ(first, second);
}

TEST(SimulatorTest, CancelsOfEventsThatRanDoNotAccumulate) {
  Simulator sim;
  std::vector<EventId> ran;
  for (int i = 0; i < 200; ++i) ran.push_back(sim.Schedule(i, [] {}));
  sim.Run();
  sim.Schedule(1000, [] {});
  for (const EventId id : ran) sim.Cancel(id);
  // The stale ids were dropped by compaction; the live event survived.
  EXPECT_LT(sim.tombstones_pending(), 200u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 201u);
  EXPECT_EQ(sim.events_cancelled(), 0u);
  EXPECT_EQ(sim.tombstones_pending(), 0u);
}

TEST(SimulatorTest, IdenticalRunsProduceIdenticalSchedules) {
  // The determinism bedrock: two simulators fed the same event program
  // agree on every firing time.
  auto run = [] {
    Simulator sim;
    std::vector<SimTime> times;
    for (int i = 0; i < 20; ++i) {
      sim.Schedule((i * 7) % 13, [&times, &sim] {
        times.push_back(sim.now());
        sim.Schedule(3, [&times, &sim] { times.push_back(sim.now()); });
      });
    }
    sim.Run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.Schedule(7, [&] {
    sim.Schedule(0, [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, 7);
}

}  // namespace
}  // namespace prisma::sim
