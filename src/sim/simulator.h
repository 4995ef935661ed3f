#ifndef PRISMA_SIM_SIMULATOR_H_
#define PRISMA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace prisma::sim {

/// Virtual time in nanoseconds since simulation start.
using SimTime = int64_t;

/// Handle of a scheduled event, usable with Simulator::Cancel.
using EventId = uint64_t;

constexpr SimTime kNanosPerMicro = 1000;
constexpr SimTime kNanosPerMilli = 1000 * 1000;
constexpr SimTime kNanosPerSecond = 1000 * 1000 * 1000;

/// Deterministic discrete-event simulation driver.
///
/// The PRISMA multi-computer (PEs, links, disks, POOL-X processes) runs
/// entirely in virtual time on this engine: components schedule callbacks
/// at future instants and the simulator executes them in nondecreasing
/// time order, breaking ties by scheduling sequence so runs are exactly
/// reproducible.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  /// Returns a handle accepted by Cancel.
  EventId Schedule(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the absolute virtual instant `time` (>= now()).
  EventId ScheduleAt(SimTime time, std::function<void()> fn);

  /// Cancels a pending event; a no-op if it already ran (or never
  /// existed). Cancelled events are skipped without advancing the clock
  /// to their instant when later events exist; an all-cancelled queue
  /// simply drains. Once tombstones outnumber half the queue, the queue
  /// is rebuilt without the cancelled events, so long timeouts cancelled
  /// early do not pile up until their due time.
  void Cancel(EventId id);

  /// Executes the next pending event; returns false if none remain.
  bool Step();

  /// Runs until the event queue drains or `max_events` were executed.
  /// Returns the number of events executed.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  /// Runs events with time <= deadline; pending later events remain queued.
  /// Advances now() to `deadline` even if the queue drains earlier.
  uint64_t RunUntil(SimTime deadline);

  /// Total events executed since construction.
  uint64_t events_executed() const { return events_executed_; }

  /// Total events ever scheduled (executed + pending + cancelled).
  uint64_t events_scheduled() const { return next_seq_; }

  /// Cancel calls made (including no-op cancels of already-run events).
  uint64_t cancel_requests() const { return cancel_requests_; }

  /// Events skipped because they were cancelled before their instant.
  uint64_t events_cancelled() const { return events_cancelled_; }

  /// Cancelled ids not yet purged (ids of events that had already run
  /// included, until the next rebuild).
  size_t tombstones_pending() const { return cancelled_.size(); }

  /// Number of pending events (cancelled-but-unpurged ones included).
  size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
  };
  // Max-heap comparator inverted: the vector is kept as a min-heap on
  // (time, seq) via std::push_heap/pop_heap so the next event can be moved
  // out of the container (std::priority_queue::top() is const).
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Event PopNext();
  /// Drops cancelled events sitting at the heap front.
  void PurgeCancelledFront();

  /// Fewer tombstones never trigger a rebuild: they cost less than it.
  static constexpr size_t kCompactMinTombstones = 64;

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t cancel_requests_ = 0;
  uint64_t events_cancelled_ = 0;
  std::vector<Event> queue_;  // Heap ordered by EventLater.
  std::unordered_set<EventId> cancelled_;
};

}  // namespace prisma::sim

#endif  // PRISMA_SIM_SIMULATOR_H_
