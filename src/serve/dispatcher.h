#ifndef PRISMA_SERVE_DISPATCHER_H_
#define PRISMA_SERVE_DISPATCHER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "core/prisma_db.h"
#include "obs/latency.h"
#include "sim/simulator.h"

namespace prisma::serve {

/// Admission-control knobs (DESIGN.md §15.2).
struct DispatcherOptions {
  /// Bounded FIFO admission queue; an arrival that finds it full is shed
  /// with a typed Overloaded reply (never dropped silently).
  size_t queue_capacity = 256;
  /// In-flight statements allowed per PE. The dispatch cap is the
  /// machine-wide per_pe_concurrency * |coordinator PEs|, or
  /// per_pe_concurrency * pes when coordinators run on the client's PE
  /// (an empty MachineConfig::coordinator_pes): the number of per-query
  /// coordinator instances admitted at once, wherever they run.
  int per_pe_concurrency = 4;
  /// Backpressure hysteresis over net::Network::TotalBacklog() (the PR-2
  /// backlog-watermark counters): admission flips to shedding at or above
  /// `backlog_high`, and back to open only at or below `backlog_low`.
  /// The dead band prevents admit/shed flapping at the boundary.
  int backlog_high = 96;
  int backlog_low = 24;
};

/// Serving-layer front door (DESIGN.md §15.2): a harness-side component
/// between the open-loop workload and PrismaDb::Submit, applying
/// admission control so overload degrades into typed `Overloaded`
/// rejections instead of collapsing the event queue under unbounded
/// concurrent coordinators.
///
/// Like the benches and tests, the dispatcher is part of the simulation
/// harness, not a POOL-X process: it schedules plain simulator events and
/// inspects machine-level state (network backlog) between events only.
/// Every statement handed to Submit() resolves to exactly one callback
/// invocation — an answer, a typed Unavailable from the RPC layer, or a
/// typed Overloaded shed at admission. Statements inside an explicit
/// transaction bypass shedding and the queue entirely: their locks are
/// already held, so refusing them mid-2PC could only delay release
/// (the "shed at admission, never mid-2PC" rule).
///
/// Admission state machine (lint rule D7):
/// PRISMA_STATE_MACHINE(AdmitState: init->kOpen, kOpen->kShedding,
///                      kShedding->kOpen)
enum class AdmitState : uint8_t {
  kOpen,      // Backlog below the high watermark: arrivals join the queue.
  kShedding,  // Backlog crossed high; new arrivals get typed Overloaded.
};

class Dispatcher {
 public:
  Dispatcher(core::PrismaDb* db, DispatcherOptions options);

  /// Schedules one statement arrival `delay` virtual ns from now. At the
  /// arrival instant the statement is admitted (queued and dispatched
  /// under the concurrency cap) or shed with a typed Overloaded reply;
  /// the callback fires exactly once either way.
  void Submit(const std::string& text, exec::TxnId txn,
              core::PrismaDb::ReplyCallback callback, sim::SimTime delay = 0);

  /// Runs the simulation until every submitted statement has resolved.
  void Run() { db_->Run(); }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;     // Entered the queue (or txn bypass).
    uint64_t shed = 0;         // Typed Overloaded at admission.
    uint64_t completed = 0;    // Callback invocations with a db reply.
    uint64_t unavailable = 0;  // Of completed: typed kUnavailable.
    uint64_t failed = 0;       // Of completed: any other non-OK status.
    size_t peak_queue = 0;
    size_t peak_in_flight = 0;
    uint64_t sheds_entered = 0;  // kOpen -> kShedding transitions.
  };
  const Stats& stats() const { return stats_; }
  AdmitState state() const { return state_; }
  size_t queue_depth() const { return queue_.size(); }
  size_t in_flight() const { return in_flight_; }

  /// End-to-end latency (arrival instant to reply) of every statement
  /// that received a database answer; shed statements are excluded (they
  /// never entered the system) and counted in stats().shed instead.
  const obs::LatencyHistogram& latency() const { return latency_; }

  /// The pure hysteresis step: where the admission state machine moves
  /// when the live backlog reads `backlog`. Exposed for unit tests — the
  /// dead band between the watermarks must absorb boundary noise without
  /// flapping.
  static AdmitState NextState(AdmitState state, int backlog,
                              const DispatcherOptions& options);

 private:
  struct Pending {
    std::string text;
    exec::TxnId txn = exec::kAutoCommit;
    core::PrismaDb::ReplyCallback callback;
    sim::SimTime arrival_ns = 0;
  };

  /// Arrival instant: admit or shed `pending`.
  void Admit(Pending pending);
  /// Moves queued statements into PrismaDb::Submit up to the cap.
  void DispatchQueued();
  /// Hands one statement to the database and wires the completion hook.
  void Dispatch(Pending pending);
  /// Re-evaluates the watermark state machine against the live backlog.
  void UpdateAdmitState();
  void Shed(Pending& pending);

  core::PrismaDb* db_;
  const DispatcherOptions options_;
  const size_t dispatch_cap_;
  // PRISMA_TRANSITION(init, kOpen, a fresh dispatcher admits)
  AdmitState state_ = AdmitState::kOpen;
  std::deque<Pending> queue_;
  size_t in_flight_ = 0;
  Stats stats_;
  obs::LatencyHistogram latency_;
};

}  // namespace prisma::serve

#endif  // PRISMA_SERVE_DISPATCHER_H_
