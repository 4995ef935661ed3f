#include "serve/dispatcher.h"

#include <algorithm>
#include <utility>

namespace prisma::serve {

namespace {

// An empty coordinator list runs every coordinator on the client's PE;
// the cap still counts every PE, so admission does not shrink with it.
size_t CoordinatorPeCount(const core::PrismaDb& db) {
  const core::MachineConfig& config = db.config();
  if (!config.coordinator_pes.empty()) return config.coordinator_pes.size();
  return static_cast<size_t>(std::max(config.pes, 1));
}

}  // namespace

Dispatcher::Dispatcher(core::PrismaDb* db, DispatcherOptions options)
    : db_(db),
      options_(options),
      dispatch_cap_(static_cast<size_t>(std::max(
                        options.per_pe_concurrency, 1)) *
                    CoordinatorPeCount(*db)) {}

void Dispatcher::Submit(const std::string& text, exec::TxnId txn,
                        core::PrismaDb::ReplyCallback callback,
                        sim::SimTime delay) {
  ++stats_.submitted;
  Pending pending;
  pending.text = text;
  pending.txn = txn;
  pending.callback = std::move(callback);
  db_->simulator().Schedule(
      delay, [this, pending = std::move(pending)]() mutable {
        pending.arrival_ns = db_->simulator().now();
        Admit(std::move(pending));
      });
}

void Dispatcher::Admit(Pending pending) {
  UpdateAdmitState();
  // In-transaction statements hold locks already: shedding them could only
  // delay 2PC settlement and lock release, so they bypass admission
  // control entirely (DESIGN.md §15.2, "shed at admission, never
  // mid-2PC"). They still count toward in-flight so the cap sees them.
  const bool in_txn = pending.txn != exec::kAutoCommit;
  if (!in_txn) {
    if (state_ == AdmitState::kShedding ||
        queue_.size() >= options_.queue_capacity) {
      Shed(pending);
      return;
    }
  }
  ++stats_.admitted;
  db_->metrics().GetCounter("serve.admitted")->Increment();
  if (in_txn) {
    Dispatch(std::move(pending));
    return;
  }
  queue_.push_back(std::move(pending));
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  DispatchQueued();
}

void Dispatcher::Shed(Pending& pending) {
  ++stats_.shed;
  db_->metrics().GetCounter("serve.shed")->Increment();
  gdh::ClientReply reply;
  reply.status = OverloadedError(
      state_ == AdmitState::kShedding
          ? "admission closed: network backlog over the high watermark"
          : "admission queue full");
  // The shed reply is delivered at the arrival instant with zero response
  // time: the statement never entered the system.
  pending.callback(reply, 0);
}

void Dispatcher::DispatchQueued() {
  while (!queue_.empty() && in_flight_ < dispatch_cap_) {
    Pending next = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(std::move(next));
  }
}

void Dispatcher::Dispatch(Pending pending) {
  ++in_flight_;
  stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
  const sim::SimTime arrival_ns = pending.arrival_ns;
  core::PrismaDb::ReplyCallback client_callback = std::move(pending.callback);
  db_->Submit(
      pending.text, /*prismalog=*/false, pending.txn,
      [this, arrival_ns, client_callback = std::move(client_callback)](
          const gdh::ClientReply& reply, sim::SimTime response_ns) {
        --in_flight_;
        ++stats_.completed;
        db_->metrics().GetCounter("serve.completed")->Increment();
        if (!reply.status.ok()) {
          if (reply.status.code() == StatusCode::kUnavailable) {
            ++stats_.unavailable;
          } else {
            ++stats_.failed;
          }
        }
        // End-to-end latency includes time spent queued at admission.
        latency_.Record(db_->simulator().now() - arrival_ns);
        client_callback(reply, response_ns);
        UpdateAdmitState();
        DispatchQueued();
      },
      /*delay=*/0);
}

AdmitState Dispatcher::NextState(AdmitState state, int backlog,
                                 const DispatcherOptions& options) {
  if (state == AdmitState::kOpen && backlog >= options.backlog_high) {
    return AdmitState::kShedding;
  }
  if (state == AdmitState::kShedding && backlog <= options.backlog_low) {
    return AdmitState::kOpen;
  }
  // Inside the dead band the state holds — that hysteresis is what keeps
  // admission from flapping when the backlog hovers at a watermark.
  return state;
}

void Dispatcher::UpdateAdmitState() {
  const AdmitState next =
      NextState(state_, db_->network().TotalBacklog(), options_);
  if (next == state_) return;
  if (next == AdmitState::kShedding) {
    // PRISMA_TRANSITION(kOpen, kShedding, backlog over high watermark)
    state_ = AdmitState::kShedding;
    ++stats_.sheds_entered;
  } else {
    // PRISMA_TRANSITION(kShedding, kOpen, backlog drained to low watermark)
    state_ = AdmitState::kOpen;
  }
}

}  // namespace prisma::serve
