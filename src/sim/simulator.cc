#include "sim/simulator.h"

#include <algorithm>

#include "common/logging.h"

namespace prisma::sim {

EventId Simulator::ScheduleAt(SimTime time, std::function<void()> fn) {
  PRISMA_CHECK(time >= now_) << "cannot schedule into the past: " << time
                             << " < " << now_;
  const EventId id = next_seq_++;
  queue_.push_back(Event{time, id, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater());
  return id;
}

Simulator::Event Simulator::PopNext() {
  std::pop_heap(queue_.begin(), queue_.end(), EventLater());
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void Simulator::Cancel(EventId id) {
  ++cancel_requests_;
  if (id >= next_seq_) return;
  cancelled_.insert(id);
  if (cancelled_.size() < kCompactMinTombstones ||
      cancelled_.size() * 2 <= queue_.size()) {
    return;
  }
  // Rebuild the heap without the cancelled events; the tombstones left
  // name events that already ran. (time, seq) is a total order, so the
  // rebuilt heap pops in the same order.
  const size_t before = queue_.size();
  std::erase_if(queue_, [this](const Event& ev) {
    return cancelled_.contains(ev.seq);
  });
  events_cancelled_ += before - queue_.size();
  cancelled_.clear();
  std::make_heap(queue_.begin(), queue_.end(), EventLater());
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    Event ev = PopNext();
    auto it = cancelled_.find(ev.seq);
    if (it != cancelled_.end()) {
      // Skipped without advancing the clock.
      cancelled_.erase(it);
      ++events_cancelled_;
      continue;
    }
    now_ = ev.time;
    ++events_executed_;
    ev.fn();
    return true;
  }
  cancelled_.clear();  // Nothing is queued: what is left ran already.
  return false;
}

uint64_t Simulator::Run(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

void Simulator::PurgeCancelledFront() {
  while (!queue_.empty()) {
    auto it = cancelled_.find(queue_.front().seq);
    if (it == cancelled_.end()) return;
    cancelled_.erase(it);
    ++events_cancelled_;
    PopNext();
  }
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (true) {
    PurgeCancelledFront();
    if (queue_.empty() || queue_.front().time > deadline) break;
    if (Step()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace prisma::sim
