#include "pool/disk.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace prisma::pool {

Disk::Disk(sim::Simulator* sim, storage::StableStore* store, net::NodeId pe)
    : sim_(sim), store_(store), pe_(pe) {}

void Disk::AttachObservability(obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
}

Disk::Ticket Disk::Submit(ProcessId owner, storage::StableWrite write) {
  const Ticket ticket = next_ticket_++;
  Request request;
  request.ticket = ticket;
  request.owner = owner;
  request.write = std::move(write);
  request.submitted_at = sim_->now();
  queue_.push_back(std::move(request));
  if (!busy()) StartWrite();
  return ticket;
}

void Disk::WhenDurable(Ticket ticket, std::function<void()> done) {
  if (Durable(ticket)) {
    done();
    return;
  }
  for (Request& r : in_progress_) {
    if (r.ticket == ticket) {
      r.done.push_back(std::move(done));
      return;
    }
  }
  for (Request& r : queue_) {
    if (r.ticket == ticket) {
      r.done.push_back(std::move(done));
      return;
    }
  }
  // Lost to a crash: the callback never runs.
}

void Disk::StartWrite() {
  PRISMA_CHECK(!busy() && in_progress_.empty());
  if (queue_.empty()) return;
  const sim::SimTime now = sim_->now();
  size_t bytes = 0;
  size_t records = 0;
  sim::SimTime queue_wait = 0;
  for (Request& r : queue_) {
    bytes += r.write.bytes();
    records += r.write.records();
    queue_wait += now - r.submitted_at;
    in_progress_.push_back(std::move(r));
  }
  queue_.clear();
  const sim::SimTime duration = store_->model().IoNs(bytes);
  busy_ = true;
  completion_ = sim_->Schedule(duration, [this] { CompleteWrite(); });
  ++physical_writes_;
  if (metrics_ != nullptr) {
    if (m_writes_ == nullptr) {
      const obs::Labels pe = {{"pe", std::to_string(pe_)}};
      m_writes_ = metrics_->GetCounter("disk.writes", pe);
      m_bytes_ = metrics_->GetCounter("disk.bytes", pe);
      m_busy_ns_ = metrics_->GetCounter("disk.busy_ns", pe);
      m_queue_wait_ns_ = metrics_->GetCounter("disk.queue_wait_ns", pe);
      m_records_per_write_ =
          metrics_->GetHistogram("disk.records_per_write", pe);
    }
    m_writes_->Increment();
    m_bytes_->Increment(bytes);
    m_busy_ns_->Increment(static_cast<uint64_t>(duration));
    m_queue_wait_ns_->Increment(static_cast<uint64_t>(queue_wait));
    m_records_per_write_->Record(static_cast<int64_t>(records));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Span("disk", "disk.write", now, now + duration, pe_, 0,
                  "records", std::to_string(records));
  }
}

void Disk::CompleteWrite() {
  busy_ = false;
  std::vector<Request> landed = std::move(in_progress_);
  in_progress_.clear();
  for (Request& r : landed) {
    store_->Apply(std::move(r.write));
    landed_ = std::max(landed_, r.ticket);
  }
  // Callbacks run after the whole physical write landed: a completion can
  // submit a new write, which must queue behind, not join, this one.
  StartWrite();
  for (Request& r : landed) {
    for (std::function<void()>& done : r.done) done();
  }
}

void Disk::DropOwner(ProcessId owner) {
  auto owned = [owner](const Request& r) { return r.owner == owner; };
  std::erase_if(queue_, owned);
  std::erase_if(in_progress_, owned);
}

void Disk::Crash() {
  if (busy_) sim_->Cancel(completion_);
  busy_ = false;
  queue_.clear();
  in_progress_.clear();
}

}  // namespace prisma::pool
