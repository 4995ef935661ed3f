#include "pool/runtime.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace prisma::pool {

void Process::SendMail(ProcessId to, std::string kind, std::any body,
                       int64_t size_bits) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  Mail mail;
  mail.from = id_;
  mail.to = to;
  mail.kind = std::move(kind);
  mail.body = std::move(body);
  mail.size_bits = size_bits;
  runtime_->Send(std::move(mail));
}

sim::EventId Process::SendSelfAfter(sim::SimTime delay, std::string kind,
                                    std::any body) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  auto mail = std::make_shared<Mail>();
  mail->from = id_;
  mail->to = id_;
  mail->kind = std::move(kind);
  mail->body = std::move(body);
  mail->size_bits = 0;
  Runtime* rt = runtime_;
  return rt->simulator()->Schedule(delay,
                                   [rt, mail]() { rt->MailArrived(mail); });
}

void Process::ChargeCpu(sim::SimTime ns) {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  PRISMA_CHECK(ns >= 0);
  PRISMA_CHECK(runtime_->in_handler_) << "ChargeCpu outside a handler";
  runtime_->handler_charged_ns_ += ns;
}

Disk* Process::disk() const {
  PRISMA_CHECK(runtime_ != nullptr) << "process not attached";
  return runtime_->disk(pe_);
}

Disk::Ticket Process::WriteStable(storage::StableWrite write) {
  Disk* device = disk();
  PRISMA_CHECK(device != nullptr) << "WriteStable on diskless PE " << pe_;
  return device->Submit(id_, std::move(write));
}

void Process::WhenDurable(Disk::Ticket ticket, const char* kind,
                          std::function<void()> then) {
  Disk* device = disk();
  if (device == nullptr || device->Durable(ticket)) {
    then();
    return;
  }
  auto [it, first] = durable_waiters_.try_emplace(ticket);
  it->second.push_back(std::move(then));
  if (!first) return;  // The ticket's completion mail is already armed.
  auto mail = std::make_shared<Mail>();
  mail->from = id_;
  mail->to = id_;
  mail->kind = kind;
  mail->body = std::make_shared<Disk::Ticket>(ticket);
  mail->size_bits = 0;
  Runtime* rt = runtime_;
  device->WhenDurable(ticket, [rt, mail] { rt->MailArrived(mail); });
}

void Process::RunDurable(const Mail& mail) {
  const Disk::Ticket ticket =
      *std::any_cast<std::shared_ptr<Disk::Ticket>>(mail.body);
  auto it = durable_waiters_.find(ticket);
  if (it == durable_waiters_.end()) return;
  std::vector<std::function<void()>> waiters = std::move(it->second);
  durable_waiters_.erase(it);
  for (std::function<void()>& then : waiters) then();
}

Runtime::Runtime(sim::Simulator* sim, net::Network* network, CostModel costs)
    : sim_(sim),
      network_(network),
      costs_(costs),
      pe_cpu_free_at_(network->topology().num_nodes(), 0),
      disks_(network->topology().num_nodes()),
      pe_busy_ns_(network->topology().num_nodes(), 0),
      pe_epoch_(network->topology().num_nodes(), 0) {
  // All process mail travels as net::Message payloads; one receiver per PE
  // dispatches to the addressed process.
  const int n = network_->topology().num_nodes();
  for (net::NodeId node = 0; node < n; ++node) {
    network_->SetReceiver(node, [this](const net::Message& message) {
      auto mail = std::any_cast<std::shared_ptr<Mail>>(message.payload);
      MailArrived(std::move(mail));
    });
  }
}

Disk* Runtime::AttachDisk(net::NodeId pe, storage::StableStore* store) {
  PRISMA_CHECK(pe >= 0 && pe < network_->topology().num_nodes());
  disks_[pe] = std::make_unique<Disk>(sim_, store, pe);
  disks_[pe]->AttachObservability(metrics_, tracer_);
  return disks_[pe].get();
}

void Runtime::AttachObservability(obs::MetricsRegistry* metrics,
                                  obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  for (const std::unique_ptr<Disk>& disk : disks_) {
    if (disk != nullptr) disk->AttachObservability(metrics, tracer);
  }
  if (metrics != nullptr) {
    m_handlers_ = metrics->GetCounter("pool.handlers_executed");
    m_dropped_ = metrics->GetCounter("pool.mail_dropped");
    m_pe_cpu_.clear();
    const int n = network_->topology().num_nodes();
    for (net::NodeId pe = 0; pe < n; ++pe) {
      m_pe_cpu_.push_back(
          metrics->GetCounter("pe.cpu_ns", {{"pe", std::to_string(pe)}}));
    }
  }
}

ProcessId Runtime::Spawn(net::NodeId pe, std::unique_ptr<Process> process) {
  PRISMA_CHECK(pe >= 0 && pe < network_->topology().num_nodes());
  const ProcessId id = next_id_++;
  process->runtime_ = this;
  process->id_ = id;
  process->pe_ = pe;
  Process* raw = process.get();
  processes_[id] = std::move(process);
  // OnStart runs behind the PE's CPU like any handler and pays spawn cost.
  sim_->Schedule(0, [this, pe, id, raw]() {
    if (!IsAlive(id)) return;
    ExecuteHandler(pe, "spawn", id, [this, raw]() {
      handler_charged_ns_ += costs_.spawn_ns;
      raw->OnStart();
    });
  });
  return id;
}

void Runtime::Kill(ProcessId id) {
  auto it = processes_.find(id);
  if (it == processes_.end()) return;
  if (Disk* device = disks_[it->second->pe_].get()) device->DropOwner(id);
  processes_.erase(it);
}

size_t Runtime::CrashPe(net::NodeId pe) {
  std::vector<ProcessId> victims;
  for (const auto& [id, process] : processes_) {
    if (process->pe_ == pe) victims.push_back(id);
  }
  for (const ProcessId id : victims) Kill(id);
  if (Disk* device = disks_[pe].get()) device->Crash();
  ++pe_epoch_[pe];
  ++pe_crashes_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("pe.crashes", {{"pe", std::to_string(pe)}})
        ->Increment();
  }
  return victims.size();
}

net::NodeId Runtime::PeOf(ProcessId id) const {
  auto it = processes_.find(id);
  PRISMA_CHECK(it != processes_.end()) << "PeOf on dead process " << id;
  return it->second->pe_;
}

void Runtime::Send(Mail mail) {
  if (metrics_ != nullptr) {
    auto [it, inserted] = m_mail_kind_.try_emplace(mail.kind, nullptr);
    if (inserted) {
      it->second =
          metrics_->GetCounter("pool.mail_sent", {{"kind", mail.kind}});
    }
    it->second->Increment();
    auto [bits_it, bits_inserted] =
        m_mail_bits_.try_emplace(mail.kind, nullptr);
    if (bits_inserted) {
      bits_it->second =
          metrics_->GetCounter("pool.mail_bits", {{"kind", mail.kind}});
    }
    bits_it->second->Increment(
        static_cast<uint64_t>(std::max<int64_t>(mail.size_bits, 1)));
  }
  if (in_handler_) {
    // Released when the running handler's charged CPU completes.
    deferred_sends_.push_back(std::move(mail));
    return;
  }
  DispatchMail(std::make_shared<Mail>(std::move(mail)));
}

void Runtime::DispatchMail(const std::shared_ptr<Mail>& mail) {
  auto it = processes_.find(mail->to);
  if (it == processes_.end()) {
    ++dropped_mail_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
    return;
  }
  const net::NodeId dst_pe = it->second->pe_;
  net::NodeId src_pe = dst_pe;
  auto from_it = processes_.find(mail->from);
  if (from_it != processes_.end()) src_pe = from_it->second->pe_;
  network_->Send(src_pe, dst_pe, std::max<int64_t>(mail->size_bits, 1), mail);
}

void Runtime::MailArrived(std::shared_ptr<Mail> mail) {
  auto it = processes_.find(mail->to);
  if (it == processes_.end()) {
    ++dropped_mail_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
    return;
  }
  if (tap_ != nullptr) tap_(*mail);
  const net::NodeId pe = it->second->pe_;
  ExecuteHandler(pe, mail->kind, mail->to, [this, mail]() {
    auto it2 = processes_.find(mail->to);
    if (it2 == processes_.end()) {
      ++dropped_mail_;
      if (m_dropped_ != nullptr) m_dropped_->Increment();
      return;
    }
    handler_charged_ns_ += costs_.message_handling_ns;
    it2->second->OnMail(*mail);
  });
}

void Runtime::ExecuteHandler(net::NodeId pe, std::string name, ProcessId tid,
                             const std::function<void()>& body) {
  const sim::SimTime now = sim_->now();
  if (pe_cpu_free_at_[pe] > now) {
    // The PE is busy with an earlier handler; retry when it frees up.
    sim_->ScheduleAt(pe_cpu_free_at_[pe],
                     [this, pe, name = std::move(name), tid, body]() {
                       ExecuteHandler(pe, std::move(name), tid, body);
                     });
    return;
  }
  PRISMA_CHECK(!in_handler_) << "nested handler execution";
  const uint64_t epoch = pe_epoch_[pe];
  in_handler_ = true;
  handler_charged_ns_ = 0;
  deferred_sends_.clear();
  {
    // Ownership checker: while the handler runs, Owned<> accesses are
    // attributed to (and checked against) this process.
    auto owner = processes_.find(tid);
    CurrentProcess::Scope scope(
        tid, owner != processes_.end() ? owner->second->debug_name()
                                       : "dead-process");
    body();
  }
  const sim::SimTime charged = handler_charged_ns_;
  std::vector<Mail> sends = std::move(deferred_sends_);
  in_handler_ = false;
  handler_charged_ns_ = 0;
  deferred_sends_.clear();

  pe_cpu_free_at_[pe] = now + charged;
  pe_busy_ns_[pe] += charged;
  if (m_handlers_ != nullptr) {
    m_handlers_->Increment();
    m_pe_cpu_[pe]->Increment(static_cast<uint64_t>(charged));
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Span("pool", name, now, now + charged, pe, tid);
  }
  if (sends.empty()) return;
  auto release = std::make_shared<std::vector<Mail>>(std::move(sends));
  sim_->Schedule(charged, [this, pe, epoch, release]() {
    if (pe_epoch_[pe] != epoch) {
      // The PE crashed before the handler's charged work completed: its
      // output never left. (A process that merely killed itself still
      // sends: only the crash takes the CPU's pending work with it.)
      dropped_mail_ += release->size();
      if (m_dropped_ != nullptr) m_dropped_->Increment(release->size());
      return;
    }
    for (Mail& m : *release) {
      DispatchMail(std::make_shared<Mail>(std::move(m)));
    }
  });
}

}  // namespace prisma::pool
