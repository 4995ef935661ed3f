#include "core/prisma_db.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "gdh/messages.h"

namespace prisma::core {

/// The client endpoint: a POOL-X process through which sessions submit
/// statements and receive replies. One shared instance multiplexes all
/// outstanding requests by id.
class PrismaDb::ClientProcess : public pool::Process {
 public:
  ClientProcess(pool::ProcessId* gdh_pid, obs::MetricsRegistry* metrics)
      : gdh_pid_(gdh_pid),
        metrics_(metrics),
        m_frames_(metrics->GetCounter("query.reply_frames")) {}

  std::string debug_name() const override { return "client"; }

  // Handler contract (D5): the client shim consumes only statement replies.
  // PRISMA_HANDLES(kMailClientReply)
  void OnMail(const pool::Mail& mail) override {
    if (mail.kind != gdh::kMailClientReply) return;
    auto frame = std::any_cast<std::shared_ptr<gdh::ClientReply>>(mail.body);
    m_frames_->Increment();
    auto it = pending_->find(frame->request_id);
    // Answered already: a late frame of a discarded train, or the GDH's
    // error for a coordinator whose reply got through first.
    if (it == pending_->end()) return;
    // Rows cross the wire as column frames (DESIGN.md §12.2). A frame
    // that does not decode fails the request with its typed error.
    StatusOr<std::vector<Tuple>> rows = gdh::TupleBatchRows(frame->rows);
    auto reply = std::make_shared<gdh::ClientReply>(*frame);
    reply->rows = nullptr;
    if (!rows.ok()) {
      reply->status = rows.status();
    } else if (frame->status.ok() && (frame->frame > 0 || !frame->last)) {
      // Frame train (DESIGN.md §15.5): reassemble by frame index. Frames
      // of one coordinator share a route and normally land in order, but
      // mail a crashed coordinator sent in its final handler may overtake
      // earlier frames still in transit.
      Pending& train = it->second;
      if (train.frames.size() <= frame->frame) {
        train.frames.resize(frame->frame + 1);
      }
      train.frames[frame->frame] = std::move(rows).value();
      if (frame->frame == 0) train.schema = frame->schema;
      ++train.received;
      if (frame->last) train.total = frame->frame + 1;
      if (train.received != train.total) return;
      reply->schema = train.schema;
      reply->frame = 0;
      reply->last = true;
      reply->tuples = std::make_shared<std::vector<Tuple>>();
      for (std::vector<Tuple>& part : train.frames) {
        reply->tuples->insert(reply->tuples->end(),
                              std::make_move_iterator(part.begin()),
                              std::make_move_iterator(part.end()));
      }
    } else if (frame->rows != nullptr) {
      reply->tuples =
          std::make_shared<std::vector<Tuple>>(std::move(rows).value());
    }
    // Any non-OK reply resolves the request and discards a partial train:
    // the session sees a typed error, never a truncated result.
    Pending pending = std::move(it->second);
    pending_->erase(it);
    const sim::SimTime latency =
        runtime()->simulator()->now() - pending.submitted_at;
    metrics_
        ->GetGauge("query.delivered_ns",
                   {{"query", std::to_string(frame->request_id)}})
        ->Set(latency);
    pending.callback(*reply, latency);
  }

  /// Called from outside the simulation: registers the request and sends
  /// the statement to the GDH at the current instant. This runs on the
  /// control plane (no handler active), so the ownership check passes.
  void SubmitNow(uint64_t id, std::shared_ptr<gdh::ClientStatement> statement,
                 ReplyCallback callback) {
    Pending& pending = (*pending_)[id];
    pending.submitted_at = runtime()->simulator()->now();
    pending.callback = std::move(callback);
    pool::Mail mail;
    mail.from = self();
    mail.to = *gdh_pid_;
    mail.kind = gdh::kMailClientStatement;
    mail.size_bits =
        gdh::kControlBits + static_cast<int64_t>(statement->text.size()) * 8;
    mail.body = std::move(statement);
    runtime()->Send(std::move(mail));
  }

 private:
  struct Pending {
    sim::SimTime submitted_at = 0;
    ReplyCallback callback;
    /// Decoded rows of a multi-frame reply by frame index, and frame 0's
    /// schema; `total` is known once the `last` frame is in (0 until then).
    std::vector<std::vector<Tuple>> frames;
    Schema schema;
    size_t received = 0;
    size_t total = 0;
  };
  pool::ProcessId* gdh_pid_;
  obs::MetricsRegistry* metrics_;
  obs::Counter* m_frames_;
  // Process-local state wrapped in the ownership checker (pool/owned.h).
  pool::Owned<std::map<uint64_t, Pending>> pending_;
};

net::Topology PrismaDb::MakeTopology(const MachineConfig& config) {
  const int n = config.pes;
  switch (config.topology) {
    case TopologyKind::kMesh:
    case TopologyKind::kTorus: {
      // Most square factorization of n.
      int rows = static_cast<int>(std::sqrt(static_cast<double>(n)));
      while (rows > 1 && n % rows != 0) --rows;
      const int cols = n / rows;
      return config.topology == TopologyKind::kMesh
                 ? net::Topology::Mesh(rows, cols)
                 : net::Topology::Torus(rows, cols);
    }
    case TopologyKind::kChordalRing:
      return net::Topology::ChordalRing(n, config.chord);
    case TopologyKind::kRing:
      return net::Topology::Ring(n);
    case TopologyKind::kFullyConnected:
      return net::Topology::FullyConnected(n);
  }
  return net::Topology::Mesh(1, n);
}

PrismaDb::PrismaDb(MachineConfig config)
    : config_(std::move(config)), plan_cache_(config_.plan_cache_capacity) {
  PRISMA_CHECK(config_.pes >= 1);
  tracer_.set_enabled(config_.enable_tracing);
  plan_cache_.AttachMetrics(&metrics_);
  network_ = std::make_unique<net::Network>(&sim_, MakeTopology(config_),
                                            config_.link);
  network_->AttachObservability(&metrics_, &tracer_);
  const bool faults = config_.fault_plan.active() ||
                      !config_.fault_plan.pe_crashes.empty();
  if (faults) {
    network_->SetFaultPlan(config_.fault_plan);
  }
  runtime_ =
      std::make_unique<pool::Runtime>(&sim_, network_.get(), config_.costs);
  runtime_->AttachObservability(&metrics_, &tracer_);

  const int n = network_->topology().num_nodes();
  for (int pe = 0; pe < n; ++pe) {
    memory_.push_back(
        std::make_unique<storage::MemoryTracker>(config_.pe_memory_bytes));
    stable_.push_back(std::make_unique<storage::StableStore>(config_.disk));
    runtime_->AttachDisk(pe, stable_.back().get());
  }

  gdh::GdhProcess::Config gdh_config;
  // The GDH lives on PE 0. A table's fragments go to the other PEs, and
  // to PE 0 as well only when the table has more fragments than they are,
  // so every PE holds its share (gdh::AllocateFragments). Coordinators
  // run on the client's PE unless the config pins them, so a result's
  // merge and gather happen where the result must end up (§3.1's
  // explicit allocation).
  for (int pe = (n > 1 ? 1 : 0); pe < n; ++pe) {
    gdh_config.fragment_pes.push_back(pe);
  }
  for (int pe : config_.coordinator_pes) {
    PRISMA_CHECK(pe >= 0 && pe < n);
    gdh_config.coordinator_pes.push_back(pe);
  }
  for (int pe = 0; pe < n; ++pe) {
    gdh_config.resources[pe] = gdh::GdhProcess::PeResources{
        memory_[pe].get()};
  }
  gdh_config.replicate_fragments = config_.replicate_fragments;
  PRISMA_CHECK(!config_.replicate_fragments ||
               gdh_config.fragment_pes.size() >= 2);
  gdh_config.base_ofm_type = config_.base_ofm_type;
  // The machine's settings, built once here and copied whole into every
  // process (gdh/machine_params.h); CPU costs live in the runtime.
  gdh::MachineParams& machine = gdh_config.machine;
  machine.rules = config_.rules;
  machine.expr_mode = config_.expr_mode;
  machine.registry = &registry_;
  machine.plan_cache = &plan_cache_;
  // The machine's one retransmission policy (gdh/transport.h). Auto
  // timeouts (see MachineConfig): effectively silent when fault-free,
  // snappy when messages can actually be lost.
  gdh::RetransmitPolicy& retransmit = machine.retransmit;
  retransmit.timeout_ns =
      config_.rpc_timeout_ns > 0
          ? config_.rpc_timeout_ns
          : (faults ? 250 * sim::kNanosPerMilli : 10 * sim::kNanosPerSecond);
  retransmit.backoff_cap_ns =
      config_.rpc_backoff_cap_ns > 0
          ? config_.rpc_backoff_cap_ns
          : (faults ? 2 * sim::kNanosPerSecond : 10 * sim::kNanosPerSecond);
  retransmit.attempts = config_.rpc_attempts;
  machine.exchange_batch_rows = config_.exchange_batch_rows;
  machine.exchange_credit_window = config_.exchange_credit_window;
  machine.fixpoint_algorithm = config_.fixpoint_algorithm;
  if (faults) {
    // Under a faulty interconnect the stmt_done report, final replies,
    // fixpoint directives and the coordinator itself can be lost; the
    // resend and supervision timers guarantee statements terminate
    // anyway. They stay off in fault-free runs so behaviour and metrics
    // are unchanged.
    retransmit.resend_ns = 200 * sim::kNanosPerMilli;
    gdh_config.coord_check_ns = sim::kNanosPerSecond;
  }
  machine.metrics = &metrics_;
  machine.tracer = &tracer_;

  auto gdh = std::make_unique<gdh::GdhProcess>(std::move(gdh_config));
  gdh_ = gdh.get();
  gdh_pid_ = runtime_->Spawn(0, std::move(gdh));

  auto client = std::make_unique<ClientProcess>(&gdh_pid_, &metrics_);
  client_ = client.get();
  client_pid_ = runtime_->Spawn(0, std::move(client));
  if (faults) {
    // The client link models the host interface, not the interconnect:
    // statements and their replies are never faulted (the DBMS-internal
    // traffic they trigger is).
    const pool::ProcessId client_pid = client_pid_;
    network_->SetFaultExempt([client_pid](const net::Message& message) {
      const auto* mail =
          std::any_cast<std::shared_ptr<pool::Mail>>(&message.payload);
      if (mail == nullptr) return false;
      return (*mail)->from == client_pid || (*mail)->to == client_pid;
    });
  }
  sim_.Run();  // Let OnStart handlers settle.
  // Scheduled PE crash/restart events from the fault plan.
  for (const net::PeCrashEvent& event : config_.fault_plan.pe_crashes) {
    PRISMA_CHECK(event.pe != 0);  // PE 0 hosts the GDH and the client.
    PRISMA_CHECK(event.pe < network_->topology().num_nodes());
    sim_.ScheduleAt(event.at_ns, [this, pe = event.pe] { CrashPe(pe); });
    if (event.restart_at_ns >= 0) {
      PRISMA_CHECK(event.restart_at_ns >= event.at_ns);
      sim_.ScheduleAt(event.restart_at_ns, [this, pe = event.pe] {
        PRISMA_CHECK_OK(gdh_->RecoverPe(pe));
      });
    }
  }
}

size_t PrismaDb::CrashPe(net::NodeId pe) {
  PRISMA_CHECK(pe != 0);  // PE 0 hosts the GDH and the client endpoint.
  return runtime_->CrashPe(pe);
}

PrismaDb::~PrismaDb() = default;

std::string PrismaDb::DumpMetrics() {
  // Derived levels are pulled into gauges at dump time rather than being
  // pushed on every change; counters owned by components are already live.
  const int n = network_->topology().num_nodes();
  for (int pe = 0; pe < n; ++pe) {
    metrics_.GetGauge("pe.busy_ns", {{"pe", std::to_string(pe)}})
        ->Set(runtime_->pe_busy_ns(pe));
  }
  metrics_.GetGauge("sim.now_ns")->Set(sim_.now());
  metrics_.GetGauge("sim.events_scheduled")
      ->Set(static_cast<int64_t>(sim_.events_scheduled()));
  metrics_.GetGauge("sim.events_cancelled")
      ->Set(static_cast<int64_t>(sim_.events_cancelled()));
  metrics_.GetGauge("sim.tombstones_pending")
      ->Set(static_cast<int64_t>(sim_.tombstones_pending()));
  const gdh::LockManager& locks = gdh_->locks();
  metrics_.GetGauge("lock.granted")
      ->Set(static_cast<int64_t>(locks.locks_granted()));
  metrics_.GetGauge("lock.waits")->Set(static_cast<int64_t>(locks.waits()));
  metrics_.GetGauge("lock.deadlocks_detected")
      ->Set(static_cast<int64_t>(locks.deadlocks_detected()));
  return metrics_.DumpText();
}

uint64_t PrismaDb::Submit(const std::string& text, bool prismalog,
                          exec::TxnId txn, ReplyCallback callback,
                          sim::SimTime delay) {
  const uint64_t id = next_request_id_++;
  auto statement = std::make_shared<gdh::ClientStatement>();
  statement->request_id = id;
  statement->text = text;
  statement->is_prismalog = prismalog;
  statement->txn = txn;
  sim_.Schedule(delay, [this, id, statement = std::move(statement),
                        callback = std::move(callback)]() mutable {
    client_->SubmitNow(id, std::move(statement), std::move(callback));
  });
  return id;
}

StatusOr<QueryResult> PrismaDb::ExecuteInternal(const std::string& text,
                                                bool prismalog,
                                                exec::TxnId txn) {
  bool got_reply = false;
  QueryResult result;
  Status status;
  Submit(text, prismalog, txn,
         [&](const gdh::ClientReply& reply, sim::SimTime response_ns) {
           got_reply = true;
           status = reply.status;
           result.schema = reply.schema;
           if (reply.tuples != nullptr) result.tuples = *reply.tuples;
           result.affected_rows = reply.affected_rows;
           result.txn = reply.txn;
           result.response_time_ns = response_ns;
         },
         /*delay=*/0);
  sim_.Run();
  if (!got_reply) {
    return InternalError("statement produced no reply: " + text);
  }
  RETURN_IF_ERROR(status);
  return result;
}

StatusOr<QueryResult> PrismaDb::Execute(const std::string& sql) {
  return ExecuteInternal(sql, /*prismalog=*/false, exec::kAutoCommit);
}

StatusOr<QueryResult> PrismaDb::ExecutePrismalog(const std::string& program) {
  return ExecuteInternal(program, /*prismalog=*/true, exec::kAutoCommit);
}

StatusOr<QueryResult> PrismaDb::Session::Execute(const std::string& sql) {
  auto result = db_->ExecuteInternal(sql, /*prismalog=*/false, txn_);
  if (result.ok() && result->txn != exec::kAutoCommit) {
    txn_ = result->txn;  // BEGIN handed us a transaction.
  }
  // COMMIT/ABORT (and deadlock aborts) end the session transaction.
  if (txn_ != exec::kAutoCommit) {
    const std::string upper = AsciiLower(std::string(StripWhitespace(sql)));
    if (upper.rfind("commit", 0) == 0 || upper.rfind("abort", 0) == 0 ||
        upper.rfind("rollback", 0) == 0) {
      txn_ = exec::kAutoCommit;
    } else if (!result.ok() &&
               result.status().code() == StatusCode::kAborted) {
      txn_ = exec::kAutoCommit;  // Deadlock victim: transaction is gone.
    }
  }
  return result;
}

}  // namespace prisma::core
