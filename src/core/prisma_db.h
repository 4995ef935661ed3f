#ifndef PRISMA_CORE_PRISMA_DB_H_
#define PRISMA_CORE_PRISMA_DB_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/executor.h"
#include "exec/ofm.h"
#include "exec/transitive_closure.h"
#include "gdh/gdh_process.h"
#include "gdh/pe_registry.h"
#include "gdh/plan_cache.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pool/runtime.h"
#include "sim/simulator.h"
#include "storage/memory_tracker.h"
#include "storage/stable_store.h"

namespace prisma::core {

/// Interconnect families supported by the machine (§3.2: "mesh-like or a
/// variant of a chordal ring").
enum class TopologyKind : uint8_t {
  kMesh,
  kTorus,
  kChordalRing,
  kRing,
  kFullyConnected,
};

/// Configuration of one simulated PRISMA machine. The defaults are the
/// paper's prototype: 64 PEs, 16 MB each, 10 Mbit/s links, mesh topology.
struct MachineConfig {
  int pes = 64;
  TopologyKind topology = TopologyKind::kMesh;
  /// Chord stride for kChordalRing.
  int chord = 8;
  net::LinkParams link;
  pool::CostModel costs;
  gdh::OptimizerRules rules;
  exec::ExprMode expr_mode = exec::ExprMode::kCompiled;
  exec::OfmType base_ofm_type = exec::OfmType::kFull;
  /// Place every permanent fragment on two distinct PEs (primary home +
  /// backup), route writes to both through 2PC, and fail reads over to the
  /// surviving replica when one PE is down (DESIGN.md §13). Requires at
  /// least two fragment PEs; kFull base OFMs only.
  bool replicate_fragments = false;
  /// PEs eligible to host query coordinators, used round-robin. Empty =
  /// each coordinator runs on its client's PE (PE 0), where its result
  /// must end up. Pinning coordinators to PE 0 (which never crashes)
  /// isolates replica-failover behaviour from coordinator loss in
  /// availability experiments; listing every PE spreads them.
  std::vector<int> coordinator_pes;
  storage::DiskModel disk;
  size_t pe_memory_bytes = storage::kDefaultPeMemoryBytes;
  /// The machine's retransmission policy (gdh::RetransmitPolicy, used by
  /// every RPC and batch stream): first resend delay, backoff cap and
  /// total attempts before an operation degrades to kUnavailable.
  /// 0 = auto: a fault-free machine uses 10 s (WAL and checkpoint flushes
  /// cost tens of virtual milliseconds, so an aggressive timer would
  /// retransmit spuriously; 10 s never fires in practice and preserves
  /// pre-retransmission behaviour), while a machine with an active fault
  /// plan uses 250 ms / 2 s so lost messages are recovered promptly.
  sim::SimTime rpc_timeout_ns = 0;
  sim::SimTime rpc_backoff_cap_ns = 0;
  int rpc_attempts = 6;
  /// Streaming exchange framing (DESIGN.md §10): max tuples per batch of
  /// a shuffle channel, and batches in flight per channel before the
  /// producer stalls on acks.
  uint64_t exchange_batch_rows = 64;
  uint64_t exchange_credit_window = 4;
  /// PRISMAlog linear recursion over a fragmented edge relation runs as a
  /// distributed semi-naive fixpoint (DESIGN.md §11); this picks the
  /// per-round join strategy of its partitions.
  exec::TcAlgorithm fixpoint_algorithm = exec::TcAlgorithm::kSeminaive;
  /// Entry bound of the machine-wide shared plan cache (DESIGN.md §15.4):
  /// repeated parameterized SELECTs skip parse/bind/optimize/split and
  /// reuse the cached DistributedPlan. 0 disables the cache (every
  /// statement planned from scratch — the PR-9 behaviour).
  size_t plan_cache_capacity = 256;
  /// Deterministic fault injection (message drops/duplicates/jitter, link
  /// outages, PE crash/restart schedule). An inert (default) plan leaves
  /// the machine's behaviour and metrics byte-identical to a build without
  /// fault injection. When the plan is active, the statement-done and
  /// coordinator supervision timers are enabled automatically so every
  /// statement still terminates under message loss.
  net::FaultPlan fault_plan;
  /// Record virtual-time spans/events for DumpTrace. Off by default:
  /// long soaks would otherwise accumulate unbounded event buffers.
  bool enable_tracing = false;
};

/// Result of one statement.
struct QueryResult {
  Schema schema;
  std::vector<Tuple> tuples;
  uint64_t affected_rows = 0;
  /// Transaction id (BEGIN statements).
  exec::TxnId txn = exec::kAutoCommit;
  /// Virtual time from submission to the client receiving the reply.
  sim::SimTime response_time_ns = 0;
};

/// The PRISMA database machine: a 64-PE (configurable) multi-computer in
/// a discrete-event simulation, running the Global Data Handler plus
/// One-Fragment Managers as POOL-X processes, with SQL and PRISMAlog
/// interfaces (§2.2).
///
/// Synchronous calls (Execute/ExecutePrismalog and Session::Execute) run
/// the simulation until the statement's reply arrives. The asynchronous
/// Submit/Run pair drives multi-client experiments; all timings are in
/// virtual nanoseconds and deterministic.
class PrismaDb {
 public:
  explicit PrismaDb(MachineConfig config = MachineConfig());
  ~PrismaDb();

  PrismaDb(const PrismaDb&) = delete;
  PrismaDb& operator=(const PrismaDb&) = delete;

  // ------------------------------------------------------ Synchronous API

  /// Executes one auto-commit SQL statement.
  StatusOr<QueryResult> Execute(const std::string& sql);

  /// Evaluates a PRISMAlog program ending in a query.
  StatusOr<QueryResult> ExecutePrismalog(const std::string& program);

  /// A session carries an explicit transaction across statements:
  /// BEGIN binds it, COMMIT/ABORT clears it.
  class Session {
   public:
    StatusOr<QueryResult> Execute(const std::string& sql);
    exec::TxnId txn() const { return txn_; }
    bool in_transaction() const { return txn_ != exec::kAutoCommit; }

   private:
    friend class PrismaDb;
    explicit Session(PrismaDb* db) : db_(db) {}
    PrismaDb* db_;
    exec::TxnId txn_ = exec::kAutoCommit;
  };
  Session OpenSession() { return Session(this); }

  // ----------------------------------------------------- Asynchronous API

  using ReplyCallback = std::function<void(const gdh::ClientReply&,
                                           sim::SimTime response_ns)>;

  /// Schedules a statement submission `delay` virtual ns from now; the
  /// callback fires when the reply reaches the client process.
  uint64_t Submit(const std::string& text, bool prismalog, exec::TxnId txn,
                  ReplyCallback callback, sim::SimTime delay = 0);

  /// Runs the simulation until the event queue drains.
  void Run() { sim_.Run(); }

  // -------------------------------------------------------- Control plane

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  pool::Runtime& runtime() { return *runtime_; }
  // Control-plane accessor for tests/benches, called between simulation
  // events only — never from a process handler.
  // prisma-lint: cross-process - harness-side accessor, not handler state
  gdh::GdhProcess& gdh() { return *gdh_; }
  const MachineConfig& config() const { return config_; }

  // -------------------------------------------------------- Observability

  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  /// Machine-wide shared plan cache (control-plane view: hit/miss/epoch
  /// counters for benches and tests).
  gdh::PlanCache& plan_cache() { return plan_cache_; }

  /// Text dump of every metric, after syncing derived gauges (per-PE busy
  /// time, simulator event counts, lock-manager counters). Byte-identical
  /// across same-seed runs.
  std::string DumpMetrics();

  /// Chrome trace_event JSON of everything recorded so far (empty trace
  /// unless MachineConfig::enable_tracing or tracer().set_enabled(true)).
  std::string DumpTrace() const { return tracer_.DumpJson(); }

  /// Kills / restores one fragment's OFM (failure injection).
  Status CrashFragment(const std::string& table, int fragment) {
    return gdh_->CrashFragment(table, fragment);
  }
  Status RecoverFragment(const std::string& table, int fragment) {
    return gdh_->RecoverFragment(table, fragment);
  }

  /// Kills every process on `pe` (fragment managers AND query
  /// coordinators) — a whole-PE crash. PE 0 hosts the GDH and the client
  /// endpoint and must not be crashed. Returns the victim count.
  size_t CrashPe(net::NodeId pe);
  /// Restarts `pe`: respawns its dead fragment managers, which recover
  /// from the PE's stable store and resolve in-doubt transactions with
  /// the GDH.
  Status RecoverPe(net::NodeId pe) { return gdh_->RecoverPe(pe); }

  /// Per-PE CPU busy time and stable stores, for reporting.
  sim::SimTime PeBusyNs(net::NodeId pe) const {
    return runtime_->pe_busy_ns(pe);
  }
  storage::StableStore& stable_store(net::NodeId pe) {
    return *stable_[pe];
  }
  storage::MemoryTracker& memory_tracker(net::NodeId pe) {
    return *memory_[pe];
  }

 private:
  class ClientProcess;

  static net::Topology MakeTopology(const MachineConfig& config);

  StatusOr<QueryResult> ExecuteInternal(const std::string& text,
                                        bool prismalog, exec::TxnId txn);

  MachineConfig config_;
  sim::Simulator sim_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  // Declaration order matters: the runtime's processes (OFMs) release
  // memory into the trackers, touch stable stores and unregister from the
  // fragment registry on destruction, so all of these must outlive
  // runtime_.
  std::vector<std::unique_ptr<storage::MemoryTracker>> memory_;
  std::vector<std::unique_ptr<storage::StableStore>> stable_;
  gdh::PeLocalRegistry registry_;
  /// Machine-level shared structure like registry_: probed/filled by
  /// query coordinators, invalidated by the GDH (DESIGN.md §15.4).
  gdh::PlanCache plan_cache_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<pool::Runtime> runtime_;
  // PrismaDb is the simulation harness, not a POOL-X process; it drives
  // the GDH between events and owns the machine the processes live in.
  // prisma-lint: cross-process - harness owns the runtime, shares no events
  gdh::GdhProcess* gdh_ = nullptr;  // Owned by the runtime.
  ClientProcess* client_ = nullptr;  // Owned by the runtime.
  pool::ProcessId gdh_pid_ = pool::kNoProcess;
  pool::ProcessId client_pid_ = pool::kNoProcess;
  uint64_t next_request_id_ = 1;
};

}  // namespace prisma::core

#endif  // PRISMA_CORE_PRISMA_DB_H_
