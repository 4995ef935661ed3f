#ifndef PRISMA_POOL_RUNTIME_H_
#define PRISMA_POOL_RUNTIME_H_

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pool/disk.h"
#include "pool/owned.h"
#include "sim/simulator.h"

namespace prisma::pool {

/// A message between POOL-X processes. `kind` selects the handler logic,
/// `body` carries an arbitrary payload (std::shared_ptr for anything
/// non-trivial), and `size_bits` is the serialized size used to model the
/// transfer over the interconnect.
struct Mail {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  std::string kind;
  std::any body;
  int64_t size_bits = 256;
};

/// Calibrated virtual-time costs of CPU-side work, used by all PRISMA
/// components to charge their PE's (serial) processor. The defaults model a
/// late-1980s-class PE scaled to make the 10 Mbit/s links the contended
/// resource, as in the paper's design discussion.
struct CostModel {
  /// Fixed cost of handling any message (dispatch, unmarshalling).
  sim::SimTime message_handling_ns = 2'000;
  /// Cost of creating a process on a PE.
  sim::SimTime spawn_ns = 20'000;
  /// Per-tuple cost of a simple operator step (scan/filter evaluation).
  sim::SimTime tuple_ns = 400;
  /// Per-tuple cost of a hash-table insert or probe.
  sim::SimTime hash_ns = 250;
  /// Per-tuple cost of a comparison-based step (sort/merge).
  sim::SimTime compare_ns = 120;
  /// Per-VM-instruction cost of a *compiled* expression (§2.5 generative
  /// approach) vs. per-tree-node cost of the *interpreted* baseline. The
  /// gap models the interpretation overhead the OFM expression compiler
  /// removes; experiment E4 measures the real-time ratio.
  sim::SimTime compiled_instr_ns = 25;
  sim::SimTime interpreted_node_ns = 250;
  /// Vectorized execution (DESIGN.md §12). A batch kernel amortizes
  /// per-tuple dispatch: each VM instruction costs vector_batch_ns once
  /// per batch (kernel dispatch) plus vector_instr_ns per row (tight
  /// column loop, no per-row unboxing), and moving a row through a
  /// columnar operator costs batch_row_ns instead of tuple_ns. The ratios
  /// follow the measured gap between tuple-at-a-time and vectorized
  /// engines in the main-memory literature (PAPERS.md, Hespe et al.).
  sim::SimTime vector_instr_ns = 6;
  sim::SimTime vector_batch_ns = 400;
  sim::SimTime batch_row_ns = 100;
  /// Cost of parsing + optimizing a query in the GDH, per query.
  sim::SimTime optimize_ns = 300'000;
  /// Cost of normalizing a statement and probing the shared plan cache
  /// (DESIGN.md §15.4); charged instead of optimize_ns on a cache hit.
  sim::SimTime plan_cache_probe_ns = 15'000;
};

class Runtime;

/// Base class of every POOL-X process (§3.1): internally sequential,
/// communicates by message passing only, explicitly allocated to a PE.
///
/// Handlers run to completion in virtual time: CPU consumed via ChargeCpu
/// serializes with other handlers on the same PE, and outgoing mail is
/// released when the handler's charged work completes.
class Process {
 public:
  virtual ~Process() = default;

  /// Invoked once after the process is attached to its PE.
  virtual void OnStart() {}

  /// Invoked for each arriving message.
  virtual void OnMail(const Mail& mail) = 0;

  /// Human-readable name used by the ownership checker's diagnostics
  /// ("gdh", "ofm:emp#2", ...). Purely informational.
  virtual std::string debug_name() const {
    return "process-" + std::to_string(id_);
  }

  ProcessId self() const { return id_; }
  net::NodeId pe() const { return pe_; }
  Runtime* runtime() const { return runtime_; }

  // Messaging is public so that helper objects a process owns (the
  // gdh/transport.h pieces) can act for it inside its handlers.

  /// Sends a message; released onto the network when the current handler's
  /// charged CPU completes.
  void SendMail(ProcessId to, std::string kind, std::any body,
                int64_t size_bits = 256);

  /// Delivers a mail of `kind` to this process after `delay` of virtual
  /// time, without touching the network (local timer). The returned event
  /// id can cancel the timer via runtime()->simulator()->Cancel().
  sim::EventId SendSelfAfter(sim::SimTime delay, std::string kind,
                             std::any body = {});

  /// Consumes `ns` of this PE's CPU inside the current handler.
  void ChargeCpu(sim::SimTime ns);

 protected:
  /// This PE's disk, or null on a diskless PE.
  Disk* disk() const;

  /// Queues `write` on this PE's disk (which must exist) as an I/O
  /// request; the CPU is not charged. The returned ticket becomes durable
  /// when the I/O completes.
  Disk::Ticket WriteStable(storage::StableWrite write);

  /// Runs `then` in a handler of this process once `ticket` on this PE's
  /// disk is durable — at once, inline, if it already is. The completion
  /// comes back as mail of `kind`, which the subclass's OnMail must route
  /// to RunDurable; like any mail it is dropped if the process died, and a
  /// write lost to a crash never completes.
  void WhenDurable(Disk::Ticket ticket, const char* kind,
                   std::function<void()> then);

  /// Handler for the completion mail armed by WhenDurable.
  void RunDurable(const Mail& mail);

 private:
  friend class Runtime;
  /// Continuations waiting for a ticket to land, keyed by ticket.
  std::map<Disk::Ticket, std::vector<std::function<void()>>> durable_waiters_;
  Runtime* runtime_ = nullptr;
  ProcessId id_ = kNoProcess;
  net::NodeId pe_ = -1;
};

/// The POOL-X runtime: owns all processes, binds them to PEs, and moves
/// their messages over the simulated interconnect.
class Runtime {
 public:
  Runtime(sim::Simulator* sim, net::Network* network, CostModel costs = {});

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  sim::Simulator* simulator() const { return sim_; }
  net::Network* network() const { return network_; }
  const CostModel& costs() const { return costs_; }

  /// Creates a process on PE `pe` (POOL-X explicit allocation, §3.1) and
  /// schedules its OnStart. Spawning charges the target PE.
  ProcessId Spawn(net::NodeId pe, std::unique_ptr<Process> process);

  /// Destroys a process; mail already in flight to it is dropped on
  /// arrival, and its disk writes that have not landed are lost. Used by
  /// failure-injection tests to crash a component.
  void Kill(ProcessId id);

  /// Crashes a whole PE: every process hosted there dies instantly (its
  /// volatile state is lost, and so is every disk write that has not
  /// landed; stable storage survives). Mail sent by a handler whose
  /// charged CPU had not completed never leaves (counted as dropped).
  /// Counts the crash under pe.crashes{pe}. Returns the number of
  /// processes killed.
  size_t CrashPe(net::NodeId pe);

  /// Equips PE `pe` with a disk over `store` (paper §3.2: some PEs have
  /// disks). Returns the device, which the runtime owns.
  Disk* AttachDisk(net::NodeId pe, storage::StableStore* store);

  /// PE `pe`'s disk, or null if it has none.
  Disk* disk(net::NodeId pe) const { return disks_[pe].get(); }

  /// Total PE crashes injected via CrashPe.
  uint64_t pe_crashes() const { return pe_crashes_; }

  bool IsAlive(ProcessId id) const { return processes_.contains(id); }
  net::NodeId PeOf(ProcessId id) const;

  /// Sends mail on behalf of `mail.from`; queues behind the sender's
  /// charged CPU when called from inside a handler.
  void Send(Mail mail);

  /// Total messages dropped because the target process was dead.
  uint64_t dropped_mail() const { return dropped_mail_; }

  /// For tests: `tap` sees, and may rewrite, every mail as it reaches its
  /// destination PE, before the handler runs. Null removes it.
  void SetMailTap(std::function<void(Mail&)> tap) { tap_ = std::move(tap); }

  /// Mirrors runtime activity into the registry (pool.handlers_executed,
  /// pool.mail_sent{kind}, pool.mail_dropped, pe.cpu_ns{pe}) and, when the
  /// tracer is enabled, records one span per executed handler (pid = PE,
  /// tid = process id, name = mail kind). Either pointer may be null.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

  /// Accumulated CPU busy time of a PE (for utilization reporting).
  sim::SimTime pe_busy_ns(net::NodeId pe) const { return pe_busy_ns_[pe]; }

  /// Number of live processes.
  size_t num_processes() const { return processes_.size(); }

 private:
  friend class Process;

  /// Mail has arrived at its destination PE; queue handler execution
  /// behind the PE's CPU.
  void MailArrived(std::shared_ptr<Mail> mail);

  /// Runs one handler at the current instant, accounting charged CPU and
  /// releasing deferred sends at handler completion. `name` and `tid`
  /// label the handler's trace span (mail kind / destination process).
  void ExecuteHandler(net::NodeId pe, std::string name, ProcessId tid,
                      const std::function<void()>& body);

  void DispatchMail(const std::shared_ptr<Mail>& mail);

  sim::Simulator* sim_;
  net::Network* network_;
  CostModel costs_;

  ProcessId next_id_ = 1;
  /// Ordered by id so whole-PE sweeps (CrashPe) visit processes in a
  /// deterministic order.
  std::map<ProcessId, std::unique_ptr<Process>> processes_;

  std::vector<sim::SimTime> pe_cpu_free_at_;
  std::vector<std::unique_ptr<Disk>> disks_;  // Indexed by PE; null = none.
  std::vector<sim::SimTime> pe_busy_ns_;
  /// Per-PE crash count: a handler's deferred sends are released only if
  /// its PE has not crashed since the handler started.
  std::vector<uint64_t> pe_epoch_;

  // State of the handler currently executing (nullptr outside handlers).
  bool in_handler_ = false;
  sim::SimTime handler_charged_ns_ = 0;
  std::vector<Mail> deferred_sends_;

  uint64_t dropped_mail_ = 0;
  uint64_t pe_crashes_ = 0;
  std::function<void(Mail&)> tap_;

  // Cached registry entries (null until AttachObservability).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_handlers_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  std::vector<obs::Counter*> m_pe_cpu_;  // pe.cpu_ns{pe}, indexed by PE.
  std::unordered_map<std::string, obs::Counter*> m_mail_kind_;
  /// pool.mail_bits{kind}: modelled wire bits per mail kind. This is what
  /// makes reply payloads (e.g. exec_plan_reply tuples) attributable in
  /// traffic accounting — net.link_bits is a single per-hop total.
  std::unordered_map<std::string, obs::Counter*> m_mail_bits_;
};

}  // namespace prisma::pool

#endif  // PRISMA_POOL_RUNTIME_H_
