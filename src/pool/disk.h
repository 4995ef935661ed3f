#ifndef PRISMA_POOL_DISK_H_
#define PRISMA_POOL_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pool/owned.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"

namespace prisma::pool {

/// The disk of one disk-equipped PE (§3.2: "some PEs have disks for stable
/// storage and automatic recovery") as a device with its own FIFO queue on
/// the simulator clock. A write is an I/O request: the submitting process
/// keeps its CPU and goes on handling mail, and the request lands in the
/// StableStore — becomes durable — only when its modelled I/O completes.
///
/// Group commit: requests that queue while the device is busy go out
/// together as one physical write when it frees up — one positioning delay
/// plus the combined transfer. There is no timer window: an idle device
/// starts a request at once, so batching never delays a write.
///
/// Crashes: a PE crash loses every write that has not landed (queued or in
/// progress), and a killed process loses its own. A lost write never lands
/// and its completion callbacks never run.
class Disk {
 public:
  /// Identifies one submitted write; tickets grow in submission order,
  /// which is also landing order.
  using Ticket = uint64_t;

  Disk(sim::Simulator* sim, storage::StableStore* store, net::NodeId pe);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// What has landed so far (reads at recovery go straight to it).
  storage::StableStore& store() const { return *store_; }

  /// Queues `write` on behalf of `owner` and returns its ticket.
  Ticket Submit(ProcessId owner, storage::StableWrite write);

  /// True once the write with this ticket has landed (0 = "nothing
  /// written" is always durable). A lost write's ticket is only ever
  /// asked about by its dead owner.
  bool Durable(Ticket ticket) const { return ticket <= landed_; }

  /// Runs `done` right after the write with this ticket lands, in the
  /// completion event; at once if it already has. Never runs if the write
  /// is lost.
  void WhenDurable(Ticket ticket, std::function<void()> done);

  /// The process died: its writes that have not landed are lost.
  void DropOwner(ProcessId owner);

  /// The PE crashed: the write in progress and the whole queue are lost
  /// and the device is idle again.
  void Crash();

  /// Registers disk.* series labelled with this PE on the first physical
  /// write, and records one disk.write span per physical write on the PE's
  /// trace row (tid 0). Either pointer may be null.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

  bool busy() const { return busy_; }
  size_t queued() const { return queue_.size(); }
  /// Physical writes started so far.
  uint64_t physical_writes() const { return physical_writes_; }

 private:
  struct Request {
    Ticket ticket = 0;
    ProcessId owner = kNoProcess;
    storage::StableWrite write;
    sim::SimTime submitted_at = 0;
    std::vector<std::function<void()>> done;
  };

  /// Starts one physical write carrying every queued request.
  void StartWrite();
  /// The physical write in progress completed: land its requests in FIFO
  /// order, run their callbacks, and start the next one.
  void CompleteWrite();

  sim::Simulator* sim_;
  storage::StableStore* store_;
  net::NodeId pe_;

  std::deque<Request> queue_;
  std::vector<Request> in_progress_;
  bool busy_ = false;
  sim::EventId completion_ = 0;  // Valid while busy_.
  Ticket next_ticket_ = 1;
  Ticket landed_ = 0;
  uint64_t physical_writes_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_busy_ns_ = nullptr;
  obs::Counter* m_queue_wait_ns_ = nullptr;
  obs::Histogram* m_records_per_write_ = nullptr;
};

}  // namespace prisma::pool

#endif  // PRISMA_POOL_DISK_H_
