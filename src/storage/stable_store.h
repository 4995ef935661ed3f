#ifndef PRISMA_STORAGE_STABLE_STORE_H_
#define PRISMA_STORAGE_STABLE_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace prisma::storage {

/// Latency model of the disk attached to a disk-equipped PE (§3.2: "some
/// of the processing elements will also be connected to secondary storage").
/// Defaults model a late-1980s Winchester drive; the point of experiment E3
/// is the orders-of-magnitude gap to main memory, not the absolute values.
struct DiskModel {
  /// Average positioning time (seek + rotational latency) per operation.
  sim::SimTime access_ns = 25 * sim::kNanosPerMilli;
  /// Sequential transfer rate.
  int64_t bandwidth_bytes_per_sec = 1'000'000;
  /// Cost of transferring `bytes` after positioning.
  sim::SimTime TransferNs(size_t bytes) const {
    return static_cast<sim::SimTime>(bytes) * sim::kNanosPerSecond /
           bandwidth_bytes_per_sec;
  }
  /// Full cost of one random I/O of `bytes`.
  sim::SimTime IoNs(size_t bytes) const { return access_ns + TransferNs(bytes); }
};

/// One logical write to stable storage: operations that land together and
/// in order — records appended to named streams, a snapshot overwrite, and
/// the truncation of a stream a snapshot supersedes. Built by the writer
/// and handed to its PE's disk (pool::Disk), which applies it to the
/// StableStore only once the modelled I/O has completed.
class StableWrite {
 public:
  StableWrite& Append(std::string stream, std::string record);
  StableWrite& Snapshot(std::string name, std::string bytes);
  StableWrite& Truncate(std::string stream);
  /// Deletes a snapshot (the fragment it checkpoints was dropped).
  StableWrite& DropSnapshot(std::string name);
  /// Appends `next`'s operations after this write's.
  StableWrite& Then(StableWrite next);

  /// Payload bytes the disk has to transfer.
  size_t bytes() const { return bytes_; }
  /// Records (appends and snapshots) carried.
  size_t records() const { return records_; }
  bool empty() const { return ops_.empty(); }

 private:
  friend class StableStore;
  struct Op {
    enum class Kind : uint8_t {
      kAppend,
      kSnapshot,
      kTruncate,
      kDropSnapshot
    } kind;
    std::string name;
    std::string bytes;
  };
  std::vector<Op> ops_;
  size_t bytes_ = 0;
  size_t records_ = 0;
};

/// Crash-surviving storage of one disk-equipped PE: named append-only
/// streams (write-ahead logs) and named overwritable snapshots
/// (checkpoints). Contents survive PE process crashes in the simulation —
/// a "crash" kills the POOL-X processes but not this object, exactly like
/// a machine losing memory but not its disk.
///
/// The store is the passive medium: it holds what has landed. Writes reach
/// it through the PE's disk device (pool::Disk), which models their
/// duration on the simulator clock; reads return their simulated duration
/// so a recovering process can charge it.
class StableStore {
 public:
  explicit StableStore(DiskModel model = {}) : model_(model) {}

  const DiskModel& model() const { return model_; }

  /// Lands a write: applies its operations in order.
  void Apply(StableWrite write);

  /// All records of a stream in append order (empty if absent).
  const std::vector<std::string>& ReadStream(const std::string& stream) const;

  /// Simulated duration of sequentially reading the whole stream.
  sim::SimTime StreamReadNs(const std::string& stream) const;

  /// Reads a snapshot; kNotFound if absent. Duration via SnapshotReadNs.
  StatusOr<std::string> ReadSnapshot(const std::string& name) const;
  sim::SimTime SnapshotReadNs(const std::string& name) const;

  size_t stream_bytes(const std::string& stream) const;
  size_t total_bytes() const;

 private:
  DiskModel model_;
  std::map<std::string, std::vector<std::string>> streams_;
  std::map<std::string, size_t> stream_sizes_;
  std::map<std::string, std::string> snapshots_;
};

}  // namespace prisma::storage

#endif  // PRISMA_STORAGE_STABLE_STORE_H_
