#ifndef PRISMA_GDH_DATA_DICTIONARY_H_
#define PRISMA_GDH_DATA_DICTIONARY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "gdh/fragmentation.h"
#include "gdh/replication.h"
#include "net/topology.h"
#include "pool/runtime.h"
#include "sql/binder.h"

namespace prisma::gdh {

/// Placement of one fragment: which PE hosts it and which POOL-X process
/// is its One-Fragment Manager.
///
/// With replication on (DESIGN.md §13), the fragment has two replicas:
/// replica 0 is the home copy named `name`, replica 1 the backup named
/// BackupFragmentName(name) on a distinct PE (anti-affinity). Writes go to
/// every in-sync replica through 2PC; reads are served by the replica in
/// the primary role, failing over to the other in-sync replica when the
/// primary's PE is down.
struct FragmentInfo {
  std::string name;  // "emp#3".
  net::NodeId pe = 0;
  pool::ProcessId ofm = pool::kNoProcess;
  /// Live tuple count, maintained by the GDH on writes; the optimizer's
  /// size estimator reads it.
  uint64_t row_count = 0;
  /// Distinct-value estimate per column, in schema order, as the OFM's
  /// last write reply reported it (exec::DistinctSketch); empty until
  /// then. Optimizer::EstimateGroups reads it.
  std::vector<uint64_t> distinct;

  bool replicated = false;
  net::NodeId backup_pe = 0;
  pool::ProcessId backup_ofm = pool::kNoProcess;
  // PRISMA_TRANSITION(init, kInSync, replica 0 (home) is born in sync)
  ReplicaState state = ReplicaState::kInSync;
  // PRISMA_TRANSITION(init, kInSync, replica 1 (backup) is born in sync)
  ReplicaState backup_state = ReplicaState::kInSync;
  /// Which replica serves reads and sources resyncs (0 home, 1 backup).
  /// Flips to the survivor on failover; no automatic failback.
  int primary_replica = 0;

  int num_replicas() const { return replicated ? 2 : 1; }
  std::string ReplicaName(int r) const {
    return r == 0 ? name : BackupFragmentName(name);
  }
  net::NodeId ReplicaPe(int r) const { return r == 0 ? pe : backup_pe; }
  pool::ProcessId ReplicaOfm(int r) const {
    return r == 0 ? ofm : backup_ofm;
  }
  void SetReplicaOfm(int r, pool::ProcessId id) {
    (r == 0 ? ofm : backup_ofm) = id;
  }
  ReplicaState replica_state(int r) const {
    return r == 0 ? state : backup_state;
  }
  // PRISMA_STATE_SETTER(ReplicaState)
  void set_replica_state(int r, ReplicaState s) {
    (r == 0 ? state : backup_state) = s;
  }
};

struct IndexInfo {
  std::string name;
  std::vector<size_t> columns;
  bool ordered = false;
};

/// Name of the index every HASH- or RANGE-fragmented table keeps on its
/// fragmentation column ("emp#key"); no SQL identifier can take it.
inline std::string KeyIndexName(const std::string& table) {
  return table + "#key";
}

/// Catalog entry of one relation.
struct TableInfo {
  std::string name;
  Schema schema;
  FragmentationSpec fragmentation;
  std::vector<FragmentInfo> fragments;
  std::vector<IndexInfo> indexes;
  std::unique_ptr<Fragmenter> fragmenter;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const FragmentInfo& f : fragments) n += f.row_count;
    return n;
  }
};

/// The GDH's data dictionary (§2.2): schemas, fragmentation, placement and
/// statistics for every relation in the machine. Implements the binder's
/// catalog interface.
class DataDictionary : public sql::CatalogReader {
 public:
  DataDictionary() = default;

  DataDictionary(const DataDictionary&) = delete;
  DataDictionary& operator=(const DataDictionary&) = delete;

  // sql::CatalogReader:
  StatusOr<Schema> GetTableSchema(const std::string& table) const override;

  /// Registers a new table; fragment placement (pe/ofm) is filled in by
  /// the caller (the GDH's allocation step). A HASH or RANGE table gets an
  /// index on its fragmentation column (hash or ordered, respectively)
  /// named KeyIndexName(table).
  StatusOr<TableInfo*> CreateTable(const std::string& table, Schema schema,
                                   FragmentationSpec fragmentation);

  Status DropTable(const std::string& table);

  bool HasTable(const std::string& table) const {
    return tables_.contains(table);
  }

  StatusOr<TableInfo*> GetTable(const std::string& table);
  StatusOr<const TableInfo*> GetTable(const std::string& table) const;

  Status AddIndex(const std::string& table, IndexInfo index);

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::unique_ptr<TableInfo>> tables_;
};

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_DATA_DICTIONARY_H_
