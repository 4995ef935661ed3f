#include "gdh/data_dictionary.h"

namespace prisma::gdh {

const char* ReplicaStateName(ReplicaState state) {
  switch (state) {
    case ReplicaState::kInSync:
      return "in_sync";
    case ReplicaState::kStale:
      return "stale";
    case ReplicaState::kResyncing:
      return "resyncing";
  }
  return "unknown";
}

StatusOr<Schema> DataDictionary::GetTableSchema(
    const std::string& table) const {
  ASSIGN_OR_RETURN(const TableInfo* info, GetTable(table));
  return info->schema;
}

StatusOr<TableInfo*> DataDictionary::CreateTable(
    const std::string& table, Schema schema,
    FragmentationSpec fragmentation) {
  if (tables_.contains(table)) {
    return AlreadyExistsError("table " + table + " already exists");
  }
  if (schema.num_columns() == 0) {
    return InvalidArgumentError("table " + table + " has no columns");
  }
  auto info = std::make_unique<TableInfo>();
  info->name = table;
  info->schema = std::move(schema);
  info->fragmentation = fragmentation;
  info->fragmenter = std::make_unique<Fragmenter>(std::move(fragmentation));
  for (int i = 0; i < info->fragmentation.num_fragments; ++i) {
    FragmentInfo frag;
    frag.name = FragmentName(table, i);
    info->fragments.push_back(std::move(frag));
  }
  // Every fragment indexes the column it is placed by, so a statement the
  // GDH prunes to one fragment by its key probes there instead of scanning.
  const sql::FragmentStrategy strategy = info->fragmentation.strategy;
  if (strategy == sql::FragmentStrategy::kHash ||
      strategy == sql::FragmentStrategy::kRange) {
    info->indexes.push_back(
        IndexInfo{KeyIndexName(table),
                  {info->fragmentation.column},
                  /*ordered=*/strategy == sql::FragmentStrategy::kRange});
  }
  TableInfo* raw = info.get();
  tables_[table] = std::move(info);
  return raw;
}

Status DataDictionary::DropTable(const std::string& table) {
  if (tables_.erase(table) == 0) {
    return NotFoundError("no table named " + table);
  }
  return Status::OK();
}

StatusOr<TableInfo*> DataDictionary::GetTable(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return NotFoundError("no table named " + table);
  return it->second.get();
}

StatusOr<const TableInfo*> DataDictionary::GetTable(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return NotFoundError("no table named " + table);
  return it->second.get();
}

Status DataDictionary::AddIndex(const std::string& table, IndexInfo index) {
  ASSIGN_OR_RETURN(TableInfo * info, GetTable(table));
  for (const IndexInfo& existing : info->indexes) {
    if (existing.name == index.name) {
      return AlreadyExistsError("index " + index.name + " already exists");
    }
  }
  info->indexes.push_back(std::move(index));
  return Status::OK();
}

std::vector<std::string> DataDictionary::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace prisma::gdh
