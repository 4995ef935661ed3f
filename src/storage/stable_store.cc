#include "storage/stable_store.h"

#include <iterator>

namespace prisma::storage {

StableWrite& StableWrite::Append(std::string stream, std::string record) {
  bytes_ += record.size();
  ++records_;
  ops_.push_back({Op::Kind::kAppend, std::move(stream), std::move(record)});
  return *this;
}

StableWrite& StableWrite::Snapshot(std::string name, std::string bytes) {
  bytes_ += bytes.size();
  ++records_;
  ops_.push_back({Op::Kind::kSnapshot, std::move(name), std::move(bytes)});
  return *this;
}

StableWrite& StableWrite::Truncate(std::string stream) {
  ops_.push_back({Op::Kind::kTruncate, std::move(stream), {}});
  return *this;
}

StableWrite& StableWrite::DropSnapshot(std::string name) {
  ops_.push_back({Op::Kind::kDropSnapshot, std::move(name), {}});
  return *this;
}

StableWrite& StableWrite::Then(StableWrite next) {
  bytes_ += next.bytes_;
  records_ += next.records_;
  ops_.insert(ops_.end(), std::make_move_iterator(next.ops_.begin()),
              std::make_move_iterator(next.ops_.end()));
  return *this;
}

void StableStore::Apply(StableWrite write) {
  for (StableWrite::Op& op : write.ops_) {
    switch (op.kind) {
      case StableWrite::Op::Kind::kAppend:
        stream_sizes_[op.name] += op.bytes.size();
        streams_[op.name].push_back(std::move(op.bytes));
        break;
      case StableWrite::Op::Kind::kSnapshot:
        snapshots_[op.name] = std::move(op.bytes);
        break;
      case StableWrite::Op::Kind::kTruncate:
        streams_.erase(op.name);
        stream_sizes_.erase(op.name);
        break;
      case StableWrite::Op::Kind::kDropSnapshot:
        snapshots_.erase(op.name);
        break;
    }
  }
}

const std::vector<std::string>& StableStore::ReadStream(
    const std::string& stream) const {
  static const std::vector<std::string>* empty =
      new std::vector<std::string>();
  auto it = streams_.find(stream);
  if (it == streams_.end()) return *empty;
  return it->second;
}

sim::SimTime StableStore::StreamReadNs(const std::string& stream) const {
  return model_.IoNs(stream_bytes(stream));
}

StatusOr<std::string> StableStore::ReadSnapshot(const std::string& name) const {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    return NotFoundError("no snapshot named " + name);
  }
  return it->second;
}

sim::SimTime StableStore::SnapshotReadNs(const std::string& name) const {
  auto it = snapshots_.find(name);
  if (it == snapshots_.end()) return model_.IoNs(0);
  return model_.IoNs(it->second.size());
}

size_t StableStore::stream_bytes(const std::string& stream) const {
  auto it = stream_sizes_.find(stream);
  return it == stream_sizes_.end() ? 0 : it->second;
}

size_t StableStore::total_bytes() const {
  size_t n = 0;
  for (const auto& [_, bytes] : stream_sizes_) n += bytes;
  for (const auto& [_, snap] : snapshots_) n += snap.size();
  return n;
}

}  // namespace prisma::storage
