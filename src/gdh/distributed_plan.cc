#include "gdh/distributed_plan.h"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/str_util.h"
#include "exec/access_path.h"
#include "gdh/messages.h"

namespace prisma::gdh {

using algebra::AggFunc;
using algebra::AggregatePlan;
using algebra::AggSpec;
using algebra::DistinctPlan;
using algebra::Expr;
using algebra::Plan;
using algebra::PlanKind;
using algebra::ProjectPlan;
using algebra::ScanPlan;

std::string PartName(size_t index) {
  return StrFormat("\x02part:%zu", index);
}

std::string OlapInputName() { return "\x02olap:in"; }

const char* ExchangeStrategyName(ExchangeStrategy strategy) {
  switch (strategy) {
    case ExchangeStrategy::kShuffleBoth:
      return "shuffle-both";
    case ExchangeStrategy::kShuffleLeft:
      return "shuffle-left";
    case ExchangeStrategy::kShuffleRight:
      return "shuffle-right";
    case ExchangeStrategy::kBroadcastLeft:
      return "broadcast-left";
    case ExchangeStrategy::kBroadcastRight:
      return "broadcast-right";
  }
  return "?";
}

const char* GroupByPathName(GroupByPath path) {
  switch (path) {
    case GroupByPath::kGather:
      return "gather partials";
    case GroupByPath::kPreAggregate:
      return "pre-aggregate + shuffle-by-key";
    case GroupByPath::kDirect:
      return "direct + shuffle-by-key";
  }
  return "?";
}

GroupByCosts MachineGroupByCosts(const net::Topology& topology,
                                 const net::LinkParams& link,
                                 const pool::CostModel& cpu) {
  const int pes = topology.num_nodes();
  GroupByCosts costs;
  costs.link_bps = static_cast<double>(link.bandwidth_bps);
  costs.pes = pes;
  // Any PE may coordinate: cost with the fewest links into one, so a
  // cached choice holds whichever PE runs the statement.
  int fewest = 0;
  for (int pe = 0; pe < pes; ++pe) {
    const int links = static_cast<int>(topology.neighbors(pe).size());
    fewest = pe == 0 ? links : std::min(fewest, links);
  }
  // A one-PE machine has no links; it is costed as if it had one.
  costs.coordinator_links = std::max(1, fewest);
  // Every PE streams to every other along the machine's routes; the
  // busiest directed link paces the all-to-all.
  std::map<std::pair<int, int>, int> streams;
  for (int from = 0; from < pes; ++from) {
    for (int to = 0; to < pes; ++to) {
      for (int at = from; at != to;) {
        const int next = topology.NextHop(at, to);
        const int crossing = ++streams[{at, next}];
        costs.all_to_all_streams =
            std::max(costs.all_to_all_streams, static_cast<double>(crossing));
        at = next;
      }
    }
  }
  costs.local_row_ns = static_cast<double>(cpu.hash_ns);
  costs.merge_row_ns = static_cast<double>(cpu.tuple_ns + cpu.hash_ns);
  costs.message_ns = static_cast<double>(cpu.message_handling_ns);
  return costs;
}

bool ExchangeSideMoves(ExchangeStrategy strategy, int side) {
  switch (strategy) {
    case ExchangeStrategy::kShuffleBoth:
      return true;
    case ExchangeStrategy::kShuffleLeft:
    case ExchangeStrategy::kBroadcastLeft:
      return side == 0;
    case ExchangeStrategy::kShuffleRight:
    case ExchangeStrategy::kBroadcastRight:
      return side == 1;
  }
  return false;
}

std::unique_ptr<Plan> CloneWithScanRenamed(const Plan& plan,
                                           const std::string& from,
                                           const std::string& to) {
  if (plan.kind() == PlanKind::kScan) {
    const auto& scan = static_cast<const ScanPlan&>(plan);
    return ScanPlan::Create(scan.table() == from ? to : scan.table(),
                            scan.schema());
  }
  std::unique_ptr<Plan> clone = plan.Clone();
  for (size_t i = 0; i < plan.num_children(); ++i) {
    clone->SetChild(i, CloneWithScanRenamed(*plan.child(i), from, to));
  }
  return clone;
}

std::set<int> SlotOrdinals(const DistributedPlan& split) {
  algebra::Literals shipped;
  algebra::Literals held;
  if (split.global != nullptr) split.global->CollectLiterals(&held);
  for (const LocalPart& part : split.parts) {
    if (part.exchange == nullptr) {
      part.plan->CollectLiterals(part.fixpoint ? &held : &shipped);
      continue;
    }
    // The part's own plan only renders the exchange for EXPLAIN. Every
    // input runs at its fragments: a moving one at the OFMs, the
    // stationary one in the consumers the coordinator spawns there.
    const ExchangeSpec& ex = *part.exchange;
    for (const ExchangeSpec::Input& input : ex.inputs) {
      input.plan->CollectLiterals(&shipped);
    }
    if (ex.predicate != nullptr) ex.predicate->CollectLiterals(&held);
    if (ex.post_plan != nullptr) ex.post_plan->CollectLiterals(&held);
  }
  std::set<int> slots;
  for (const auto& [ordinal, value] : shipped) {
    if (!held.contains(ordinal)) slots.insert(ordinal);
  }
  return slots;
}

DistributedPlan BindSplit(const DistributedPlan& split,
                          const algebra::Literals& values) {
  auto bind = [&values](const std::shared_ptr<const Plan>& plan) {
    return plan == nullptr ? nullptr
                           : std::shared_ptr<const Plan>(
                                 plan->CloneWithLiterals(values));
  };
  DistributedPlan out;
  out.parts = split.parts;
  for (LocalPart& part : out.parts) {
    part.plan = bind(part.plan);
    if (part.exchange == nullptr) continue;
    auto ex = std::make_shared<ExchangeSpec>(*part.exchange);
    for (ExchangeSpec::Input& input : ex->inputs) input.plan = bind(input.plan);
    if (ex->predicate != nullptr) {
      std::unique_ptr<Expr> predicate = ex->predicate->Clone();
      predicate->SetLiterals(values);
      ex->predicate = std::move(predicate);
    }
    ex->post_plan = bind(ex->post_plan);
    part.exchange = std::move(ex);
  }
  if (split.global != nullptr) {
    out.global = split.global->CloneWithLiterals(values);
  }
  out.pushed_aggregate = split.pushed_aggregate;
  out.colocated_joins = split.colocated_joins;
  out.exchange_joins = split.exchange_joins;
  out.olap_parts = split.olap_parts;
  return out;
}

void CollectScanTables(const Plan& plan, std::vector<std::string>* tables) {
  if (plan.kind() == PlanKind::kScan) {
    tables->push_back(static_cast<const ScanPlan&>(plan).table());
    return;
  }
  for (size_t i = 0; i < plan.num_children(); ++i) {
    CollectScanTables(*plan.child(i), tables);
  }
}

namespace {

/// Collects Select nodes whose predicates are bound to the base scan
/// schema (i.e. only Selects between them and the Scan). Returns true if
/// `plan`'s own output schema is still the scan schema.
bool CollectBasePredicates(const Plan& plan,
                           std::vector<const algebra::SelectPlan*>* out) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return true;
    case PlanKind::kSelect: {
      const bool base = CollectBasePredicates(*plan.child(), out);
      if (base) out->push_back(static_cast<const algebra::SelectPlan*>(&plan));
      return base;
    }
    case PlanKind::kProject:
    case PlanKind::kDistinct:
      // Selects further down still qualify; anything above here does not.
      CollectBasePredicates(*plan.child(), out);
      return false;
    default:
      return false;
  }
}

}  // namespace

std::optional<int> PinnedFragment(const TableInfo& info,
                                  const algebra::Expr& predicate) {
  const auto strategy = info.fragmentation.strategy;
  if (strategy != sql::FragmentStrategy::kHash &&
      strategy != sql::FragmentStrategy::kRange) {
    return std::nullopt;
  }
  for (const auto& conjunct : algebra::SplitConjuncts(predicate)) {
    const std::optional<exec::ColumnBound> bound =
        exec::MatchColumnBound(*conjunct);
    if (bound.has_value() && bound->op == algebra::BinaryOp::kEq &&
        bound->column == info.fragmentation.column) {
      return info.fragmenter->FragmentsForKey(bound->literal).front();
    }
  }
  return std::nullopt;
}

std::vector<int> PruneFragmentsForPart(const TableInfo& info,
                                       const Plan& part_plan) {
  std::vector<const algebra::SelectPlan*> selects;
  CollectBasePredicates(part_plan, &selects);
  for (const algebra::SelectPlan* select : selects) {
    if (auto pinned = PinnedFragment(info, select->predicate())) {
      return {*pinned};
    }
  }
  std::vector<int> all(info.fragments.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

namespace {

/// True if `plan` is Select*/Project*/Distinct* over one dictionary-known
/// base-table Scan. Sets the table name and whether a Distinct occurs.
bool IsLocalCandidate(const Plan& plan, const DataDictionary& dictionary,
                      std::string* table, bool* has_distinct) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanPlan&>(plan);
      if (!dictionary.HasTable(scan.table())) return false;
      *table = scan.table();
      return true;
    }
    case PlanKind::kSelect:
    case PlanKind::kProject:
      return IsLocalCandidate(*plan.child(), dictionary, table, has_distinct);
    case PlanKind::kDistinct:
      *has_distinct = true;
      return IsLocalCandidate(*plan.child(), dictionary, table, has_distinct);
    default:
      return false;
  }
}

/// Registers `subtree` as a local part and returns the global-side
/// replacement scan (re-Distinct-ed when the part deduplicates locally,
/// since fragments may still share duplicates across the machine).
std::unique_ptr<Plan> MakePart(std::unique_ptr<Plan> subtree,
                               const std::string& table, bool has_distinct,
                               DistributedPlan* out,
                               const std::string& second_table = "") {
  const size_t index = out->parts.size();
  const Schema schema = subtree->schema();
  out->parts.push_back(
      LocalPart{table, second_table, std::move(subtree), nullptr});
  std::unique_ptr<Plan> scan = ScanPlan::Create(PartName(index), schema);
  if (has_distinct) scan = DistinctPlan::Create(std::move(scan));
  return scan;
}

/// Detects Join(candidateA, candidateB) where A and B are hash-fragmented
/// on the join key with equal fragment counts and aligned placement. Such
/// a join decomposes exactly into per-fragment-pair joins executed where
/// the two fragments live. Returns the replacement part scan or null.
std::unique_ptr<Plan> TryColocatedJoin(std::unique_ptr<Plan>& plan,
                                       const DataDictionary& dictionary,
                                       DistributedPlan* out) {
  auto& join = static_cast<algebra::JoinPlan&>(*plan);
  // Both children must keep the base scan schema (Selects only), so join
  // key indexes map directly onto base columns.
  std::vector<const algebra::SelectPlan*> ignored;
  if (!CollectBasePredicates(*plan.get()->child(0), &ignored) ||
      !CollectBasePredicates(*plan.get()->child(1), &ignored)) {
    return nullptr;
  }
  std::string table_a;
  std::string table_b;
  bool distinct_a = false;
  bool distinct_b = false;
  if (!IsLocalCandidate(*plan->child(0), dictionary, &table_a, &distinct_a) ||
      !IsLocalCandidate(*plan->child(1), dictionary, &table_b, &distinct_b) ||
      table_a == table_b) {
    return nullptr;
  }
  auto info_a = dictionary.GetTable(table_a);
  auto info_b = dictionary.GetTable(table_b);
  if (!info_a.ok() || !info_b.ok()) return nullptr;
  const TableInfo& a = **info_a;
  const TableInfo& b = **info_b;
  if (a.fragmentation.strategy != sql::FragmentStrategy::kHash ||
      b.fragmentation.strategy != sql::FragmentStrategy::kHash ||
      a.fragmentation.num_fragments != b.fragmentation.num_fragments) {
    return nullptr;
  }
  // The join key must be the fragmentation key on both sides.
  bool keyed = false;
  for (const auto& [l, r] : join.EquiKeys()) {
    if (l == a.fragmentation.column && r == b.fragmentation.column) {
      keyed = true;
      break;
    }
  }
  if (!keyed) return nullptr;
  // Aligned placement: fragment i of both tables on one PE.
  for (size_t i = 0; i < a.fragments.size(); ++i) {
    if (a.fragments[i].pe != b.fragments[i].pe) return nullptr;
  }
  ++out->colocated_joins;
  return MakePart(std::move(plan), table_a, false, out, table_b);
}

/// Lowers Join(candidateA, candidateB) — any equi-join of two distinct
/// dictionary tables — to a streaming exchange part (DESIGN.md §10). The
/// strategy is chosen by modeled shipped tuples from dictionary
/// cardinalities:
///   shuffle-one   moves only the non-aligned side (|moving| tuples);
///                 eligible when the stationary side keeps its base scan
///                 schema and is hash-fragmented on its join-key column,
///                 so hash routing lands movers exactly on their partners;
///   broadcast     replicates one side to every fragment of the other
///                 (|moving| x fragments tuples), eligible always;
///   shuffle-both  hash-co-partitions both sides (|left| + |right|),
///                 eligible always.
/// Returns the replacement part scan, or null when not applicable.
StatusOr<std::unique_ptr<Plan>> TryExchangeJoin(std::unique_ptr<Plan>& plan,
                                                const DataDictionary& dictionary,
                                                DistributedPlan* out) {
  auto& join = static_cast<algebra::JoinPlan&>(*plan);
  std::string table_l;
  std::string table_r;
  bool distinct_l = false;
  bool distinct_r = false;
  if (!IsLocalCandidate(*plan->child(0), dictionary, &table_l, &distinct_l) ||
      !IsLocalCandidate(*plan->child(1), dictionary, &table_r, &distinct_r) ||
      table_l == table_r || distinct_l || distinct_r) {
    return std::unique_ptr<Plan>();
  }
  const std::vector<std::pair<size_t, size_t>> keys = join.EquiKeys();
  if (keys.empty()) return std::unique_ptr<Plan>();
  auto info_l = dictionary.GetTable(table_l);
  auto info_r = dictionary.GetTable(table_r);
  if (!info_l.ok() || !info_r.ok()) return std::unique_ptr<Plan>();
  const TableInfo& l = **info_l;
  const TableInfo& r = **info_r;
  if (l.fragments.empty() || r.fragments.empty()) {
    return std::unique_ptr<Plan>();
  }

  // Shuffle-one alignment check: see doc comment above.
  std::vector<const algebra::SelectPlan*> ignored;
  const bool base_l = CollectBasePredicates(*plan->child(0), &ignored);
  const bool base_r = CollectBasePredicates(*plan->child(1), &ignored);
  auto hash_keyed = [&keys](const TableInfo& t, bool left_side,
                            size_t* route) {
    if (t.fragmentation.strategy != sql::FragmentStrategy::kHash) {
      return false;
    }
    for (size_t k = 0; k < keys.size(); ++k) {
      const size_t col = left_side ? keys[k].first : keys[k].second;
      if (col == t.fragmentation.column) {
        *route = k;
        return true;
      }
    }
    return false;
  };

  const double rows_l = l.TotalRows();
  const double rows_r = r.TotalRows();
  struct Candidate {
    ExchangeStrategy strategy;
    double cost;
    size_t route;
  };
  // Listed in tie-break preference order; the scan below keeps the first
  // of equal cost.
  std::vector<Candidate> candidates;
  size_t route = 0;
  if (base_l && hash_keyed(l, /*left_side=*/true, &route)) {
    candidates.push_back({ExchangeStrategy::kShuffleRight, rows_r, route});
  }
  if (base_r && hash_keyed(r, /*left_side=*/false, &route)) {
    candidates.push_back({ExchangeStrategy::kShuffleLeft, rows_l, route});
  }
  candidates.push_back({ExchangeStrategy::kBroadcastLeft,
                        rows_l * static_cast<double>(r.fragments.size()), 0});
  candidates.push_back({ExchangeStrategy::kBroadcastRight,
                        rows_r * static_cast<double>(l.fragments.size()), 0});
  candidates.push_back({ExchangeStrategy::kShuffleBoth, rows_l + rows_r, 0});
  const Candidate* best = &candidates[0];
  for (const Candidate& c : candidates) {
    if (c.cost < best->cost) best = &c;
  }

  auto spec = std::make_shared<ExchangeSpec>();
  spec->strategy = best->strategy;
  spec->inputs = {
      {table_l, std::shared_ptr<const Plan>(plan->child(0)->Clone()),
       keys[best->route].first},
      {table_r, std::shared_ptr<const Plan>(plan->child(1)->Clone()),
       keys[best->route].second}};
  spec->keys = keys;
  spec->schema = join.schema();
  spec->moved_rows = best->cost;
  if (join.predicate() != nullptr) {
    spec->predicate =
        std::shared_ptr<const Expr>(join.predicate()->Clone());
  }
  switch (best->strategy) {
    case ExchangeStrategy::kShuffleRight:
    case ExchangeStrategy::kBroadcastRight:
      spec->anchor_table = table_l;
      spec->build_side = 1;
      break;
    case ExchangeStrategy::kShuffleLeft:
    case ExchangeStrategy::kBroadcastLeft:
      spec->anchor_table = table_r;
      spec->build_side = 0;
      break;
    case ExchangeStrategy::kShuffleBoth:
      // Anchor where there is the most parallelism; build the smaller side.
      spec->anchor_table =
          l.fragments.size() >= r.fragments.size() ? table_l : table_r;
      spec->build_side = rows_l <= rows_r ? 0 : 1;
      break;
  }

  // EXPLAIN rendering: the join with Exchange nodes marking moving sides.
  const bool broadcast =
      best->strategy == ExchangeStrategy::kBroadcastLeft ||
      best->strategy == ExchangeStrategy::kBroadcastRight;
  std::unique_ptr<Plan> shown_l = plan->TakeChild(0);
  std::unique_ptr<Plan> shown_r = plan->TakeChild(1);
  if (ExchangeSideMoves(best->strategy, 0)) {
    shown_l = algebra::ExchangePlan::Create(
        std::move(shown_l),
        broadcast ? algebra::ExchangePlan::Mode::kBroadcast
                  : algebra::ExchangePlan::Mode::kHashPartition,
        broadcast ? std::vector<size_t>{}
                  : std::vector<size_t>{spec->inputs[0].route_column});
  }
  if (ExchangeSideMoves(best->strategy, 1)) {
    shown_r = algebra::ExchangePlan::Create(
        std::move(shown_r),
        broadcast ? algebra::ExchangePlan::Mode::kBroadcast
                  : algebra::ExchangePlan::Mode::kHashPartition,
        broadcast ? std::vector<size_t>{}
                  : std::vector<size_t>{spec->inputs[1].route_column});
  }
  ASSIGN_OR_RETURN(
      std::unique_ptr<algebra::JoinPlan> shown,
      algebra::JoinPlan::Create(std::move(shown_l), std::move(shown_r),
                                join.predicate() != nullptr
                                    ? join.predicate()->Clone()
                                    : nullptr));

  const size_t index = out->parts.size();
  const Schema schema = shown->schema();
  LocalPart part;
  part.table = spec->anchor_table;
  part.plan = std::shared_ptr<const Plan>(std::move(shown));
  part.exchange = std::move(spec);
  out->parts.push_back(std::move(part));
  ++out->exchange_joins;
  return std::unique_ptr<Plan>(ScanPlan::Create(PartName(index), schema));
}

// For each original aggregate: indexes of its partial column(s) within
// the partial-agg output (offset by the group count).
struct CombineInfo {
  AggFunc func;
  size_t first;   // Partial column (sum for AVG).
  size_t second;  // AVG only: partial count column.
};

struct PartialAggregate {
  std::unique_ptr<Plan> plan;  // Partial aggregate over the given child.
  std::vector<CombineInfo> combine;
};

/// Builds the partial (per-fragment / per-producer) half of the
/// distributive aggregate decomposition over `child`: group columns
/// g0..gk-1 followed by partial state columns p0.. (AVG splits into
/// SUM(x*1.0) + COUNT(x); the combine step re-folds it).
StatusOr<PartialAggregate> BuildPartialAggregate(const AggregatePlan& agg,
                                                 std::unique_ptr<Plan> child) {
  std::vector<std::unique_ptr<Expr>> partial_groups;
  std::vector<std::string> partial_group_names;
  for (size_t i = 0; i < agg.group_by().size(); ++i) {
    partial_groups.push_back(agg.group_by()[i]->Clone());
    partial_group_names.push_back(StrFormat("g%zu", i));
  }
  std::vector<AggSpec> partial_aggs;
  std::vector<CombineInfo> combine;
  for (const AggSpec& spec : agg.aggs()) {
    CombineInfo info{spec.func, partial_aggs.size(), 0};
    switch (spec.func) {
      case AggFunc::kCount:
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        partial_aggs.push_back(
            AggSpec{spec.func, spec.arg ? spec.arg->Clone() : nullptr,
                    StrFormat("p%zu", partial_aggs.size())});
        break;
      case AggFunc::kAvg: {
        // AVG = SUM(x * 1.0) / COUNT(x), combined globally.
        auto as_double = Expr::Binary(algebra::BinaryOp::kMul,
                                      spec.arg->Clone(),
                                      Expr::Literal(Value::Double(1.0)));
        partial_aggs.push_back(AggSpec{AggFunc::kSum, std::move(as_double),
                                       StrFormat("p%zu", partial_aggs.size())});
        info.second = partial_aggs.size();
        partial_aggs.push_back(AggSpec{AggFunc::kCount, spec.arg->Clone(),
                                       StrFormat("p%zu", partial_aggs.size())});
        break;
      }
    }
    combine.push_back(info);
  }
  PartialAggregate out;
  out.combine = std::move(combine);
  ASSIGN_OR_RETURN(auto partial_plan,
                   AggregatePlan::Create(std::move(child),
                                         std::move(partial_groups),
                                         partial_group_names,
                                         std::move(partial_aggs)));
  out.plan = std::move(partial_plan);
  return out;
}

/// Builds the combining half over `child` (which produces partial-schema
/// rows): a second aggregation merging partial states per group, then a
/// final projection restoring the original output (folding AVG pairs).
StatusOr<std::unique_ptr<Plan>> BuildCombineAggregate(
    const AggregatePlan& agg, const Schema& partial_schema,
    const std::vector<CombineInfo>& combine, std::unique_ptr<Plan> child) {
  const size_t group_count = agg.group_by().size();
  std::vector<std::unique_ptr<Expr>> global_groups;
  std::vector<std::string> global_group_names;
  for (size_t i = 0; i < group_count; ++i) {
    global_groups.push_back(
        Expr::ColumnIndex(i, partial_schema.column(i).type));
    global_group_names.push_back(agg.schema().column(i).name);
  }
  std::vector<AggSpec> global_aggs;
  for (const CombineInfo& info : combine) {
    auto col = [&](size_t partial_index) {
      const size_t c = group_count + partial_index;
      return Expr::ColumnIndex(c, partial_schema.column(c).type);
    };
    switch (info.func) {
      case AggFunc::kCount:
      case AggFunc::kSum:
        global_aggs.push_back(AggSpec{AggFunc::kSum, col(info.first),
                                      StrFormat("c%zu", global_aggs.size())});
        break;
      case AggFunc::kMin:
        global_aggs.push_back(AggSpec{AggFunc::kMin, col(info.first),
                                      StrFormat("c%zu", global_aggs.size())});
        break;
      case AggFunc::kMax:
        global_aggs.push_back(AggSpec{AggFunc::kMax, col(info.first),
                                      StrFormat("c%zu", global_aggs.size())});
        break;
      case AggFunc::kAvg:
        global_aggs.push_back(AggSpec{AggFunc::kSum, col(info.first),
                                      StrFormat("c%zu", global_aggs.size())});
        global_aggs.push_back(AggSpec{AggFunc::kSum, col(info.second),
                                      StrFormat("c%zu", global_aggs.size())});
        break;
    }
  }
  ASSIGN_OR_RETURN(std::unique_ptr<Plan> combined,
                   AggregatePlan::Create(std::move(child),
                                         std::move(global_groups),
                                         global_group_names,
                                         std::move(global_aggs)));

  const Schema& combined_schema = combined->schema();
  std::vector<std::unique_ptr<Expr>> proj;
  std::vector<std::string> names;
  for (size_t i = 0; i < group_count; ++i) {
    proj.push_back(Expr::ColumnIndex(i, combined_schema.column(i).type));
    names.push_back(agg.schema().column(i).name);
  }
  size_t combined_col = group_count;
  for (size_t i = 0; i < combine.size(); ++i) {
    if (combine[i].func == AggFunc::kAvg) {
      auto sum = Expr::ColumnIndex(combined_col,
                                   combined_schema.column(combined_col).type);
      auto count = Expr::ColumnIndex(
          combined_col + 1, combined_schema.column(combined_col + 1).type);
      proj.push_back(Expr::Binary(algebra::BinaryOp::kDiv, std::move(sum),
                                  std::move(count)));
      combined_col += 2;
    } else {
      proj.push_back(Expr::ColumnIndex(
          combined_col, combined_schema.column(combined_col).type));
      combined_col += 1;
    }
    names.push_back(agg.schema().column(group_count + i).name);
  }
  ASSIGN_OR_RETURN(std::unique_ptr<ProjectPlan> final_proj,
                   ProjectPlan::Create(std::move(combined), std::move(proj),
                                       std::move(names)));
  return std::unique_ptr<Plan>(std::move(final_proj));
}

/// Decomposes Aggregate(local-candidate) into per-fragment partials plus
/// a global combine + final projection. Returns null when the shape does
/// not apply (caller falls back to gathering raw rows).
StatusOr<std::unique_ptr<Plan>> TryAggregatePushdown(
    std::unique_ptr<Plan>& plan, const DataDictionary& dictionary,
    DistributedPlan* out) {
  auto& agg = static_cast<AggregatePlan&>(*plan);
  std::string table;
  bool has_distinct = false;
  if (!IsLocalCandidate(*plan->child(), dictionary, &table, &has_distinct) ||
      has_distinct) {
    return std::unique_ptr<Plan>();  // Distinct under aggregate: bail out.
  }
  ASSIGN_OR_RETURN(PartialAggregate partial,
                   BuildPartialAggregate(agg, plan->TakeChild(0)));
  const Schema partial_schema = partial.plan->schema();
  std::unique_ptr<Plan> gathered =
      MakePart(std::move(partial.plan), table, false, out);
  ASSIGN_OR_RETURN(std::unique_ptr<Plan> final_plan,
                   BuildCombineAggregate(agg, partial_schema, partial.combine,
                                         std::move(gathered)));
  out->pushed_aggregate = true;
  return final_plan;
}

/// Deep-copies `plan`, substituting `replacement` for the (single) Scan
/// of `name` — used to render a consumer's plan with its input (a join,
/// or an Exchange-marked producer) in place of its runtime input scan.
std::unique_ptr<Plan> ReplaceScan(const Plan& plan, const std::string& name,
                                  std::unique_ptr<Plan>& replacement) {
  if (plan.kind() == PlanKind::kScan &&
      static_cast<const ScanPlan&>(plan).table() == name) {
    PRISMA_CHECK(replacement != nullptr);
    return std::move(replacement);
  }
  std::unique_ptr<Plan> clone = plan.Clone();
  for (size_t i = 0; i < plan.num_children(); ++i) {
    clone->SetChild(i, ReplaceScan(*plan.child(i), name, replacement));
  }
  return clone;
}

/// Decomposes Aggregate(Join) when the join lowers to a co-located or
/// exchange part (DESIGN.md §10.3): the part pre-aggregates its share of
/// the join output where it lands (each fragment pair's OFM, or each
/// exchange consumer before its reply) and the global plan combines the
/// partial rows. Returns null when the join stays global.
StatusOr<std::unique_ptr<Plan>> TryJoinAggregatePushdown(
    std::unique_ptr<Plan>& plan, const DataDictionary& dictionary,
    const OptimizerRules& rules, DistributedPlan* out) {
  if (plan->child()->kind() != PlanKind::kJoin) return std::unique_ptr<Plan>();
  std::unique_ptr<Plan> join = plan->TakeChild(0);
  std::unique_ptr<Plan> lowered;
  if (rules.colocated_joins) lowered = TryColocatedJoin(join, dictionary, out);
  if (lowered == nullptr && rules.exchange_joins) {
    ASSIGN_OR_RETURN(lowered, TryExchangeJoin(join, dictionary, out));
  }
  if (lowered == nullptr) {
    plan->SetChild(0, std::move(join));
    return std::unique_ptr<Plan>();
  }
  const auto& agg = static_cast<const AggregatePlan&>(*plan);
  LocalPart& part = out->parts.back();
  ASSIGN_OR_RETURN(
      PartialAggregate partial,
      BuildPartialAggregate(
          agg, ScanPlan::Create(OlapInputName(), part.plan->schema())));
  const Schema partial_schema = partial.plan->schema();
  std::unique_ptr<Plan> joined = part.plan->Clone();
  // Co-located: the OFMs run the partial over their join. Exchange: the
  // same tree is the EXPLAIN rendering, and consumers run the partial
  // over their join output.
  part.plan = std::shared_ptr<const Plan>(
      ReplaceScan(*partial.plan, OlapInputName(), joined));
  if (part.exchange != nullptr) {
    auto spec = std::make_shared<ExchangeSpec>(*part.exchange);
    spec->post_plan = std::shared_ptr<const Plan>(std::move(partial.plan));
    part.exchange = std::move(spec);
  }
  out->pushed_aggregate = true;
  return BuildCombineAggregate(
      agg, partial_schema, partial.combine,
      ScanPlan::Create(PartName(out->parts.size() - 1), partial_schema));
}

/// Bits a row frame spends on one value, fitted to bench_tpch_lite's
/// many-group sweep: its partial rows of small ints pack to 6-10 bits a
/// value with their frame headers (q1's string keys and wide sums to 29).
constexpr double kValueBits = 8;

/// What the paths of one GROUP BY are costed on.
struct GroupByShape {
  GroupEstimate est;
  double fragments = 0;
  /// Columns of a partial row and of an input row.
  double partial_columns = 0;
  double input_columns = 0;
  bool direct_ok = false;    // The first group key is a plain column.
  bool partials_ok = false;  // Aggregate pushdown is on.
};

/// Models each path of a GROUP BY over F fragments, in ns, for a plan
/// that runs many times: its fragment plans are resident at the OFMs
/// (DESIGN.md §15.4) and go out by id.
///   gather  - the coordinator sends F plans; every fragment
///             pre-aggregates and replies with its partials, which share
///             the coordinator's links: one stage;
///   shuffle - the coordinator sends F producer plans; in an all-to-all
///             stage every producer streams to every merge consumer (a
///             batch and its ack), paced by the machine's busiest link,
///             and each consumer takes 1/F of the rows; then F producer
///             settlements and F consumer replies, the latter with the
///             final groups, reach the coordinator. Pre-aggregation
///             shuffles the partials; direct shuffles the input rows.
/// A message costs its kControlBits of framing (a plan by id
/// kPlanIdBits more) and message_ns at its receiver, a row its values'
/// bits, both over the link bandwidth; every row a fragment aggregates
/// costs local_row_ns and every received row merge_row_ns. The gather
/// wins ties. bench_tpch_lite's many-group sweep measures both paths
/// against this model.
GroupByChoice ChooseGroupByPath(const GroupByShape& shape,
                                const GroupByCosts& costs) {
  const GroupEstimate& est = shape.est;
  const double fragments = shape.fragments;
  const double ns_per_bit = 1e9 / costs.link_bps;
  const double control_bits = static_cast<double>(kControlBits);
  const double plan_bits = control_bits + static_cast<double>(kPlanIdBits);
  const double partial_bits = shape.partial_columns * kValueBits;
  const double input_bits = shape.input_columns * kValueBits;
  // The coordinator sends F plans, takes `replies` messages carrying
  // `rows` rows and merges the rows.
  auto coordinate = [&](double replies, double rows) {
    return (fragments * plan_bits + replies * control_bits +
            rows * partial_bits) *
               ns_per_bit / costs.coordinator_links +
           replies * costs.message_ns + rows * costs.merge_row_ns;
  };
  // F x F streams over the PEs' all-to-all routes: the busiest link
  // carries all_to_all_streams of every PE pair's share.
  auto all_to_all = [&](double rows, double row_bits) {
    const double per_pair = fragments * fragments / (costs.pes * costs.pes);
    const double stream_rows = rows / (fragments * fragments);
    return costs.all_to_all_streams * per_pair *
               (2 * control_bits + stream_rows * row_bits) * ns_per_bit +
           fragments * costs.message_ns +
           rows / fragments * costs.merge_row_ns;
  };
  const double local_ns = est.max_fragment_rows * costs.local_row_ns;
  GroupByChoice choice;
  choice.groups = est.groups;
  choice.partial_rows = est.partial_rows;
  choice.gather_ns = local_ns + coordinate(fragments, est.partial_rows);
  const double finish_ns = coordinate(2 * fragments, est.groups);
  const double pre_ns =
      local_ns + all_to_all(est.partial_rows, partial_bits) + finish_ns;
  const double direct_ns = all_to_all(est.rows, input_bits) + finish_ns;
  const bool direct = shape.direct_ok && direct_ns < pre_ns;
  choice.shuffle_ns = direct ? direct_ns : pre_ns;
  if (shape.partials_ok && choice.gather_ns <= choice.shuffle_ns) {
    choice.path = GroupByPath::kGather;
  } else {
    choice.path = direct ? GroupByPath::kDirect : GroupByPath::kPreAggregate;
  }
  return choice;
}

/// Places Aggregate(local-candidate) with a non-empty GROUP BY over a
/// table of 2+ fragments by cost (DESIGN.md §14.2): its per-fragment
/// partials gathered to the coordinator (TryAggregatePushdown, when
/// aggregate pushdown is on), or a one-input exchange part in which
/// producers pre-aggregate per fragment (or ship their rows, direct) and
/// shuffle by group key into one merge consumer per fragment, which
/// combine and reply with disjoint slices of the final groups. Scalar
/// aggregates (no GROUP BY) keep the gather: one partial row per fragment
/// is already optimal. Returns the replacement part scan or null when the
/// shape does not apply.
StatusOr<std::unique_ptr<Plan>> TryGroupBy(std::unique_ptr<Plan>& plan,
                                           const DataDictionary& dictionary,
                                           const OptimizerRules& rules,
                                           const GroupByCosts& costs,
                                           DistributedPlan* out) {
  auto& agg = static_cast<AggregatePlan&>(*plan);
  if (agg.group_by().empty()) return std::unique_ptr<Plan>();
  std::string table;
  bool has_distinct = false;
  if (!IsLocalCandidate(*plan->child(), dictionary, &table, &has_distinct) ||
      has_distinct) {
    return std::unique_ptr<Plan>();
  }
  auto info = dictionary.GetTable(table);
  if (!info.ok() || (*info)->fragments.size() < 2) {
    // One fragment has nothing to merge across; the pushdown path ships
    // one partial slice and finishes at the coordinator.
    return std::unique_ptr<Plan>();
  }
  const std::optional<GroupEstimate> est =
      Optimizer(&dictionary).EstimateAggregateGroups(agg);
  if (!est.has_value()) return std::unique_ptr<Plan>();
  // Direct mode routes base rows by the first group column, so it needs
  // that key to be a plain column of the producer output.
  const Expr& g0 = *agg.group_by()[0];
  size_t partial_columns = agg.group_by().size() + agg.aggs().size();
  for (const AggSpec& spec : agg.aggs()) {
    if (spec.func == AggFunc::kAvg) ++partial_columns;  // SUM + COUNT.
  }
  GroupByShape shape;
  shape.est = *est;
  shape.fragments = static_cast<double>((*info)->fragments.size());
  shape.partial_columns = static_cast<double>(partial_columns);
  shape.input_columns =
      static_cast<double>(plan->child()->schema().num_columns());
  shape.direct_ok = g0.kind() == algebra::ExprKind::kColumnRef && g0.bound();
  shape.partials_ok = rules.aggregate_pushdown;
  const GroupByChoice choice = ChooseGroupByPath(shape, costs);
  if (choice.path == GroupByPath::kGather) {
    ASSIGN_OR_RETURN(std::unique_ptr<Plan> pushed,
                     TryAggregatePushdown(plan, dictionary, out));
    if (pushed != nullptr) out->parts.back().group_by = choice;
    return pushed;
  }
  const bool pre_aggregate = choice.path == GroupByPath::kPreAggregate;

  auto spec = std::make_shared<ExchangeSpec>();
  spec->anchor_table = table;

  std::unique_ptr<Plan> producer;
  std::unique_ptr<Plan> merge;
  size_t route_column = 0;  // First group column of the partial rows.
  if (pre_aggregate) {
    ASSIGN_OR_RETURN(PartialAggregate partial,
                     BuildPartialAggregate(agg, plan->TakeChild(0)));
    const Schema partial_schema = partial.plan->schema();
    producer = std::move(partial.plan);
    ASSIGN_OR_RETURN(
        merge, BuildCombineAggregate(
                   agg, partial_schema, partial.combine,
                   ScanPlan::Create(OlapInputName(), partial_schema)));
    out->pushed_aggregate = true;
  } else {
    producer = plan->TakeChild(0);
    route_column = g0.column_index();
    // The merge consumer runs the original aggregate over its slice of
    // base rows: same group key -> same consumer, so slices are disjoint
    // and complete.
    std::vector<std::unique_ptr<Expr>> groups;
    std::vector<std::string> group_names;
    for (size_t i = 0; i < agg.group_by().size(); ++i) {
      groups.push_back(agg.group_by()[i]->Clone());
      group_names.push_back(agg.schema().column(i).name);
    }
    std::vector<AggSpec> aggs;
    aggs.reserve(agg.aggs().size());
    for (const AggSpec& s : agg.aggs()) aggs.push_back(s.Clone());
    ASSIGN_OR_RETURN(
        auto merged,
        AggregatePlan::Create(
            ScanPlan::Create(OlapInputName(), producer->schema()),
            std::move(groups), group_names, std::move(aggs)));
    merge = std::move(merged);
  }

  // EXPLAIN rendering: the merge plan with its input scan replaced by an
  // Exchange over the producer.
  std::unique_ptr<Plan> marked = algebra::ExchangePlan::Create(
      producer->Clone(), algebra::ExchangePlan::Mode::kHashPartition,
      {route_column});
  std::unique_ptr<Plan> display = ReplaceScan(*merge, OlapInputName(), marked);
  spec->schema = producer->schema();
  spec->inputs = {{table, std::shared_ptr<const Plan>(std::move(producer)),
                   route_column, /*keep_nulls=*/true}};
  spec->post_plan = std::shared_ptr<const Plan>(std::move(merge));
  const size_t index = out->parts.size();
  const Schema schema = display->schema();
  LocalPart part;
  part.table = table;
  part.plan = std::shared_ptr<const Plan>(std::move(display));
  part.exchange = std::move(spec);
  part.group_by = choice;
  out->parts.push_back(std::move(part));
  ++out->olap_parts;
  return std::unique_ptr<Plan>(ScanPlan::Create(PartName(index), schema));
}

/// Lowers Sort(local-candidate) with plain-column keys to sorted runs
/// (DESIGN.md §14.3): every fragment sorts its rows where they live and
/// streams the run to the coordinator, which merges the runs. A LIMIT n
/// directly on the sort (`limit`) joins the fragment plan, so each
/// fragment ships at most its top n; the global plan keeps the Limit.
/// Returns the replacement part scan or null when the shape does not
/// apply.
std::unique_ptr<Plan> TrySortedRuns(std::unique_ptr<Plan>& plan,
                                    std::optional<uint64_t> limit,
                                    const DataDictionary& dictionary,
                                    DistributedPlan* out) {
  const auto& sort = static_cast<const algebra::SortPlan&>(*plan);
  std::string table;
  bool has_distinct = false;
  if (!IsLocalCandidate(*plan->child(), dictionary, &table, &has_distinct) ||
      has_distinct) {
    // Distinct deduplicates per fragment only; the global Distinct above
    // the merge would have to re-sort, so keep the sort at the
    // coordinator.
    return nullptr;
  }
  auto info = dictionary.GetTable(table);
  if (!info.ok() || (*info)->fragments.size() < 2) return nullptr;
  if (sort.keys().empty()) return nullptr;
  for (const algebra::SortKey& key : sort.keys()) {
    if (key.expr->kind() != algebra::ExprKind::kColumnRef ||
        !key.expr->bound()) {
      return nullptr;  // Computed keys: sort globally.
    }
  }

  std::unique_ptr<Plan> local = std::move(plan);
  if (limit.has_value()) {
    local = algebra::LimitPlan::Create(std::move(local), *limit);
  }
  const size_t index = out->parts.size();
  const Schema schema = local->schema();
  LocalPart part;
  part.table = table;
  part.plan = std::shared_ptr<const Plan>(std::move(local));
  part.sorted_runs = true;
  out->parts.push_back(std::move(part));
  ++out->olap_parts;
  return ScanPlan::Create(PartName(index), schema);
}

StatusOr<std::unique_ptr<Plan>> SplitNode(std::unique_ptr<Plan> plan,
                                          const DataDictionary& dictionary,
                                          const OptimizerRules& rules,
                                          const GroupByCosts& costs,
                                          DistributedPlan* out) {
  if (plan->kind() == PlanKind::kAggregate) {
    if (rules.distributed_olap) {
      ASSIGN_OR_RETURN(std::unique_ptr<Plan> placed,
                       TryGroupBy(plan, dictionary, rules, costs, out));
      if (placed != nullptr) return placed;
    }
    if (rules.aggregate_pushdown) {
      ASSIGN_OR_RETURN(std::unique_ptr<Plan> pushed,
                       TryAggregatePushdown(plan, dictionary, out));
      if (pushed != nullptr) return pushed;
      ASSIGN_OR_RETURN(pushed,
                       TryJoinAggregatePushdown(plan, dictionary, rules, out));
      if (pushed != nullptr) return pushed;
    }
  }
  if (plan->kind() == PlanKind::kSort && rules.distributed_olap) {
    std::unique_ptr<Plan> lowered =
        TrySortedRuns(plan, std::nullopt, dictionary, out);
    if (lowered != nullptr) return lowered;
  }
  if (plan->kind() == PlanKind::kLimit && rules.distributed_olap &&
      plan->child()->kind() == PlanKind::kSort) {
    // Top-N: the limit rides into every fragment's run and stays on top
    // of the merge.
    const uint64_t n = static_cast<const algebra::LimitPlan&>(*plan).limit();
    std::unique_ptr<Plan> sort = plan->TakeChild(0);
    std::unique_ptr<Plan> lowered = TrySortedRuns(sort, n, dictionary, out);
    if (lowered != nullptr) {
      plan->SetChild(0, std::move(lowered));
      return plan;
    }
    plan->SetChild(0, std::move(sort));
  }
  if (plan->kind() == PlanKind::kJoin) {
    // Co-located beats exchange: it decomposes with zero shipped tuples.
    if (rules.colocated_joins) {
      std::unique_ptr<Plan> part = TryColocatedJoin(plan, dictionary, out);
      if (part != nullptr) return part;
    }
    if (rules.exchange_joins) {
      ASSIGN_OR_RETURN(std::unique_ptr<Plan> part,
                       TryExchangeJoin(plan, dictionary, out));
      if (part != nullptr) return part;
    }
  }
  std::string table;
  bool has_distinct = false;
  if (IsLocalCandidate(*plan, dictionary, &table, &has_distinct)) {
    return MakePart(std::move(plan), table, has_distinct, out);
  }
  for (size_t i = 0; i < plan->num_children(); ++i) {
    ASSIGN_OR_RETURN(auto child, SplitNode(plan->TakeChild(i), dictionary,
                                           rules, costs, out));
    plan->SetChild(i, std::move(child));
  }
  return plan;
}

}  // namespace

StatusOr<DistributedPlan> SplitPlanForFragments(
    std::unique_ptr<Plan> plan, const DataDictionary& dictionary,
    const OptimizerRules& rules, const GroupByCosts& costs) {
  DistributedPlan out;
  ASSIGN_OR_RETURN(out.global,
                   SplitNode(std::move(plan), dictionary, rules, costs, &out));
  return out;
}

}  // namespace prisma::gdh
