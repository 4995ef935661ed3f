#ifndef PRISMA_GDH_DISTRIBUTED_PLAN_H_
#define PRISMA_GDH_DISTRIBUTED_PLAN_H_

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/status.h"
#include "gdh/data_dictionary.h"
#include "gdh/optimizer.h"
#include "net/network.h"
#include "pool/runtime.h"

namespace prisma::gdh {

/// Scan name used by the global plan to reference the gathered result of
/// local part `i`.
std::string PartName(size_t index);

/// Scan name by which a plan run over received rows references them: an
/// OLAP merge plan's shuffled-in rows (DESIGN.md §14), or an exchange
/// join's post-join plan's share of the join output (§10.3). The
/// consumer materializes those rows under this name (RunPlanOverRows).
std::string OlapInputName();

/// How the streaming exchange layer (DESIGN.md §10) executes one
/// exchange part: which input(s) leave their producing PEs, and how their
/// tuples are routed onto the consumer fragments. A group-by shuffles its
/// one input (kShuffleBoth).
enum class ExchangeStrategy : uint8_t {
  kShuffleBoth,      // Hash-repartition every input on its key.
  kShuffleLeft,      // Ship the left input to the right table's fragments.
  kShuffleRight,     // Ship the right input to the left table's fragments.
  kBroadcastLeft,    // Replicate the left input to every right fragment.
  kBroadcastRight,   // Replicate the right input to every left fragment.
};

const char* ExchangeStrategyName(ExchangeStrategy strategy);

/// True if the given join input moves (is produced into exchange
/// channels) under `strategy`; side 0 = left, 1 = right.
bool ExchangeSideMoves(ExchangeStrategy strategy, int side);

/// Everything the coordinator needs to run one exchange part (DESIGN.md
/// §10): producers at every fragment of each moving input run its plan
/// and route the output into one consumer per fragment of the anchor
/// table, which replies with its share of the part's result.
///
/// A join has two inputs plus its keys, build side and predicate; the
/// consumers pipeline the moving side(s) through a hash join. A global
/// group-by (§14.2) has one moving input, hash-routed on the group column
/// with NULL keys kept, and no join keys: each consumer drains its channels
/// and runs `post_plan`, the merge, over its disjoint slice of the groups.
struct ExchangeSpec {
  struct Input {
    std::string table;
    /// Per-fragment producer plan (its Scan names `table`).
    std::shared_ptr<const algebra::Plan> plan;
    /// Column of the producer output hashed for routing (shuffles).
    size_t route_column = 0;
    /// Route NULL keys to consumer 0 instead of dropping them: a NULL
    /// group is still a group, while a NULL join key never matches.
    bool keep_nulls = false;
  };
  ExchangeStrategy strategy = ExchangeStrategy::kShuffleBoth;
  /// inputs[0] is the left input of a join, or a group-by's only input.
  std::vector<Input> inputs;
  /// Consumers run co-located with this table's fragments, one each: the
  /// stationary side, the more-fragmented side for shuffle-both, or a
  /// group-by's input table.
  std::string anchor_table;
  int build_side = 0;  // 0 = left input builds the hash table.
  /// Equi-key pairs (left input column, right input column); empty for a
  /// group-by.
  std::vector<std::pair<size_t, size_t>> keys;
  /// Full join predicate, bound over concat(left, right).
  std::shared_ptr<const algebra::Expr> predicate;
  /// Consumer output before `post_plan`: the join output, or a group-by's
  /// shuffled-in rows.
  Schema schema;
  /// Modeled tuples shipped by the chosen strategy (cost/EXPLAIN).
  double moved_rows = 0;
  /// Plan each consumer runs over its rows (a Scan of OlapInputName()
  /// with `schema`) before replying: the partial half of an aggregate
  /// pushed onto a join, or a group-by's merge. Null: reply with the
  /// joined rows.
  std::shared_ptr<const algebra::Plan> post_plan;
  bool group_by() const { return inputs.size() == 1; }
};

/// Where a GROUP BY over a table of 2+ fragments runs (DESIGN.md §14.2):
/// per-fragment partials gathered to the coordinator, or shuffled by key
/// to merge consumers after a per-fragment pre-aggregation, or as input
/// rows (direct).
enum class GroupByPath : uint8_t { kGather, kPreAggregate, kDirect };

/// "gather partials", "pre-aggregate + shuffle-by-key" or
/// "direct + shuffle-by-key".
const char* GroupByPathName(GroupByPath path);

/// The machine constants the splitter costs a GROUP BY's paths with
/// (DESIGN.md §14.2), built by MachineGroupByCosts. They are the same
/// seen from every PE, so a cached choice holds on any coordinator.
struct GroupByCosts {
  /// Serialization bandwidth of every link, bits per second.
  double link_bps = 0;
  /// PEs of the machine: F fragments put (F / pes)^2 streams on each
  /// PE pair.
  double pes = 0;
  /// The fewest links into any PE: a coordinator's gathered rows share
  /// them.
  double coordinator_links = 0;
  /// The most PE pairs whose routes cross one directed link when every
  /// PE streams to every other: it paces a shuffle's all-to-all stage.
  double all_to_all_streams = 0;
  /// CPU to fold one row into a fragment's local aggregate, and to take
  /// in one row from the wire and fold it into a merge.
  double local_row_ns = 0;
  double merge_row_ns = 0;
  /// CPU to handle one message.
  double message_ns = 0;
};

/// The costs of a machine of `topology`, `link` and `cpu`.
GroupByCosts MachineGroupByCosts(const net::Topology& topology,
                                 const net::LinkParams& link,
                                 const pool::CostModel& cpu);

/// The path the splitter chose for one GROUP BY, with the estimates
/// (Optimizer::EstimateGroups) and modelled times it compared.
struct GroupByChoice {
  GroupByPath path = GroupByPath::kGather;
  double groups = 0;        // Distinct groups, table-wide.
  double partial_rows = 0;  // Rows the per-fragment partials hold.
  double gather_ns = 0;     // The gather path.
  double shuffle_ns = 0;    // The cheaper shuffle.

  /// Rows the coordinator gathers on the chosen path: the partials, or
  /// the final groups of the merge consumers.
  double gathered_rows() const {
    return path == GroupByPath::kGather ? partial_rows : groups;
  }
};

/// One fragment-parallel unit of a distributed query: a plan to run at
/// every fragment of `table`, with its Scan node naming the *table* — the
/// coordinator clones it per fragment and renames the scan.
///
/// When `second_table` is set the part is a *co-located join*: the plan
/// scans both tables and runs at the PE hosting fragment i of each
/// (tables are co-partitioned on the join key and placement-aligned).
///
/// When `exchange` is set the part is an *exchange part* (a join or a
/// group-by): `plan` is only the EXPLAIN rendering (the Join or the merge
/// over Exchange-marked inputs); execution is driven by the spec —
/// producers at each moving fragment, consumers at the anchor fragments.
struct LocalPart {
  std::string table;
  std::string second_table;  // Empty for single-table parts.
  std::shared_ptr<const algebra::Plan> plan;
  std::shared_ptr<const ExchangeSpec> exchange;
  /// Set for a sorted-run part: every fragment runs `plan` (its local
  /// Sort, under a Limit for Top-N) and streams the run to the
  /// coordinator, which merges the runs on the Sort's keys.
  bool sorted_runs = false;
  /// Set for a GROUP BY's part, gathered or shuffled, whose path the
  /// splitter costed.
  std::optional<GroupByChoice> group_by = std::nullopt;
  /// Set for a PRISMAlog fixpoint part (DESIGN.md §11): `plan` scans the
  /// edge relation `table`, which every fragment shuffles to one fixpoint
  /// partition per fragment; the partitions iterate to the closure and
  /// stream each round's fresh owned pairs to the coordinator.
  bool fixpoint = false;
};

/// A SELECT plan split for fragment-parallel execution (§2.2): the local
/// parts run inside the OFMs, the global plan merges their gathered
/// results at the coordinator (its Scan nodes use PartName(i)). A
/// PRISMAlog program's plan has no global plan: its parts are bare scans
/// of the program's base tables, or one fixpoint part, and the
/// coordinator evaluates the program over what they gather.
struct DistributedPlan {
  std::vector<LocalPart> parts;
  std::unique_ptr<algebra::Plan> global;
  /// True if an aggregate was decomposed into per-fragment partials plus
  /// a global combine step.
  bool pushed_aggregate = false;
  /// Number of joins distributed to co-located fragment pairs.
  int colocated_joins = 0;
  /// Number of joins lowered to streaming exchanges.
  int exchange_joins = 0;
  /// Number of group-bys lowered to multi-stage plans plus sorts lowered
  /// to sorted runs.
  int olap_parts = 0;
};

/// Splits a logical plan under `rules`. Maximal subtrees of the form
/// Select*/Project*/Distinct over a single base-table Scan become local
/// parts; an Aggregate directly above such a subtree, or above a join
/// that becomes a co-located or exchange part, is decomposed into partial
/// aggregation where the rows are (fragments, join consumers) and a
/// combining aggregation in the global plan (COUNT/SUM/MIN/MAX/AVG).
/// With `rules.distributed_olap`, a global group-by lowers onto the
/// exchange layer as a multi-stage OLAP part when `costs` model that
/// faster than gathering its partials (or when aggregate pushdown is
/// off), and ORDER BY to
/// per-fragment sorted runs (Top-N under a LIMIT directly on it)
/// (DESIGN.md §14). Everything else stays global.
StatusOr<DistributedPlan> SplitPlanForFragments(
    std::unique_ptr<algebra::Plan> plan, const DataDictionary& dictionary,
    const OptimizerRules& rules, const GroupByCosts& costs);

/// The ordinals of `split`'s slots, the literals a cached plan binds at
/// execution (DESIGN.md §15.4): those tagged in a fragment plan the
/// coordinator ships (a plain, co-located or sorted-run part's plan, an
/// exchange input's plan) and in nothing else the split runs (the global
/// plan, an exchange join's predicate, a consumer's post plan, a
/// fixpoint's edge plan).
std::set<int> SlotOrdinals(const DistributedPlan& split);

/// A copy of `split` whose tagged literals take `values` (by ordinal),
/// everywhere they stand: one execution of a cached plan.
DistributedPlan BindSplit(const DistributedPlan& split,
                          const algebra::Literals& values);

/// Deep-copies `plan`, renaming every Scan of `from` to `to` (used to
/// retarget a local part at one fragment).
std::unique_ptr<algebra::Plan> CloneWithScanRenamed(const algebra::Plan& plan,
                                                    const std::string& from,
                                                    const std::string& to);

/// Base tables referenced by Scan nodes (for lock acquisition).
void CollectScanTables(const algebra::Plan& plan,
                       std::vector<std::string>* tables);

/// The one fragment of `info` that can hold rows satisfying `predicate`,
/// when a conjunct pins the fragmentation key of a HASH or RANGE table to
/// a literal; nullopt otherwise.
std::optional<int> PinnedFragment(const TableInfo& info,
                                  const algebra::Expr& predicate);

/// Fragment indexes of `info` that can hold rows surviving the local
/// part's selections: when a selection conjunct sitting directly over the
/// scan pins the fragmentation key to a constant, only the matching
/// fragment needs to run the part (the coordinator-side counterpart of
/// the GDH's DML pruning). Returns all fragments otherwise.
std::vector<int> PruneFragmentsForPart(const TableInfo& info,
                                       const algebra::Plan& part_plan);

}  // namespace prisma::gdh

#endif  // PRISMA_GDH_DISTRIBUTED_PLAN_H_
