#include "prismalog/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "algebra/plan.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "storage/relation.h"

namespace prisma::prismalog {

using algebra::BinaryOp;
using algebra::Expr;
using algebra::JoinPlan;
using algebra::Plan;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;

namespace {

// The \x01 byte is spliced as its own literal: a hex escape greedily
// consumes following hex digits, so "\x01delta:" would parse as \x01de.
constexpr char kIdbPrefix[] = "\x01" "idb:";
constexpr char kDeltaPrefix[] = "\x01" "delta:";

Schema WildcardSchema(size_t arity, const std::string& tag) {
  Schema s;
  for (size_t i = 0; i < arity; ++i) {
    s.AddColumn(StrFormat("%s_c%zu", tag.c_str(), i), DataType::kNull);
  }
  return s;
}

}  // namespace

// ------------------------------------------------------------- Structures

struct Engine::PredicateInfo {
  std::string name;
  size_t arity = 0;
  bool is_edb = false;
  Schema edb_schema;  // EDB only.
  int scc = -1;       // SCC id for stratification (IDB only).

  // IDB evaluation state. `full` and `delta` are scanned by rule plans;
  // `known` deduplicates; `pending` buffers the next delta.
  std::unique_ptr<storage::Relation> full;
  std::unique_ptr<storage::Relation> delta;
  std::vector<Tuple> pending;
  std::set<Tuple> known;
  bool evaluated = false;

  // Lazily cached extension set for negation checks (EDB and IDB).
  bool neg_cache_ready = false;
  std::set<Tuple> neg_cache;
};

struct Engine::RuleInfo {
  const Rule* rule = nullptr;
  std::string head_pred;
  std::vector<int> positive;     // Body indexes of positive atoms.
  std::vector<int> negative;     // Body indexes of negated atoms.
  std::vector<int> comparisons;  // Body indexes of comparisons.
};

// ------------------------------------------------------------ Construction

Engine::Engine(const exec::TableResolver* edb, const sql::CatalogReader* catalog,
               EngineOptions options)
    : edb_(edb), catalog_(catalog), options_(std::move(options)) {}

Engine::~Engine() = default;

// ---------------------------------------------------------------- Analyze

Status Engine::CheckRangeRestriction(const Rule& rule) const {
  std::set<std::string> positive_vars;
  for (const BodyElem& elem : rule.body) {
    if (elem.kind == BodyElem::Kind::kAtom && !elem.negated) {
      for (const Term& t : elem.atom.args) {
        if (t.is_variable()) positive_vars.insert(t.variable);
      }
    }
  }
  auto check = [&](const Term& t, const char* where) -> Status {
    if (t.is_variable() && !positive_vars.contains(t.variable)) {
      return InvalidArgumentError(
          StrFormat("rule %s is not range-restricted: variable %s in %s "
                    "does not occur in a positive body atom",
                    rule.ToString().c_str(), t.variable.c_str(), where));
    }
    return Status::OK();
  };
  for (const Term& t : rule.head.args) RETURN_IF_ERROR(check(t, "the head"));
  for (const BodyElem& elem : rule.body) {
    if (elem.kind == BodyElem::Kind::kComparison) {
      RETURN_IF_ERROR(check(elem.cmp_lhs, "a comparison"));
      RETURN_IF_ERROR(check(elem.cmp_rhs, "a comparison"));
    } else if (elem.negated) {
      for (const Term& t : elem.atom.args) {
        RETURN_IF_ERROR(check(t, "a negated atom"));
      }
    }
  }
  return Status::OK();
}

Status Engine::Analyze(const Program& program) {
  predicates_.clear();
  rules_.clear();
  strata_.clear();
  stats_ = EvalStats();

  auto touch = [&](const Atom& atom) -> Status {
    auto it = predicates_.find(atom.predicate);
    if (it == predicates_.end()) {
      auto info = std::make_unique<PredicateInfo>();
      info->name = atom.predicate;
      info->arity = atom.args.size();
      predicates_[atom.predicate] = std::move(info);
      return Status::OK();
    }
    if (it->second->arity != atom.args.size()) {
      return InvalidArgumentError(
          StrFormat("predicate %s used with arities %zu and %zu",
                    atom.predicate.c_str(), it->second->arity,
                    atom.args.size()));
    }
    return Status::OK();
  };

  std::set<std::string> idb_names;
  for (const Rule& rule : program.rules) {
    RETURN_IF_ERROR(touch(rule.head));
    idb_names.insert(rule.head.predicate);
    for (const BodyElem& elem : rule.body) {
      if (elem.kind == BodyElem::Kind::kAtom) RETURN_IF_ERROR(touch(elem.atom));
    }
    RETURN_IF_ERROR(CheckRangeRestriction(rule));
  }
  if (program.query.has_value()) RETURN_IF_ERROR(touch(*program.query));

  // Classify predicates: rule heads are IDB; everything else must be a
  // base table in the catalog.
  for (auto& [name, info] : predicates_) {
    if (idb_names.contains(name)) {
      auto schema_or = catalog_->GetTableSchema(name);
      if (schema_or.ok()) {
        return InvalidArgumentError("predicate " + name +
                                    " is both a base table and a rule head");
      }
      info->is_edb = false;
      info->full = std::make_unique<storage::Relation>(
          kIdbPrefix + name, WildcardSchema(info->arity, name));
      info->delta = std::make_unique<storage::Relation>(
          kDeltaPrefix + name, WildcardSchema(info->arity, name));
    } else {
      ASSIGN_OR_RETURN(Schema schema, catalog_->GetTableSchema(name));
      if (schema.num_columns() != info->arity) {
        return InvalidArgumentError(
            StrFormat("predicate %s has arity %zu but table has %zu columns",
                      name.c_str(), info->arity, schema.num_columns()));
      }
      info->is_edb = true;
      info->edb_schema = std::move(schema);
    }
  }

  for (const Rule& rule : program.rules) {
    RuleInfo info;
    info.rule = &rule;
    info.head_pred = rule.head.predicate;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const BodyElem& elem = rule.body[i];
      if (elem.kind == BodyElem::Kind::kComparison) {
        info.comparisons.push_back(static_cast<int>(i));
      } else if (elem.negated) {
        info.negative.push_back(static_cast<int>(i));
      } else {
        info.positive.push_back(static_cast<int>(i));
      }
    }
    rules_.push_back(std::move(info));
  }
  return Stratify();
}

// ------------------------------------------------------------ Stratify

Status Engine::Stratify() {
  // Tarjan SCC over IDB predicates; edge head -> body predicate.
  std::vector<std::string> idb;
  for (const auto& [name, info] : predicates_) {
    if (!info->is_edb) idb.push_back(name);
  }
  std::map<std::string, int> index_of;
  for (size_t i = 0; i < idb.size(); ++i) index_of[idb[i]] = static_cast<int>(i);

  // adj[i] = (target, negated).
  std::vector<std::vector<std::pair<int, bool>>> adj(idb.size());
  for (const RuleInfo& rule : rules_) {
    const int from = index_of[rule.head_pred];
    for (const BodyElem& elem : rule.rule->body) {
      if (elem.kind != BodyElem::Kind::kAtom) continue;
      auto it = index_of.find(elem.atom.predicate);
      if (it == index_of.end()) continue;  // EDB.
      adj[from].push_back({it->second, elem.negated});
    }
  }

  const int n = static_cast<int>(idb.size());
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  std::vector<int> scc_of(n, -1);
  int timer = 0;
  int num_sccs = 0;
  std::vector<std::vector<int>> sccs;

  // Iterative Tarjan (explicit stack) to survive deep rule chains.
  struct Frame {
    int v;
    size_t edge = 0;
  };
  for (int root = 0; root < n; ++root) {
    if (disc[root] != -1) continue;
    std::vector<Frame> frames{{root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      const int v = f.v;
      if (f.edge == 0) {
        disc[v] = low[v] = timer++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (f.edge < adj[v].size()) {
        const int w = adj[v][f.edge].first;
        ++f.edge;
        if (disc[w] == -1) {
          frames.push_back({w});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], disc[w]);
      }
      if (descended) continue;
      if (low[v] == disc[v]) {
        sccs.emplace_back();
        while (true) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc_of[w] = num_sccs;
          sccs.back().push_back(w);
          if (w == v) break;
        }
        ++num_sccs;
      }
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().v] = std::min(low[frames.back().v], low[v]);
      }
    }
  }

  // Negative edges inside one SCC are unstratifiable.
  for (int v = 0; v < n; ++v) {
    for (const auto& [w, negated] : adj[v]) {
      if (negated && scc_of[v] == scc_of[w]) {
        return InvalidArgumentError(
            "program is not stratifiable: " + idb[v] +
            " depends negatively on " + idb[w] + " within a recursion");
      }
    }
  }

  // Tarjan pops SCCs after everything they reach, i.e. dependencies first.
  strata_.clear();
  for (const auto& scc : sccs) {
    std::vector<std::string> names;
    for (const int v : scc) {
      names.push_back(idb[v]);
      predicates_[idb[v]]->scc = static_cast<int>(strata_.size());
    }
    std::sort(names.begin(), names.end());
    strata_.push_back(std::move(names));
  }
  stats_.num_strata = static_cast<int>(strata_.size());
  return Status::OK();
}

// ---------------------------------------------------------- Rule planning

namespace {

/// Resolver used while executing rule plans: IDB/delta names map to the
/// engine's materialized relations, everything else goes to the EDB.
class RuleResolver : public exec::TableResolver {
 public:
  RuleResolver(const exec::TableResolver* edb,
               const std::map<std::string,
                              std::unique_ptr<Engine::PredicateInfo>>* preds)
      : edb_(edb), preds_(preds) {}

  StatusOr<const storage::Relation*> Resolve(
      const std::string& table) const override;

 private:
  const exec::TableResolver* edb_;
  const std::map<std::string, std::unique_ptr<Engine::PredicateInfo>>* preds_;
};

}  // namespace

StatusOr<const storage::Relation*> RuleResolver::Resolve(
    const std::string& table) const {
  if (table.rfind(kIdbPrefix, 0) == 0) {
    auto it = preds_->find(table.substr(sizeof(kIdbPrefix) - 1));
    if (it == preds_->end()) return NotFoundError("no IDB " + table);
    return it->second->full.get();
  }
  if (table.rfind(kDeltaPrefix, 0) == 0) {
    auto it = preds_->find(table.substr(sizeof(kDeltaPrefix) - 1));
    if (it == preds_->end()) return NotFoundError("no delta " + table);
    return it->second->delta.get();
  }
  return edb_->Resolve(table);
}

StatusOr<std::vector<Tuple>> Engine::EvaluateRule(const RuleInfo& rule,
                                                  int delta_occurrence) {
  ++stats_.rule_evaluations;
  const Rule& r = *rule.rule;

  // Pure-constant rules (facts, possibly guarded by constant comparisons).
  if (rule.positive.empty()) {
    for (const int ci : rule.comparisons) {
      const BodyElem& cmp = r.body[ci];
      const int c = cmp.cmp_lhs.constant.Compare(cmp.cmp_rhs.constant);
      bool pass = false;
      switch (cmp.cmp_op) {
        case BinaryOp::kEq: pass = c == 0; break;
        case BinaryOp::kNe: pass = c != 0; break;
        case BinaryOp::kLt: pass = c < 0; break;
        case BinaryOp::kLe: pass = c <= 0; break;
        case BinaryOp::kGt: pass = c > 0; break;
        case BinaryOp::kGe: pass = c >= 0; break;
        default: return InternalError("bad comparison op");
      }
      if (!pass) return std::vector<Tuple>{};
    }
    std::vector<Value> values;
    for (const Term& t : r.head.args) values.push_back(t.constant);
    return std::vector<Tuple>{Tuple(std::move(values))};
  }

  // Build the body plan: join chain over the positive atoms.
  std::map<std::string, std::pair<size_t, DataType>> bindings;  // var -> col.
  std::unique_ptr<Plan> plan;
  size_t width = 0;

  for (size_t occ = 0; occ < rule.positive.size(); ++occ) {
    const Atom& atom = r.body[rule.positive[occ]].atom;
    const PredicateInfo& info = *predicates_.at(atom.predicate);

    std::string scan_name;
    Schema scan_schema;
    if (info.is_edb) {
      scan_name = atom.predicate;
      scan_schema = info.edb_schema.Qualified(StrFormat("b%zu", occ));
    } else {
      scan_name = (static_cast<int>(occ) == delta_occurrence ? kDeltaPrefix
                                                             : kIdbPrefix) +
                  atom.predicate;
      scan_schema = WildcardSchema(info.arity, StrFormat("b%zu", occ));
    }
    std::unique_ptr<Plan> scan = ScanPlan::Create(scan_name, scan_schema);

    // Per-atom restrictions: constant arguments and repeated variables.
    std::vector<std::unique_ptr<Expr>> local;
    std::map<std::string, size_t> local_vars;
    for (size_t k = 0; k < atom.args.size(); ++k) {
      const Term& t = atom.args[k];
      const DataType ct = scan_schema.column(k).type;
      if (!t.is_variable()) {
        local.push_back(Expr::Binary(BinaryOp::kEq, Expr::ColumnIndex(k, ct),
                                     Expr::Literal(t.constant)));
        continue;
      }
      auto [it, inserted] = local_vars.try_emplace(t.variable, k);
      if (!inserted) {
        local.push_back(Expr::Binary(BinaryOp::kEq,
                                     Expr::ColumnIndex(it->second, ct),
                                     Expr::ColumnIndex(k, ct)));
      }
    }
    if (!local.empty()) {
      ASSIGN_OR_RETURN(
          scan, SelectPlan::Create(std::move(scan),
                                   algebra::CombineConjuncts(std::move(local))));
    }

    if (plan == nullptr) {
      plan = std::move(scan);
    } else {
      // Equi-join on variables shared with the accumulated plan.
      std::vector<std::unique_ptr<Expr>> conds;
      for (const auto& [var, col] : local_vars) {
        auto bound = bindings.find(var);
        if (bound == bindings.end()) continue;
        conds.push_back(Expr::Binary(
            BinaryOp::kEq,
            Expr::ColumnIndex(bound->second.first, bound->second.second),
            Expr::ColumnIndex(width + col,
                              scan_schema.column(col).type)));
      }
      ASSIGN_OR_RETURN(
          plan, JoinPlan::Create(std::move(plan), std::move(scan),
                                 algebra::CombineConjuncts(std::move(conds))));
    }
    for (const auto& [var, col] : local_vars) {
      bindings.try_emplace(var,
                           std::make_pair(width + col,
                                          scan_schema.column(col).type));
    }
    width += scan_schema.num_columns();
  }

  // Comparison built-ins over the joined tuple.
  std::vector<std::unique_ptr<Expr>> cmps;
  auto term_expr = [&](const Term& t) -> std::unique_ptr<Expr> {
    if (t.is_variable()) {
      const auto& [col, type] = bindings.at(t.variable);
      return Expr::ColumnIndex(col, type);
    }
    return Expr::Literal(t.constant);
  };
  for (const int ci : rule.comparisons) {
    const BodyElem& cmp = r.body[ci];
    cmps.push_back(Expr::Binary(cmp.cmp_op, term_expr(cmp.cmp_lhs),
                                term_expr(cmp.cmp_rhs)));
  }
  if (!cmps.empty()) {
    ASSIGN_OR_RETURN(plan,
                     SelectPlan::Create(std::move(plan),
                                        algebra::CombineConjuncts(std::move(cmps))));
  }

  // Project the head values followed by each negated atom's key block.
  std::vector<std::unique_ptr<Expr>> proj;
  std::vector<std::string> names;
  for (size_t i = 0; i < r.head.args.size(); ++i) {
    proj.push_back(term_expr(r.head.args[i]));
    names.push_back(StrFormat("h%zu", i));
  }
  const size_t head_width = r.head.args.size();
  for (size_t ni = 0; ni < rule.negative.size(); ++ni) {
    const Atom& atom = r.body[rule.negative[ni]].atom;
    for (size_t k = 0; k < atom.args.size(); ++k) {
      proj.push_back(term_expr(atom.args[k]));
      names.push_back(StrFormat("n%zu_%zu", ni, k));
    }
  }
  ASSIGN_OR_RETURN(plan, ProjectPlan::Create(std::move(plan), std::move(proj),
                                             std::move(names)));

  // Execute. Datalog columns are dynamically typed, so force the
  // interpreter (the compiler specializes on static types).
  RuleResolver resolver(edb_, &predicates_);
  exec::ExecOptions exec_opts;
  exec_opts.expr_mode = exec::ExprMode::kInterpreted;
  exec_opts.costs = options_.costs;
  exec_opts.charge = options_.charge;
  exec::Executor executor(&resolver, exec_opts);
  ASSIGN_OR_RETURN(std::vector<Tuple> joined, executor.Execute(*plan));

  // Anti-join: drop derivations whose negated-atom keys are present.
  std::vector<Tuple> out;
  out.reserve(joined.size());
  for (Tuple& t : joined) {
    bool rejected = false;
    size_t offset = head_width;
    for (const int ni : rule.negative) {
      const Atom& atom = r.body[ni].atom;
      PredicateInfo& neg = *predicates_.at(atom.predicate);
      if (!neg.neg_cache_ready) {
        ASSIGN_OR_RETURN(std::vector<Tuple> ext, ExtensionOf(atom.predicate));
        neg.neg_cache = std::set<Tuple>(ext.begin(), ext.end());
        neg.neg_cache_ready = true;
      }
      std::vector<Value> key;
      for (size_t k = 0; k < atom.args.size(); ++k) {
        key.push_back(t.at(offset + k));
      }
      offset += atom.args.size();
      if (neg.neg_cache.contains(Tuple(std::move(key)))) {
        rejected = true;
        break;
      }
    }
    if (rejected) continue;
    std::vector<Value> head_vals(t.values().begin(),
                                 t.values().begin() + head_width);
    out.push_back(Tuple(std::move(head_vals)));
  }
  return out;
}

// ------------------------------------------------------------- Evaluation

StatusOr<size_t> Engine::Absorb(const std::string& pred,
                                std::vector<Tuple> tuples) {
  PredicateInfo& info = *predicates_.at(pred);
  size_t fresh = 0;
  for (Tuple& t : tuples) {
    if (!info.known.insert(t).second) continue;
    RETURN_IF_ERROR(info.full->Insert(t).status());
    info.pending.push_back(std::move(t));
    ++fresh;
    ++stats_.facts_derived;
  }
  return fresh;
}

// ---------------------------------------------------- Linear TC matching

namespace {

/// The two distinct variables of a binary all-variable atom, or nullopt.
std::optional<std::pair<std::string, std::string>> VarsOf(const Atom& a) {
  if (a.args.size() != 2 || !a.args[0].is_variable() ||
      !a.args[1].is_variable() ||
      a.args[0].variable == a.args[1].variable) {
    return std::nullopt;
  }
  return std::make_pair(a.args[0].variable, a.args[1].variable);
}

/// `rule` as a plain positive-conjunction body, or nullopt if it uses
/// negation or comparisons (which disqualify the TC pattern).
std::optional<std::vector<const Atom*>> PositiveBody(const Rule& rule) {
  std::vector<const Atom*> atoms;
  for (const BodyElem& elem : rule.body) {
    if (elem.kind != BodyElem::Kind::kAtom || elem.negated) {
      return std::nullopt;
    }
    atoms.push_back(&elem.atom);
  }
  return atoms;
}

/// The edge predicate e when `base` and `step` make their head predicate
/// p exactly the transitive closure of e, or nullopt:
///   base: p(X, Y) :- e(X, Y).   (e distinct from p)
///   step: p(X, Z) :- e(X, Y), p(Y, Z).  or  p(X, Z) :- p(X, Y), e(Y, Z).
std::optional<std::string> MatchLinearTc(const Rule& base, const Rule& step) {
  auto base_body = PositiveBody(base);
  auto step_body = PositiveBody(step);
  if (!base_body || !step_body || base_body->size() != 1 ||
      step_body->size() != 2) {
    return std::nullopt;
  }
  const std::string& p = base.head.predicate;
  const Atom& edge = *base_body->front();
  if (step.head.predicate != p || edge.predicate == p) return std::nullopt;
  auto hb = VarsOf(base.head);
  auto bb = VarsOf(edge);
  if (!hb || !bb || *hb != *bb) return std::nullopt;
  const std::string& e = edge.predicate;

  const Atom& s0 = *(*step_body)[0];
  const Atom& s1 = *(*step_body)[1];
  auto hs = VarsOf(step.head);
  auto v0 = VarsOf(s0);
  auto v1 = VarsOf(s1);
  if (!hs || !v0 || !v1) return std::nullopt;
  const bool chained = v0->second == v1->first && hs->first == v0->first &&
                       hs->second == v1->second;
  const bool left_form = s0.predicate == e && s1.predicate == p && chained;
  const bool right_form = s0.predicate == p && s1.predicate == e && chained;
  if (!left_form && !right_form) return std::nullopt;
  return e;
}

}  // namespace

StatusOr<bool> Engine::TryTcShortcut(const std::vector<std::string>& stratum) {
  if (!options_.use_tc_operator || stratum.size() != 1) return false;
  const std::string& p = stratum[0];
  if (predicates_.at(p)->arity != 2) return false;

  const RuleInfo* base = nullptr;
  const RuleInfo* step = nullptr;
  for (const RuleInfo& rule : rules_) {
    if (rule.head_pred != p) continue;
    if (!rule.negative.empty() || !rule.comparisons.empty()) return false;
    if (rule.positive.size() == 1 && base == nullptr) {
      base = &rule;
    } else if (rule.positive.size() == 2 && step == nullptr) {
      step = &rule;
    } else {
      return false;
    }
  }
  if (base == nullptr || step == nullptr) return false;
  const std::optional<std::string> e =
      MatchLinearTc(*base->rule, *step->rule);
  if (!e || predicates_.at(*e)->arity != 2) return false;

  // p is exactly the transitive closure of e: use the TC operator.
  ASSIGN_OR_RETURN(std::vector<Tuple> edges, ExtensionOf(*e));
  exec::TcStats tc_stats;
  ASSIGN_OR_RETURN(std::vector<Tuple> closure,
                   exec::TransitiveClosure(edges, options_.tc_algorithm,
                                           &tc_stats));
  if (options_.charge) {
    options_.charge(static_cast<sim::SimTime>(tc_stats.pairs_derived) *
                    options_.costs.hash_ns);
  }
  RETURN_IF_ERROR(Absorb(p, std::move(closure)).status());
  predicates_.at(p)->pending.clear();
  stats_.iterations += tc_stats.iterations;
  stats_.used_tc_operator = true;
  return true;
}

Status Engine::EvaluateStratum(const std::vector<std::string>& stratum) {
  std::set<std::string> in_stratum(stratum.begin(), stratum.end());

  ASSIGN_OR_RETURN(bool done, TryTcShortcut(stratum));
  if (done) {
    for (const std::string& p : stratum) predicates_.at(p)->evaluated = true;
    return Status::OK();
  }

  // Partition this stratum's rules into non-recursive and recursive.
  std::vector<const RuleInfo*> non_recursive;
  std::vector<const RuleInfo*> recursive;
  for (const RuleInfo& rule : rules_) {
    if (!in_stratum.contains(rule.head_pred)) continue;
    bool is_recursive = false;
    for (const int pi : rule.positive) {
      if (in_stratum.contains(rule.rule->body[pi].atom.predicate)) {
        is_recursive = true;
        break;
      }
    }
    (is_recursive ? recursive : non_recursive).push_back(&rule);
  }

  // Seed with the non-recursive rules.
  for (const RuleInfo* rule : non_recursive) {
    ASSIGN_OR_RETURN(std::vector<Tuple> derived, EvaluateRule(*rule, -1));
    RETURN_IF_ERROR(Absorb(rule->head_pred, std::move(derived)).status());
  }

  // Seminaive iteration: only new facts feed the next round.
  auto flush_deltas = [&]() -> StatusOr<bool> {
    bool any = false;
    for (const std::string& p : stratum) {
      PredicateInfo& info = *predicates_.at(p);
      info.delta->Clear();
      for (Tuple& t : info.pending) {
        RETURN_IF_ERROR(info.delta->Insert(std::move(t)).status());
        any = true;
      }
      info.pending.clear();
    }
    return any;
  };

  ASSIGN_OR_RETURN(bool have_delta, flush_deltas());
  while (have_delta) {
    ++stats_.iterations;
    if (stats_.iterations > options_.max_iterations) {
      return ResourceExhaustedError("PRISMAlog iteration limit exceeded");
    }
    for (const RuleInfo* rule : recursive) {
      for (size_t occ = 0; occ < rule->positive.size(); ++occ) {
        const std::string& body_pred =
            rule->rule->body[rule->positive[occ]].atom.predicate;
        if (!in_stratum.contains(body_pred)) continue;
        ASSIGN_OR_RETURN(std::vector<Tuple> derived,
                         EvaluateRule(*rule, static_cast<int>(occ)));
        RETURN_IF_ERROR(Absorb(rule->head_pred, std::move(derived)).status());
      }
    }
    ASSIGN_OR_RETURN(have_delta, flush_deltas());
  }

  for (const std::string& p : stratum) predicates_.at(p)->evaluated = true;
  return Status::OK();
}

StatusOr<std::vector<Tuple>> Engine::ExtensionOf(const std::string& predicate) {
  auto it = predicates_.find(predicate);
  if (it == predicates_.end()) {
    return NotFoundError("unknown predicate " + predicate);
  }
  if (it->second->is_edb) {
    ASSIGN_OR_RETURN(const storage::Relation* rel, edb_->Resolve(predicate));
    if (options_.charge) {
      options_.charge(static_cast<sim::SimTime>(rel->num_tuples()) *
                      options_.costs.tuple_ns);
    }
    return rel->AllTuples();
  }
  return it->second->full->AllTuples();
}

StatusOr<QueryResult> Engine::Run(const Program& program) {
  if (!program.query.has_value()) {
    return InvalidArgumentError("program has no query");
  }
  RETURN_IF_ERROR(Analyze(program));
  for (const auto& stratum : strata_) {
    RETURN_IF_ERROR(EvaluateStratum(stratum));
  }

  const Atom& goal = *program.query;
  ASSIGN_OR_RETURN(std::vector<Tuple> extension, ExtensionOf(goal.predicate));
  return AnswerGoal(goal, extension);
}

StatusOr<std::vector<Tuple>> Engine::EvaluatePredicate(
    const Program& program, const std::string& predicate) {
  RETURN_IF_ERROR(Analyze(program));
  for (const auto& stratum : strata_) {
    RETURN_IF_ERROR(EvaluateStratum(stratum));
  }
  return ExtensionOf(predicate);
}

std::optional<LinearTcPattern> DetectLinearTc(const Program& program) {
  // Exactly the two-rule shape: any extra rule or in-program fact could
  // change p's extension, so the conservative match refuses it.
  if (program.rules.size() != 2) return std::nullopt;

  const Rule* base = nullptr;
  const Rule* step = nullptr;
  for (const Rule& rule : program.rules) {
    if (rule.IsFact()) return std::nullopt;
    auto body = PositiveBody(rule);
    if (!body) return std::nullopt;
    if (body->size() == 1 && base == nullptr) {
      base = &rule;
    } else if (body->size() == 2 && step == nullptr) {
      step = &rule;
    } else {
      return std::nullopt;
    }
  }
  if (base == nullptr || step == nullptr) return std::nullopt;
  std::optional<std::string> e = MatchLinearTc(*base, *step);
  if (!e) return std::nullopt;
  return LinearTcPattern{base->head.predicate, std::move(*e)};
}

QueryResult AnswerGoal(const Atom& goal, const std::vector<Tuple>& extension) {
  // Filter by constant/repeated-variable arguments, project variables.
  std::vector<std::string> var_names;
  std::map<std::string, size_t> first_pos;
  for (size_t i = 0; i < goal.args.size(); ++i) {
    if (goal.args[i].is_variable() &&
        first_pos.try_emplace(goal.args[i].variable, i).second) {
      var_names.push_back(goal.args[i].variable);
    }
  }

  std::set<Tuple> distinct;
  for (const Tuple& t : extension) {
    bool match = true;
    for (size_t i = 0; i < goal.args.size(); ++i) {
      const Term& arg = goal.args[i];
      if (!arg.is_variable()) {
        if (t.at(i).Compare(arg.constant) != 0) {
          match = false;
          break;
        }
      } else if (first_pos[arg.variable] != i &&
                 t.at(i).Compare(t.at(first_pos[arg.variable])) != 0) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    std::vector<Value> row;
    for (const std::string& v : var_names) row.push_back(t.at(first_pos[v]));
    distinct.insert(Tuple(std::move(row)));
  }

  QueryResult result;
  if (var_names.empty()) {
    result.schema.AddColumn("sat", DataType::kBool);
    result.tuples.push_back(Tuple({Value::Bool(!distinct.empty())}));
    return result;
  }
  for (const std::string& v : var_names) {
    result.schema.AddColumn(v, DataType::kNull);
  }
  result.tuples.assign(distinct.begin(), distinct.end());
  return result;
}

}  // namespace prisma::prismalog
