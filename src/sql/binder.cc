#include "sql/binder.h"

#include <utility>

#include "common/str_util.h"
#include "exec/expr_eval.h"
#include "sql/parser.h"

namespace prisma::sql {
namespace {

using algebra::AggFunc;
using algebra::AggregatePlan;
using algebra::AggSpec;
using algebra::DistinctPlan;
using algebra::Expr;
using algebra::JoinPlan;
using algebra::LimitPlan;
using algebra::Plan;
using algebra::ProjectPlan;
using algebra::ScanPlan;
using algebra::SelectPlan;
using algebra::SortKey;
using algebra::SortPlan;

/// Output column name for an item without an explicit alias.
std::string DeriveName(const SqlExpr& e) {
  if (e.kind == SqlExpr::Kind::kColumn) {
    const size_t dot = e.name.rfind('.');
    return dot == std::string::npos ? e.name : e.name.substr(dot + 1);
  }
  if (e.kind == SqlExpr::Kind::kFuncCall) {
    return e.name + "(" + (e.left ? e.left->ToString() : "*") + ")";
  }
  return e.ToString();
}

/// Lowers a surface expression to an algebra expression. Aggregate calls
/// are rejected here (the SELECT binder peels them off beforehand), except
/// in a HAVING predicate over `outputs`: there a call that repeats a
/// select item names that item's output column.
///
/// Literals keep their ordinals only under `tag`, which SELECT's WHERE
/// and ON predicates set (DESIGN.md §15.4): the binder reads no value of
/// theirs. A select item's, GROUP BY's, HAVING's or ORDER BY's literal
/// may name an output column or match another item by its text, so its
/// value is part of the statement's shape and it stays untagged.
StatusOr<std::unique_ptr<Expr>> Lower(const SqlExpr& e,
                                      const SelectStmt* outputs = nullptr,
                                      bool tag = false) {
  switch (e.kind) {
    case SqlExpr::Kind::kLiteral:
      return Expr::Literal(e.literal, tag ? e.ordinal : -1);
    case SqlExpr::Kind::kColumn:
      return Expr::ColumnRef(e.name);
    case SqlExpr::Kind::kUnary: {
      ASSIGN_OR_RETURN(auto operand, Lower(*e.left, outputs, tag));
      return Expr::Unary(e.unary_op, std::move(operand));
    }
    case SqlExpr::Kind::kBinary: {
      ASSIGN_OR_RETURN(auto l, Lower(*e.left, outputs, tag));
      ASSIGN_OR_RETURN(auto r, Lower(*e.right, outputs, tag));
      return Expr::Binary(e.binary_op, std::move(l), std::move(r));
    }
    case SqlExpr::Kind::kFuncCall:
      if (outputs != nullptr) {
        for (const SelectItem& item : outputs->items) {
          if (!item.star && item.expr->ToString() == e.ToString()) {
            return Expr::ColumnRef(item.alias.empty() ? DeriveName(*item.expr)
                                                      : item.alias);
          }
        }
      }
      return InvalidArgumentError(
          "aggregate " + e.name +
          "() is only allowed as a direct select item");
  }
  return InternalError("corrupt SqlExpr");
}

StatusOr<AggFunc> AggFuncByName(const std::string& name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  if (name == "avg") return AggFunc::kAvg;
  return InvalidArgumentError("unknown function " + name);
}

/// Builds the FROM subtree: scans qualified by alias, chained with joins.
StatusOr<std::unique_ptr<Plan>> BindFrom(const SelectStmt& stmt,
                                         const CatalogReader& catalog) {
  if (stmt.from.empty()) {
    return InvalidArgumentError("SELECT requires a FROM clause");
  }
  std::unique_ptr<Plan> plan;
  for (const TableRef& ref : stmt.from) {
    ASSIGN_OR_RETURN(Schema schema, catalog.GetTableSchema(ref.table));
    auto scan = ScanPlan::Create(ref.table, schema.Qualified(ref.alias));
    if (plan == nullptr) {
      plan = std::move(scan);
      continue;
    }
    std::unique_ptr<Expr> condition;
    if (ref.join_condition != nullptr) {
      ASSIGN_OR_RETURN(condition,
                       Lower(*ref.join_condition, nullptr, /*tag=*/true));
    }
    ASSIGN_OR_RETURN(
        plan, JoinPlan::Create(std::move(plan), std::move(scan),
                               std::move(condition)));
  }
  return plan;
}

StatusOr<std::unique_ptr<Plan>> BindSelect(const SelectStmt& stmt,
                                           const CatalogReader& catalog) {
  ASSIGN_OR_RETURN(std::unique_ptr<Plan> plan, BindFrom(stmt, catalog));

  if (stmt.where != nullptr) {
    ASSIGN_OR_RETURN(auto predicate,
                     Lower(*stmt.where, nullptr, /*tag=*/true));
    ASSIGN_OR_RETURN(plan,
                     SelectPlan::Create(std::move(plan), std::move(predicate)));
  }

  const bool has_agg_item = [&] {
    for (const SelectItem& item : stmt.items) {
      if (!item.star && item.expr->kind == SqlExpr::Kind::kFuncCall) {
        return true;
      }
    }
    return false;
  }();
  const bool aggregating = has_agg_item || !stmt.group_by.empty();

  if (aggregating) {
    // GROUP BY expressions, bound to the FROM/WHERE output.
    std::vector<std::unique_ptr<Expr>> group_exprs;
    std::vector<std::string> group_names;
    for (const auto& g : stmt.group_by) {
      ASSIGN_OR_RETURN(auto e, Lower(*g));
      group_exprs.push_back(std::move(e));
      group_names.push_back(DeriveName(*g));
    }
    // Select items: aggregates become AggSpecs; plain expressions must
    // match a GROUP BY expression structurally.
    std::vector<AggSpec> aggs;
    struct OutputRef {
      std::string column;  // Name in the aggregate output schema.
      std::string alias;   // Final output name.
    };
    std::vector<OutputRef> outputs;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        return InvalidArgumentError("SELECT * cannot be combined with "
                                    "aggregation");
      }
      const std::string out_name =
          item.alias.empty() ? DeriveName(*item.expr) : item.alias;
      if (item.expr->kind == SqlExpr::Kind::kFuncCall) {
        ASSIGN_OR_RETURN(AggFunc func, AggFuncByName(item.expr->name));
        AggSpec spec;
        spec.func = func;
        if (item.expr->left != nullptr) {
          ASSIGN_OR_RETURN(spec.arg, Lower(*item.expr->left));
        } else if (func != AggFunc::kCount) {
          return InvalidArgumentError("only COUNT accepts '*'");
        }
        spec.output_name = out_name;
        aggs.push_back(std::move(spec));
        outputs.push_back({out_name, out_name});
      } else {
        ASSIGN_OR_RETURN(auto lowered, Lower(*item.expr));
        // Must match one of the group-by expressions.
        size_t match = group_exprs.size();
        for (size_t i = 0; i < group_exprs.size(); ++i) {
          if (group_exprs[i]->Equals(*lowered)) {
            match = i;
            break;
          }
        }
        if (match == group_exprs.size()) {
          return InvalidArgumentError(
              "select item " + item.expr->ToString() +
              " is neither aggregated nor in GROUP BY");
        }
        outputs.push_back({group_names[match], out_name});
      }
    }
    ASSIGN_OR_RETURN(
        plan, AggregatePlan::Create(std::move(plan), std::move(group_exprs),
                                    group_names, std::move(aggs)));
    // Final projection reorders/renames aggregate output to select order.
    std::vector<std::unique_ptr<Expr>> proj;
    std::vector<std::string> names;
    for (const OutputRef& out : outputs) {
      proj.push_back(Expr::ColumnRef(out.column));
      names.push_back(out.alias);
    }
    ASSIGN_OR_RETURN(plan, ProjectPlan::Create(std::move(plan),
                                               std::move(proj), names));
    if (stmt.having != nullptr) {
      ASSIGN_OR_RETURN(auto predicate, Lower(*stmt.having, &stmt));
      ASSIGN_OR_RETURN(plan, SelectPlan::Create(std::move(plan),
                                                std::move(predicate)));
    }
  } else {
    if (stmt.having != nullptr) {
      return InvalidArgumentError("HAVING needs GROUP BY or an aggregate");
    }
    // Plain projection; star expands the child schema.
    std::vector<std::unique_ptr<Expr>> proj;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        for (size_t i = 0; i < plan->schema().num_columns(); ++i) {
          const Column& col = plan->schema().column(i);
          proj.push_back(Expr::ColumnIndex(i, col.type));
          const size_t dot = col.name.rfind('.');
          names.push_back(dot == std::string::npos ? col.name
                                                   : col.name.substr(dot + 1));
        }
        continue;
      }
      ASSIGN_OR_RETURN(auto e, Lower(*item.expr));
      proj.push_back(std::move(e));
      names.push_back(item.alias.empty() ? DeriveName(*item.expr)
                                         : item.alias);
    }
    ASSIGN_OR_RETURN(
        plan, ProjectPlan::Create(std::move(plan), std::move(proj), names));
  }

  if (stmt.distinct) {
    plan = DistinctPlan::Create(std::move(plan));
  }

  if (!stmt.order_by.empty()) {
    // Probe whether every key resolves against the output schema.
    bool output_ok = true;
    for (const OrderItem& item : stmt.order_by) {
      ASSIGN_OR_RETURN(auto probe, Lower(*item.expr));
      if (!probe->Bind(plan->schema()).ok()) {
        output_ok = false;
        break;
      }
    }
    if (output_ok) {
      std::vector<SortKey> keys;
      for (const OrderItem& item : stmt.order_by) {
        ASSIGN_OR_RETURN(auto e, Lower(*item.expr));
        keys.push_back(SortKey{std::move(e), item.descending});
      }
      ASSIGN_OR_RETURN(plan,
                       SortPlan::Create(std::move(plan), std::move(keys)));
    } else if (!aggregating) {
      // Resolve against the FROM scope and sort below the projection
      // (descending through a Distinct, which is order-preserving here).
      Plan* host = plan.get();
      while (host->kind() == algebra::PlanKind::kDistinct) {
        host = host->mutable_child();
      }
      if (host->kind() != algebra::PlanKind::kProject) {
        return InvalidArgumentError("cannot resolve ORDER BY columns");
      }
      std::vector<SortKey> keys;
      for (const OrderItem& item : stmt.order_by) {
        ASSIGN_OR_RETURN(auto e, Lower(*item.expr));
        keys.push_back(SortKey{std::move(e), item.descending});
      }
      ASSIGN_OR_RETURN(
          auto sorted, SortPlan::Create(host->TakeChild(0), std::move(keys)));
      host->SetChild(0, std::move(sorted));
    } else {
      return InvalidArgumentError(
          "ORDER BY of an aggregating query must reference select outputs");
    }
  }

  if (stmt.limit.has_value()) {
    plan = LimitPlan::Create(std::move(plan), *stmt.limit);
  }
  return plan;
}

/// Evaluates a constant expression (INSERT values).
StatusOr<Value> EvalConstant(const SqlExpr& e) {
  ASSIGN_OR_RETURN(auto lowered, Lower(e));
  if (!lowered->IsConstant()) {
    return InvalidArgumentError("INSERT values must be constants, got " +
                                e.ToString());
  }
  RETURN_IF_ERROR(lowered->Bind(Schema()));
  return exec::EvalExpr(*lowered, Tuple());
}

StatusOr<BoundStatement> BindInsert(const InsertStmt& stmt,
                                    const CatalogReader& catalog) {
  BoundStatement bound;
  bound.kind = Statement::Kind::kInsert;
  bound.table = stmt.table;
  ASSIGN_OR_RETURN(Schema schema, catalog.GetTableSchema(stmt.table));

  // Map the statement's column list to schema positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& col : stmt.columns) {
      ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
      positions.push_back(idx);
    }
  }
  for (const auto& row : stmt.rows) {
    if (row.size() != positions.size()) {
      return InvalidArgumentError(
          StrFormat("INSERT row has %zu values, expected %zu", row.size(),
                    positions.size()));
    }
    std::vector<Value> values(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < row.size(); ++i) {
      ASSIGN_OR_RETURN(Value v, EvalConstant(*row[i]));
      ASSIGN_OR_RETURN(values[positions[i]],
                       CoerceValue(v, schema.column(positions[i]).type));
    }
    bound.insert_rows.push_back(Tuple(std::move(values)));
  }
  return bound;
}

}  // namespace

StatusOr<BoundStatement> BindStatement(const Statement& stmt,
                                       const CatalogReader& catalog) {
  BoundStatement bound;
  bound.kind = stmt.kind;
  switch (stmt.kind) {
    case Statement::Kind::kCheckpoint:
      return bound;
    case Statement::Kind::kSelect: {
      ASSIGN_OR_RETURN(bound.plan, BindSelect(*stmt.select, catalog));
      return bound;
    }
    case Statement::Kind::kInsert:
      return BindInsert(*stmt.insert, catalog);
    case Statement::Kind::kDelete: {
      bound.table = stmt.del->table;
      ASSIGN_OR_RETURN(Schema schema, catalog.GetTableSchema(bound.table));
      if (stmt.del->where != nullptr) {
        ASSIGN_OR_RETURN(bound.where, Lower(*stmt.del->where));
        RETURN_IF_ERROR(bound.where->Bind(schema));
        if (bound.where->result_type() != DataType::kBool &&
            bound.where->result_type() != DataType::kNull) {
          return InvalidArgumentError("WHERE must be BOOL");
        }
      }
      return bound;
    }
    case Statement::Kind::kUpdate: {
      bound.table = stmt.update->table;
      ASSIGN_OR_RETURN(Schema schema, catalog.GetTableSchema(bound.table));
      for (const auto& [col, expr] : stmt.update->assignments) {
        ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        ASSIGN_OR_RETURN(auto lowered, Lower(*expr));
        RETURN_IF_ERROR(lowered->Bind(schema));
        if (!IsCoercible(lowered->result_type(), schema.column(idx).type)) {
          return InvalidArgumentError(
              StrFormat("cannot assign %s to column %s %s",
                        DataTypeName(lowered->result_type()), col.c_str(),
                        DataTypeName(schema.column(idx).type)));
        }
        bound.assignments.push_back({idx, std::move(lowered)});
      }
      if (stmt.update->where != nullptr) {
        ASSIGN_OR_RETURN(bound.where, Lower(*stmt.update->where));
        RETURN_IF_ERROR(bound.where->Bind(schema));
        if (bound.where->result_type() != DataType::kBool &&
            bound.where->result_type() != DataType::kNull) {
          return InvalidArgumentError("WHERE must be BOOL");
        }
      }
      return bound;
    }
    case Statement::Kind::kCreateTable: {
      bound.table = stmt.create_table->table;
      Schema schema;
      for (const ColumnDef& col : stmt.create_table->columns) {
        if (schema.HasColumn(col.name)) {
          return InvalidArgumentError("duplicate column " + col.name);
        }
        schema.AddColumn(col.name, col.type);
      }
      bound.create_schema = std::move(schema);
      bound.fragmentation = stmt.create_table->fragmentation;
      if (bound.fragmentation.strategy == FragmentStrategy::kHash ||
          bound.fragmentation.strategy == FragmentStrategy::kRange) {
        ASSIGN_OR_RETURN(bound.fragment_column,
                         bound.create_schema.ColumnIndex(
                             bound.fragmentation.column));
      }
      return bound;
    }
    case Statement::Kind::kDropTable: {
      bound.table = stmt.drop_table->table;
      // Existence is checked by the data dictionary at execution time.
      return bound;
    }
    case Statement::Kind::kCreateIndex: {
      bound.table = stmt.create_index->table;
      bound.index_name = stmt.create_index->index;
      bound.index_ordered = stmt.create_index->ordered;
      ASSIGN_OR_RETURN(Schema schema, catalog.GetTableSchema(bound.table));
      for (const std::string& col : stmt.create_index->columns) {
        ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(col));
        bound.index_columns.push_back(idx);
      }
      return bound;
    }
    case Statement::Kind::kTxnControl:
      bound.txn_control = stmt.txn_control;
      return bound;
  }
  return InternalError("corrupt statement kind");
}

StatusOr<BoundStatement> ParseAndBind(const std::string& sql,
                                      const CatalogReader& catalog) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return BindStatement(stmt, catalog);
}

}  // namespace prisma::sql
