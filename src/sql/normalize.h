#ifndef PRISMA_SQL_NORMALIZE_H_
#define PRISMA_SQL_NORMALIZE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace prisma::sql {

/// A statement reduced to its parameterized shape (DESIGN.md §15.4).
///
/// `fingerprint` is the token stream rendered with canonical single-space
/// separation, identifiers upper-cased and every literal replaced by `?`;
/// `params` holds the literals as typed values in token order, which is
/// the order the parser numbers them in (a literal's ordinal is its index
/// here). Two statements with the same fingerprint differ only in
/// literals and formatting:
///
///   "select  name FROM emp WHERE dept = 'sales'"
///   "SELECT name FROM emp WHERE dept='eng'"
///
/// both fingerprint to "SELECT NAME FROM EMP WHERE DEPT = ?". The plan
/// cache keys on the fingerprint plus the typed value of every literal
/// the plan holds fixed and only the type of every literal it binds at
/// execution (a slot), so those two share one plan when the literal is a
/// slot.
struct NormalizedStatement {
  std::string fingerprint;
  std::vector<Value> params;
};

/// Tokenizes and normalizes `text`; fails only if the lexer does.
StatusOr<NormalizedStatement> NormalizeStatement(const std::string& text);

}  // namespace prisma::sql

#endif  // PRISMA_SQL_NORMALIZE_H_
