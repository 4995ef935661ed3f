#ifndef PRISMA_PRISMALOG_AST_H_
#define PRISMA_PRISMALOG_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/value.h"

namespace prisma::prismalog {

/// A term in an atom: a variable (upper-case initial identifier) or a
/// constant (number, 'string', or lower-case atom treated as a string).
struct Term {
  enum class Kind : uint8_t { kVariable, kConstant };
  Kind kind = Kind::kVariable;
  std::string variable;  // kVariable.
  Value constant;        // kConstant.

  bool is_variable() const { return kind == Kind::kVariable; }
  std::string ToString() const;
};

Term Var(std::string name);
Term Const(Value v);

/// predicate(t1, ..., tn).
struct Atom {
  std::string predicate;
  std::vector<Term> args;

  std::string ToString() const;
};

/// One element of a rule body: a (possibly negated) atom, or a comparison
/// between two terms (X > 5, X <> Y).
struct BodyElem {
  enum class Kind : uint8_t { kAtom, kComparison };
  Kind kind = Kind::kAtom;
  bool negated = false;          // kAtom: `not p(...)`.
  Atom atom;                     // kAtom.
  algebra::BinaryOp cmp_op{};    // kComparison.
  Term cmp_lhs;                  // kComparison.
  Term cmp_rhs;                  // kComparison.

  std::string ToString() const;
};

/// head :- body1, ..., bodyn.   A fact is a rule with an empty body and
/// all-constant head arguments.
struct Rule {
  Atom head;
  std::vector<BodyElem> body;

  bool IsFact() const { return body.empty(); }
  std::string ToString() const;
};

/// A PRISMAlog program: definite function-free Horn clauses with
/// stratified negation and comparison built-ins (§2.3), plus one query.
struct Program {
  std::vector<Rule> rules;
  /// `? p(args).` — the goal. Variables become output columns.
  std::optional<Atom> query;
};

}  // namespace prisma::prismalog

#endif  // PRISMA_PRISMALOG_AST_H_
