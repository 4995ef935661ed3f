#include "prismalog/ast.h"

namespace prisma::prismalog {

Term Var(std::string name) {
  Term t;
  t.kind = Term::Kind::kVariable;
  t.variable = std::move(name);
  return t;
}

Term Const(Value v) {
  Term t;
  t.kind = Term::Kind::kConstant;
  t.constant = std::move(v);
  return t;
}

std::string Term::ToString() const {
  if (kind == Kind::kVariable) return variable;
  return constant.ToString();
}

std::string Atom::ToString() const {
  std::string out = predicate + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

std::string BodyElem::ToString() const {
  if (kind == Kind::kAtom) {
    return (negated ? "not " : "") + atom.ToString();
  }
  return cmp_lhs.ToString() + " " + algebra::BinaryOpName(cmp_op) + " " +
         cmp_rhs.ToString();
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += body[i].ToString();
    }
  }
  out += ".";
  return out;
}

}  // namespace prisma::prismalog
