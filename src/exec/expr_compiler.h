#ifndef PRISMA_EXEC_EXPR_COMPILER_H_
#define PRISMA_EXEC_EXPR_COMPILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "common/column_batch.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace prisma::exec {

/// Opcodes of the OFM expression VM. Every opcode is *type-specialized*:
/// the compiler resolves all type dispatch statically from the bound
/// expression, so the inner loop performs no type checks — only null-flag
/// propagation. This reproduces the paper's "expression compiler to
/// generate routines dynamically" (§2.5), whose point is removing
/// per-tuple interpretation overhead; instead of 1988-style machine-code
/// generation we emit flat bytecode for a register VM (see DESIGN.md).
enum class OpCode : uint8_t {
  kConst,    // reg[dst] = constant_pool[aux]
  kLoadCol,  // reg[dst] = tuple column aux (type known statically)
  kI2D,      // reg[dst] = double(reg[a])
  kNegI,
  kNegD,
  kNot,
  kIsNull,
  kAddI,
  kSubI,
  kMulI,
  kDivI,  // Fails on zero divisor.
  kModI,  // Fails on zero divisor.
  kAddD,
  kSubD,
  kMulD,
  kDivD,  // Fails on zero divisor.
  kConcat,  // String concatenation into scratch slot aux.
  kEqI,
  kNeI,
  kLtI,
  kLeI,
  kGtI,
  kGeI,
  kEqD,
  kNeD,
  kLtD,
  kLeD,
  kGtD,
  kGeD,
  kEqS,
  kNeS,
  kLtS,
  kLeS,
  kGtS,
  kGeS,
  kEqB,
  kNeB,
  kAnd,  // Kleene three-valued AND.
  kOr,   // Kleene three-valued OR.
};

/// One VM instruction: dst <- op(a, b); `aux` addresses the constant pool,
/// tuple column, or scratch slot depending on the opcode.
struct Instruction {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;
};

/// A compiled, immediately executable scalar expression.
///
/// Obtained from CompileExpr on a bound algebra::Expr. Evaluation runs the
/// flat instruction sequence over a register file; there is no recursion
/// and no dynamic type dispatch. Not thread-safe (the register file and
/// string scratch are reused across calls).
class CompiledExpr {
 public:
  /// Evaluates against `tuple`, boxing the result.
  StatusOr<Value> Eval(const Tuple& tuple) const;

  /// Predicate fast path: NULL and non-BOOL results map to false.
  /// (The compiler guarantees a BOOL static type when compiled from a
  /// type-checked predicate.)
  StatusOr<bool> EvalPredicate(const Tuple& tuple) const;

  /// Vectorized evaluation (DESIGN.md §12): runs the same instruction
  /// sequence column-major over all rows of `batch` at once, returning a
  /// row-aligned result column. Errors (division by zero) reproduce the
  /// per-tuple path exactly: the Status of the first failing row, and
  /// within it the failure the interpreter would surface (left operand
  /// first; AND/OR short-circuit).
  StatusOr<ColumnBatch::Column> EvalBatch(const ColumnBatch& batch) const;

  /// Vectorized predicate: fills `keep` (one byte per row; 1 = the
  /// predicate is true) with exactly the rows EvalPredicate would accept.
  Status EvalPredicateBatch(const ColumnBatch& batch,
                            std::vector<uint8_t>* keep) const;

  size_t num_instructions() const { return code_.size(); }
  DataType result_type() const { return result_type_; }

  /// Disassembly for debugging and tests.
  std::string ToString() const;

 private:
  friend StatusOr<CompiledExpr> CompileExpr(const algebra::Expr& expr);

  /// Unboxed register. Exactly one of b/i/d/s is meaningful, fixed
  /// statically per register by the compiler. `null` is the lane state:
  /// 0 holds a value, 1 is NULL, and higher codes carry a failure (division
  /// or modulo by zero) until an AND/OR decides without it or it reaches
  /// the result, exactly where the interpreter's short-circuit would.
  struct Reg {
    uint8_t null = 1;
    bool b = false;
    int64_t i = 0;
    double d = 0;
    const std::string* s = nullptr;
  };

  /// Vector register: one value lane per batch row. As with Reg, exactly
  /// one of b/i/d/s is meaningful per register, fixed statically, and
  /// `null` holds each lane's state.
  struct VReg {
    std::vector<uint8_t> null;
    std::vector<uint8_t> b;
    std::vector<int64_t> i;
    std::vector<double> d;
    std::vector<const std::string*> s;
  };

  Status Run(const Tuple& tuple) const;
  Status RunBatch(const ColumnBatch& batch) const;

  std::vector<Instruction> code_;
  std::vector<Value> constants_;
  DataType result_type_ = DataType::kNull;
  uint16_t result_reg_ = 0;
  uint16_t num_regs_ = 0;
  // Mutable execution state reused across Eval calls (single-threaded).
  mutable std::vector<Reg> regs_;
  mutable std::vector<std::string> scratch_;
  mutable std::vector<VReg> vregs_;
  mutable std::vector<std::vector<std::string>> vscratch_;
};

/// Compiles a bound expression. Fails only on internal inconsistencies
/// (unbound input); all type errors were caught at Bind time.
StatusOr<CompiledExpr> CompileExpr(const algebra::Expr& expr);

}  // namespace prisma::exec

#endif  // PRISMA_EXEC_EXPR_COMPILER_H_
