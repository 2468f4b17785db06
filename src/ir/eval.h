// Concrete evaluation of IR expressions.
//
// applyOp is the one concrete semantics of the scalar IR ops.  The
// expression evaluator, the context's constant folder, the RTL simulator,
// the RTL DRC's constant propagation and the ternary evaluator's
// fully-known path all call it; the bit-blaster is the independent
// implementation it is swept against (tests/aig_test.cpp), and SEC
// counterexamples are replayed through the evaluator.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"

namespace dfv::ir {

/// A runtime value: a scalar bit-vector or an array of element bit-vectors.
struct Value {
  bv::BitVector scalar;
  std::vector<bv::BitVector> array;
  bool isArray = false;

  Value() = default;
  /*implicit*/ Value(bv::BitVector s) : scalar(std::move(s)) {}
  static Value makeArray(std::vector<bv::BitVector> elems) {
    Value v;
    v.array = std::move(elems);
    v.isArray = true;
    return v;
  }
  /// A depth-element array with every element the same scalar.
  static Value filledArray(unsigned width, unsigned depth,
                           const bv::BitVector& fill) {
    DFV_CHECK(fill.width() == width);
    Value v;
    v.array.assign(depth, fill);
    v.isArray = true;
    return v;
  }
  static Value zeroOf(const Type& t) {
    if (!t.isArray()) return Value(bv::BitVector(t.width));
    return filledArray(t.width, t.depth, bv::BitVector(t.width));
  }

  bool matches(const Type& t) const;
  friend bool operator==(const Value& a, const Value& b) {
    return a.isArray == b.isArray &&
           (a.isArray ? a.array == b.array : a.scalar == b.scalar);
  }
};

/// The value of scalar op `op` (kAdd through kRedXor) on `in`, with the
/// node's attributes (kExtract: hi/lo; kZExt/kSExt: target width).
/// udiv/urem by zero are totalized as in bv::BitVector.  Throws CheckError
/// when `in` has the wrong operand count for `op`, and for leaves and array
/// ops, which have no scalar-operand form.
bv::BitVector applyOp(Op op, std::span<const bv::BitVector* const> in,
                      unsigned attr0, unsigned attr1);

/// Binding of leaf nodes (inputs and states) to concrete values.
using Env = std::unordered_map<NodeRef, Value>;

/// Evaluates `node` under `env`.  Every kInput/kState leaf reachable from
/// `node` must be bound (CheckError otherwise).  Shared subgraphs are
/// evaluated once via memoization in `cache`.
class Evaluator {
 public:
  explicit Evaluator(const Env& env) : env_(env) {}

  const Value& eval(NodeRef node);

  /// One-shot convenience.
  static Value evaluate(NodeRef node, const Env& env) {
    Evaluator e(env);
    return e.eval(node);
  }

 private:
  const Env& env_;
  std::unordered_map<NodeRef, Value> cache_;
};

}  // namespace dfv::ir
