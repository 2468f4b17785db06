// Three-valued (0/1/X) evaluation of IR expressions.
//
// When every scalar operand is fully known the result is ir::applyOp's,
// the one concrete semantics of the scalar ops; array reads and writes keep
// the evaluator's out-of-range conventions.  When bits are unknown the
// evaluator may only *lose* information, never invent it — every concrete
// assignment consistent with the ternary inputs must be consistent with the
// ternary output (tests/slice_test.cpp sweeps this exhaustively at small
// widths for every op).
//
// The consumer is sequential-constant detection (slice.h): latches are
// simulated with inputs at X, and a latch whose next-state value stays
// known-equal to its reset value under that pessimism is stuck there in
// every reachable *and* every invariant-consistent state — an inductive
// fact, which is what lets slice facts into the SEC induction systems.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ir/eval.h"

namespace dfv::slice {

/// A vector of three-valued bits, encoded as (val, known): bit i is X when
/// known[i] == 0, otherwise it is val[i].  Canonical form requires
/// val & ~known == 0 (X bits carry value zero), mirroring the BitVector
/// rule that bits above width() are zero.
class Ternary {
 public:
  Ternary() = default;

  /// Every bit unknown.
  static Ternary allX(unsigned width) {
    return Ternary(bv::BitVector(width), bv::BitVector(width));
  }
  /// Every bit known, equal to `v`.
  static Ternary known(const bv::BitVector& v) {
    bv::BitVector mask(v.width());
    return Ternary(v, ~mask);
  }
  /// Explicit (value, mask) construction; X bits of `val` are canonicalized
  /// to zero.
  static Ternary make(const bv::BitVector& val, const bv::BitVector& known) {
    DFV_CHECK(val.width() == known.width());
    return Ternary(val & known, known);
  }

  unsigned width() const { return val_.width(); }
  bool isKnown(unsigned i) const { return known_.bit(i); }
  bool bitValue(unsigned i) const { return val_.bit(i); }
  bool fullyKnown() const { return known_.isAllOnes(); }
  bool noneKnown() const { return known_.isZero(); }

  /// The value with X bits read as zero (equals the concrete value when
  /// fullyKnown()).
  const bv::BitVector& value() const { return val_; }
  const bv::BitVector& mask() const { return known_; }

  /// True iff concrete `v` is one of the assignments this pattern admits.
  bool admits(const bv::BitVector& v) const {
    return v.width() == width() && ((v ^ val_) & known_).isZero();
  }

  /// Least upper bound: bits the two sides agree on (and both know) stay
  /// known, everything else goes to X.
  static Ternary merge(const Ternary& a, const Ternary& b) {
    DFV_CHECK(a.width() == b.width());
    const bv::BitVector agree = a.known_ & b.known_ & ~(a.val_ ^ b.val_);
    return Ternary(a.val_ & agree, agree);
  }

  friend bool operator==(const Ternary& a, const Ternary& b) {
    return a.val_ == b.val_ && a.known_ == b.known_;
  }

  /// MSB-first digits, e.g. "01X1".
  std::string toString() const;

 private:
  Ternary(bv::BitVector val, bv::BitVector known)
      : val_(std::move(val)), known_(std::move(known)) {}

  bv::BitVector val_;
  bv::BitVector known_;
};

/// A ternary runtime value: scalar or array, mirroring ir::Value.
struct TernaryValue {
  Ternary scalar;
  std::vector<Ternary> array;
  bool isArray = false;

  TernaryValue() = default;
  /*implicit*/ TernaryValue(Ternary s) : scalar(std::move(s)) {}
  static TernaryValue makeArray(std::vector<Ternary> elems) {
    TernaryValue v;
    v.array = std::move(elems);
    v.isArray = true;
    return v;
  }
  /// Fully-known lift of a concrete value.
  static TernaryValue known(const ir::Value& v);
  /// Every bit X, shaped by `t`.
  static TernaryValue allX(const ir::Type& t);

  bool fullyKnown() const;
  /// The concrete value; only meaningful when fullyKnown().
  ir::Value concrete() const;
  /// True iff concrete `v` is admitted element-wise.
  bool admits(const ir::Value& v) const;

  friend bool operator==(const TernaryValue& a, const TernaryValue& b) {
    return a.isArray == b.isArray &&
           (a.isArray ? a.array == b.array : a.scalar == b.scalar);
  }
};

/// Binding of leaf nodes to ternary values.  Unlike the concrete
/// ir::Evaluator, unbound leaves are not an error: they evaluate to all-X,
/// which is exactly the pessimism sequential-constant detection wants for
/// inputs and non-candidate state.
using TernaryEnv = std::unordered_map<ir::NodeRef, TernaryValue>;

/// Memoizing three-valued evaluator.  Same sharing discipline as
/// ir::Evaluator; one instance per environment.
class TernaryEvaluator {
 public:
  explicit TernaryEvaluator(const TernaryEnv& env) : env_(env) {}

  const TernaryValue& eval(ir::NodeRef node);

  static TernaryValue evaluate(ir::NodeRef node, const TernaryEnv& env) {
    TernaryEvaluator e(env);
    return e.eval(node);
  }

 private:
  TernaryValue compute(ir::NodeRef node);

  const TernaryEnv& env_;
  std::unordered_map<ir::NodeRef, TernaryValue> cache_;
};

}  // namespace dfv::slice
