#include "slice/ternary.h"

#include <algorithm>

namespace dfv::slice {

namespace {

using bv::BitVector;
using ir::Node;
using ir::NodeRef;
using ir::Op;

/// Bits [0, n) set (n clamped to width).
BitVector lowOnes(unsigned width, std::uint64_t n) {
  BitVector m(width);
  for (unsigned i = 0; i < width && i < n; ++i) m.setBit(i, true);
  return m;
}

/// Bits [width-n, width) set (n clamped to width).
BitVector highOnes(unsigned width, std::uint64_t n) {
  BitVector m(width);
  const std::uint64_t lo = n >= width ? 0 : width - n;
  for (unsigned i = static_cast<unsigned>(lo); i < width; ++i)
    m.setBit(i, true);
  return m;
}

/// Shift amount clamped to `width` (any set bit at position >= 64 already
/// exceeds any representable width).
std::uint64_t clampedShift(const BitVector& amt, unsigned width) {
  for (unsigned i = 64; i < amt.width(); ++i)
    if (amt.bit(i)) return width;
  const std::uint64_t a = amt.toUint64();
  return std::min<std::uint64_t>(a, width);
}

/// Length of the known low-bit prefix: the first X position, or width.
unsigned knownPrefixLen(const Ternary& t) {
  for (unsigned i = 0; i < t.width(); ++i)
    if (!t.isKnown(i)) return i;
  return t.width();
}

Ternary ternaryBool(bool b) {
  return Ternary::known(BitVector::fromUint(1, b ? 1 : 0));
}

/// Carry chains (and partial-product sums) ripple low-to-high, so bits
/// below the first X position of either operand are exact; everything at
/// or above it goes to X.
Ternary prefixExact(const BitVector& exact, const Ternary& a,
                    const Ternary& b) {
  const unsigned k = std::min(knownPrefixLen(a), knownPrefixLen(b));
  return Ternary::make(exact, lowOnes(exact.width(), k));
}

TernaryValue mergeValues(const TernaryValue& a, const TernaryValue& b) {
  DFV_CHECK(a.isArray == b.isArray);
  if (!a.isArray) return Ternary::merge(a.scalar, b.scalar);
  DFV_CHECK(a.array.size() == b.array.size());
  std::vector<Ternary> elems;
  elems.reserve(a.array.size());
  for (std::size_t i = 0; i < a.array.size(); ++i)
    elems.push_back(Ternary::merge(a.array[i], b.array[i]));
  return TernaryValue::makeArray(std::move(elems));
}

}  // namespace

std::string Ternary::toString() const {
  std::string out;
  out.reserve(width());
  for (unsigned i = width(); i-- > 0;)
    out += isKnown(i) ? (bitValue(i) ? '1' : '0') : 'X';
  return out;
}

TernaryValue TernaryValue::known(const ir::Value& v) {
  if (!v.isArray) return Ternary::known(v.scalar);
  std::vector<Ternary> elems;
  elems.reserve(v.array.size());
  for (const auto& e : v.array) elems.push_back(Ternary::known(e));
  return makeArray(std::move(elems));
}

TernaryValue TernaryValue::allX(const ir::Type& t) {
  if (!t.isArray()) return Ternary::allX(t.width);
  return makeArray(std::vector<Ternary>(t.depth, Ternary::allX(t.width)));
}

bool TernaryValue::fullyKnown() const {
  if (!isArray) return scalar.fullyKnown();
  for (const auto& e : array)
    if (!e.fullyKnown()) return false;
  return true;
}

ir::Value TernaryValue::concrete() const {
  if (!isArray) return ir::Value(scalar.value());
  std::vector<bv::BitVector> elems;
  elems.reserve(array.size());
  for (const auto& e : array) elems.push_back(e.value());
  return ir::Value::makeArray(std::move(elems));
}

bool TernaryValue::admits(const ir::Value& v) const {
  if (isArray != v.isArray) return false;
  if (!isArray) return scalar.admits(v.scalar);
  if (array.size() != v.array.size()) return false;
  for (std::size_t i = 0; i < array.size(); ++i)
    if (!array[i].admits(v.array[i])) return false;
  return true;
}

const TernaryValue& TernaryEvaluator::eval(ir::NodeRef node) {
  DFV_CHECK(node != nullptr);
  auto it = cache_.find(node);
  if (it != cache_.end()) return it->second;
  TernaryValue v = compute(node);
  return cache_.emplace(node, std::move(v)).first->second;
}

TernaryValue TernaryEvaluator::compute(ir::NodeRef node) {
  const unsigned w = node->width();
  switch (node->op()) {
    case Op::kConst:
      return Ternary::known(node->constValue());
    case Op::kInput:
    case Op::kState: {
      auto it = env_.find(node);
      if (it != env_.end()) return it->second;
      return TernaryValue::allX(node->type());
    }
    default:
      break;
  }

  std::vector<const TernaryValue*> xs;
  xs.reserve(node->operands().size());
  bool scalarsKnown = true;
  for (ir::NodeRef o : node->operands()) {
    xs.push_back(&eval(o));
    scalarsKnown = scalarsKnown && !xs.back()->isArray &&
                   xs.back()->scalar.fullyKnown();
  }
  // Every operand a fully-known scalar: the concrete semantics, exactly.
  if (scalarsKnown) {
    std::vector<const BitVector*> in;
    in.reserve(xs.size());
    for (const TernaryValue* x : xs) in.push_back(&x->scalar.value());
    return Ternary::known(
        ir::applyOp(node->op(), in, node->attr0(), node->attr1()));
  }
  const auto t = [&](std::size_t i) -> const Ternary& {
    DFV_CHECK(!xs[i]->isArray);
    return xs[i]->scalar;
  };

  switch (node->op()) {
    case Op::kAdd:
      return prefixExact(t(0).value() + t(1).value(), t(0), t(1));
    case Op::kSub:
      // Borrow chains also ripple low-to-high, but only while the
      // subtrahend's low bits are known too.
      return prefixExact(t(0).value() - t(1).value(), t(0), t(1));
    case Op::kMul:
      // Product bit i depends only on operand bits [0, i].
      return prefixExact(t(0).value() * t(1).value(), t(0), t(1));
    case Op::kNeg: {
      const unsigned k = knownPrefixLen(t(0));
      return Ternary::make(t(0).value().neg(), lowOnes(w, k));
    }
    // Exact only when every operand is known: the fast path above.
    case Op::kUDiv:
    case Op::kURem:
    case Op::kSDiv:
    case Op::kSRem:
      return Ternary::allX(w);
    case Op::kAnd: {
      // A known-zero bit dominates an X on the other side.
      const BitVector val = t(0).value() & t(1).value();
      const BitVector known = (t(0).mask() & t(1).mask()) |
                              (t(0).mask() & ~t(0).value()) |
                              (t(1).mask() & ~t(1).value());
      return Ternary::make(val, known);
    }
    case Op::kOr: {
      // A known-one bit dominates an X on the other side.
      const BitVector val = t(0).value() | t(1).value();
      const BitVector known = (t(0).mask() & t(1).mask()) |
                              (t(0).mask() & t(0).value()) |
                              (t(1).mask() & t(1).value());
      return Ternary::make(val, known);
    }
    case Op::kXor:
      return Ternary::make(t(0).value() ^ t(1).value(),
                           t(0).mask() & t(1).mask());
    case Op::kNot:
      return Ternary::make(~t(0).value(), t(0).mask());
    case Op::kShl: {
      if (!t(1).fullyKnown()) return Ternary::allX(w);
      const BitVector& amt = t(1).value();
      const std::uint64_t a = clampedShift(amt, w);
      return Ternary::make(t(0).value().shl(amt),
                           t(0).mask().shl(amt) | lowOnes(w, a));
    }
    case Op::kLShr: {
      if (!t(1).fullyKnown()) return Ternary::allX(w);
      const BitVector& amt = t(1).value();
      const std::uint64_t a = clampedShift(amt, w);
      return Ternary::make(t(0).value().lshr(amt),
                           t(0).mask().lshr(amt) | highOnes(w, a));
    }
    case Op::kAShr: {
      if (!t(1).fullyKnown()) return Ternary::allX(w);
      const BitVector& amt = t(1).value();
      // ashr on the mask replicates the mask's MSB: a known sign bit keeps
      // the filled positions known, an unknown one leaves them X.
      return Ternary::make(t(0).value().ashr(amt), t(0).mask().ashr(amt));
    }
    case Op::kEq: {
      const BitVector both = t(0).mask() & t(1).mask();
      if (!((t(0).value() ^ t(1).value()) & both).isZero())
        return ternaryBool(false);
      return Ternary::allX(1);
    }
    case Op::kNe: {
      const BitVector both = t(0).mask() & t(1).mask();
      if (!((t(0).value() ^ t(1).value()) & both).isZero())
        return ternaryBool(true);
      return Ternary::allX(1);
    }
    // Exact only when every operand is known, as for division.
    case Op::kULt:
    case Op::kULe:
    case Op::kSLt:
    case Op::kSLe:
      return Ternary::allX(1);
    case Op::kMux: {
      const Ternary& sel = t(0);
      if (sel.fullyKnown())
        return sel.value().isZero() ? *xs[2] : *xs[1];
      return mergeValues(*xs[1], *xs[2]);
    }
    case Op::kConcat:
      return Ternary::make(
          BitVector::concat(t(0).value(), t(1).value()),
          BitVector::concat(t(0).mask(), t(1).mask()));
    case Op::kExtract:
      return Ternary::make(t(0).value().extract(node->attr0(), node->attr1()),
                           t(0).mask().extract(node->attr0(), node->attr1()));
    case Op::kZExt: {
      // The appended high bits are known zero.
      const unsigned oldW = t(0).width();
      return Ternary::make(t(0).value().zext(w),
                           t(0).mask().zext(w) | highOnes(w, w - oldW));
    }
    case Op::kSExt:
      // Replicating the mask's MSB mirrors kAShr: sign known -> copies
      // known, sign unknown -> copies X.
      return Ternary::make(t(0).value().sext(w), t(0).mask().sext(w));
    case Op::kRedAnd:
      if (!(t(0).mask() & ~t(0).value()).isZero()) return ternaryBool(false);
      return Ternary::allX(1);
    case Op::kRedOr:
      if (!(t(0).mask() & t(0).value()).isZero()) return ternaryBool(true);
      return Ternary::allX(1);
    case Op::kRedXor:
      return Ternary::allX(1);
    case Op::kArrayRead: {
      const auto& arr = xs[0]->array;
      DFV_CHECK(xs[0]->isArray && !arr.empty());
      if (t(1).fullyKnown()) {
        const std::uint64_t idx = t(1).value().toUint64();
        return idx < arr.size() ? arr[idx] : arr[0];
      }
      // Unknown index: any in-range element (or element 0) may be read.
      Ternary any = arr[0];
      for (std::size_t i = 1; i < arr.size(); ++i)
        any = Ternary::merge(any, arr[i]);
      return any;
    }
    case Op::kArrayWrite: {
      TernaryValue arr = *xs[0];
      DFV_CHECK(arr.isArray);
      const Ternary& data = t(2);
      if (t(1).fullyKnown()) {
        const std::uint64_t idx = t(1).value().toUint64();
        if (idx < arr.array.size()) arr.array[idx] = data;
        return arr;
      }
      // Unknown index: each element either keeps its old value or takes
      // the written one.
      for (auto& e : arr.array) e = Ternary::merge(e, data);
      return arr;
    }
    default:
      DFV_UNREACHABLE("ternary evaluator: unhandled op "
                      << ir::opName(node->op()));
  }
}

}  // namespace dfv::slice
