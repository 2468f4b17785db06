#include "ir/eval.h"

namespace dfv::ir {

bool Value::matches(const Type& t) const {
  if (t.isArray()) {
    if (!isArray || array.size() != t.depth) return false;
    for (const auto& e : array)
      if (e.width() != t.width) return false;
    return true;
  }
  return !isArray && scalar.width() == t.width;
}

bv::BitVector applyOp(Op op, std::span<const bv::BitVector* const> in,
                      unsigned attr0, unsigned attr1) {
  using bv::BitVector;
  auto b2v = [](bool b) { return BitVector::fromUint(1, b); };
  // One switch per arity: an op reached with the wrong operand count (or a
  // leaf or array op, which has none of these forms) falls through to the
  // check below instead of reading past `in`.
  if (in.size() == 1) {
    const BitVector& a = *in[0];
    switch (op) {
      case Op::kNeg: return a.neg();
      case Op::kNot: return ~a;
      case Op::kExtract: return a.extract(attr0, attr1);
      case Op::kZExt: return a.zext(attr0);
      case Op::kSExt: return a.sext(attr0);
      case Op::kRedAnd: return b2v(a.reduceAnd());
      case Op::kRedOr: return b2v(a.reduceOr());
      case Op::kRedXor: return b2v(a.reduceXor());
      default: break;
    }
  } else if (in.size() == 2) {
    const BitVector& a = *in[0];
    const BitVector& b = *in[1];
    switch (op) {
      case Op::kAdd: return a + b;
      case Op::kSub: return a - b;
      case Op::kMul: return a * b;
      case Op::kUDiv: return a.udiv(b);
      case Op::kURem: return a.urem(b);
      case Op::kSDiv: return a.sdiv(b);
      case Op::kSRem: return a.srem(b);
      case Op::kAnd: return a & b;
      case Op::kOr: return a | b;
      case Op::kXor: return a ^ b;
      case Op::kShl: return a.shl(b);
      case Op::kLShr: return a.lshr(b);
      case Op::kAShr: return a.ashr(b);
      case Op::kEq: return b2v(a == b);
      case Op::kNe: return b2v(a != b);
      case Op::kULt: return b2v(a.ult(b));
      case Op::kULe: return b2v(a.ule(b));
      case Op::kSLt: return b2v(a.slt(b));
      case Op::kSLe: return b2v(a.sle(b));
      case Op::kConcat: return BitVector::concat(a, b);
      default: break;
    }
  } else if (in.size() == 3 && op == Op::kMux) {
    return in[0]->isZero() ? *in[2] : *in[1];
  }
  DFV_CHECK_MSG(false, "applyOp: " << opName(op) << " with " << in.size()
                                   << " operands is not a scalar op");
}

const Value& Evaluator::eval(NodeRef node) {
  auto cached = cache_.find(node);
  if (cached != cache_.end()) return cached->second;

  Value result;
  switch (node->op()) {
    case Op::kConst:
      result = Value(node->constValue());
      break;
    case Op::kInput:
    case Op::kState: {
      auto it = env_.find(node);
      DFV_CHECK_MSG(it != env_.end(), "unbound leaf '" << node->name() << "'");
      DFV_CHECK_MSG(it->second.matches(node->type()),
                    "bound value for '" << node->name()
                                        << "' has the wrong sort");
      result = it->second;
      break;
    }
    case Op::kArrayRead: {
      const Value& arr = eval(node->operand(0));
      const std::uint64_t idx = eval(node->operand(1)).scalar.toUint64();
      // Out-of-range index (possible when depth is not a power of two)
      // reads element 0, matching the bit-blasted mux tree's default.
      result = idx < arr.array.size() ? arr.array[idx] : arr.array[0];
      break;
    }
    case Op::kArrayWrite: {
      Value arr = eval(node->operand(0));
      const std::uint64_t idx = eval(node->operand(1)).scalar.toUint64();
      const Value& data = eval(node->operand(2));
      if (idx < arr.array.size()) arr.array[idx] = data.scalar;
      result = std::move(arr);
      break;
    }
    case Op::kMux:
      if (node->type().isArray()) {
        // Memory write-enable muxes select whole arrays; applyOp is
        // scalar-only.
        const Value& sel = eval(node->operand(0));
        const Value& thenV = eval(node->operand(1));
        const Value& elseV = eval(node->operand(2));
        result = sel.scalar.isZero() ? elseV : thenV;
        break;
      }
      [[fallthrough]];
    default: {
      // Evaluate operands first (recursion depth is bounded by expression
      // height, which our builders keep modest).
      std::vector<const bv::BitVector*> in;
      in.reserve(node->operands().size());
      for (NodeRef opnd : node->operands()) in.push_back(&eval(opnd).scalar);
      result = applyOp(node->op(), in, node->attr0(), node->attr1());
    }
  }
  DFV_CHECK_MSG(result.matches(node->type()),
                "evaluator produced wrong sort for " << opName(node->op()));
  return cache_.emplace(node, std::move(result)).first->second;
}

}  // namespace dfv::ir
