#include "absint/simplify.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"

namespace dfv::absint {
namespace {

using ir::Context;
using ir::Node;
using ir::NodeRef;
using ir::Op;

class Rewriter {
 public:
  Rewriter(Context& ctx, const Analysis& analysis, SimplifyStats& stats)
      : ctx_(ctx), analysis_(analysis), stats_(stats) {}

  NodeRef rewrite(NodeRef n) {
    if (const auto it = memo_.find(n); it != memo_.end()) return it->second;
    NodeRef out = rewriteUncached(n);
    DFV_CHECK(out->type() == n->type());
    memo_.emplace(n, out);
    return out;
  }

 private:
  NodeRef rewriteUncached(NodeRef n) {
    const bool scalar = !n->type().isArray();
    // 1) Proven-constant nodes fold outright.  Inputs stay free by
    //    definition; state leaves fold only through their reachable fact,
    //    which is what makes this a reset-scoped (BMC-only) rewrite.
    if (scalar && n->op() != Op::kConst && n->op() != Op::kInput) {
      const Fact f = analysis_.fact(n);
      if (f.isConstant()) {
        ++stats_.nodesFolded;
        return ctx_.constant(f.constantValue());
      }
    }
    if (n->isLeaf()) return n;
    // 2) A mux whose selector is proven constant keeps only the live arm.
    if (n->op() == Op::kMux) {
      const Fact sel = analysis_.fact(n->operand(0));
      if (sel.isConstant()) {
        ++stats_.muxesPruned;
        return rewrite(n->operand(sel.constantValue().isZero() ? 2 : 1));
      }
    }
    std::vector<NodeRef> ops;
    ops.reserve(n->operands().size());
    for (NodeRef op : n->operands()) ops.push_back(rewrite(op));
    // 3) Narrow wrap-around arithmetic whose high result bits are proven
    //    zero: op_w(a,b) == zext(op_w'(a[w'-1:0], b[w'-1:0]), w) whenever
    //    the result fits in w' bits, because mod 2^w' divides mod 2^w.
    if (scalar &&
        (n->op() == Op::kAdd || n->op() == Op::kSub || n->op() == Op::kMul)) {
      const unsigned w = n->type().width;
      const unsigned k = analysis_.fact(n).provenLeadingZeros();
      if (k >= 1 && k < w) {
        const unsigned newW = w - k;
        NodeRef na = ctx_.extract(ops[0], newW - 1, 0);
        NodeRef nb = ctx_.extract(ops[1], newW - 1, 0);
        NodeRef narrow = n->op() == Op::kAdd   ? ctx_.add(na, nb)
                         : n->op() == Op::kSub ? ctx_.sub(na, nb)
                                               : ctx_.mul(na, nb);
        ++stats_.opsNarrowed;
        stats_.bitsNarrowed += k;
        return ctx_.zext(narrow, w);
      }
    }
    return ctx_.make(n->op(), ops, n->attr0(), n->attr1());
  }

  Context& ctx_;
  const Analysis& analysis_;
  SimplifyStats& stats_;
  std::unordered_map<NodeRef, NodeRef> memo_;
};

void countCone(NodeRef n, std::unordered_set<NodeRef>& seen) {
  if (!n || !seen.insert(n).second) return;
  for (NodeRef op : n->operands()) countCone(op, seen);
}

std::uint64_t coneSizeOf(const ir::TransitionSystem& ts) {
  std::unordered_set<NodeRef> seen;
  for (const ir::StateVar& sv : ts.states()) {
    countCone(sv.current, seen);
    countCone(sv.next, seen);
  }
  for (const ir::OutputPort& out : ts.outputs()) {
    countCone(out.expr, seen);
    countCone(out.valid, seen);
  }
  for (NodeRef c : ts.constraints()) countCone(c, seen);
  return seen.size();
}

}  // namespace

std::uint64_t coneSize(const ir::TransitionSystem& ts) {
  return coneSizeOf(ts);
}

ir::TransitionSystem simplify(const ir::TransitionSystem& ts,
                              const Analysis& analysis,
                              SimplifyStats* stats) {
  SimplifyStats local;
  SimplifyStats& s = stats ? *stats : local;
  s.nodesBefore += coneSizeOf(ts);
  Rewriter rw(ts.ctx(), analysis, s);

  ir::TransitionSystem out(ts.ctx(), ts.name());
  for (ir::NodeRef in : ts.inputs()) out.addInput(in->name(), in->type());
  for (const ir::StateVar& sv : ts.states())
    out.addState(sv.name(), sv.current->type(), sv.init);
  for (const ir::StateVar& sv : ts.states())
    out.setNext(sv.current, rw.rewrite(sv.next));
  for (const ir::OutputPort& op : ts.outputs())
    out.addOutput(op.name, rw.rewrite(op.expr),
                  op.valid ? rw.rewrite(op.valid) : nullptr);
  for (ir::NodeRef c : ts.constraints()) {
    ir::NodeRef rc = rw.rewrite(c);
    // An assumption proven true on all reachable states adds nothing.
    if (rc->op() == Op::kConst && !rc->constValue().isZero()) continue;
    out.addConstraint(rc);
  }
  out.validate();
  s.nodesAfter += coneSizeOf(out);
  return out;
}

ir::TransitionSystem analyzeAndSimplify(const ir::TransitionSystem& ts,
                                        const Options& opts,
                                        SimplifyStats* stats) {
  const Analysis analysis = Analysis::run(ts, opts);
  return simplify(ts, analysis, stats);
}

}  // namespace dfv::absint
