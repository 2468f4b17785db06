#include "rtl/lower.h"

#include <unordered_map>
#include <vector>

namespace dfv::rtl {

namespace {

/// Builds net expressions on demand, memoized per net.
class NetLowering {
 public:
  NetLowering(const Module& m, ir::Context& ctx) : m_(m), ctx_(ctx) {
    exprs_.assign(m.netCount(), nullptr);
    for (std::size_t i = 0; i < m.cells().size(); ++i)
      driverCell_[m.cells()[i].output] = i;
  }

  void bind(NetId n, ir::NodeRef e) { exprs_[n] = e; }

  ir::NodeRef expr(NetId n) {
    DFV_CHECK(n != kNoNet);
    if (exprs_[n] != nullptr) return exprs_[n];
    auto it = driverCell_.find(n);
    DFV_CHECK_MSG(it != driverCell_.end(),
                  "net '" << m_.netName(n) << "' is undriven");
    exprs_[n] = lowerCell(m_.cells()[it->second]);
    return exprs_[n];
  }

 private:
  ir::NodeRef lowerCell(const Cell& c) {
    if (c.op == ir::Op::kConst) return ctx_.constant(c.constVal);
    std::vector<ir::NodeRef> ops(c.inputs.size());
    // Last first, as GCC ran builder args: node ids order commutative ops.
    for (std::size_t i = ops.size(); i-- > 0;) ops[i] = expr(c.inputs[i]);
    return ctx_.make(c.op, ops, c.attr0, c.attr1);
  }

  const Module& m_;
  ir::Context& ctx_;
  std::vector<ir::NodeRef> exprs_;
  std::unordered_map<NetId, std::size_t> driverCell_;
};

}  // namespace

ir::TransitionSystem lowerToTransitionSystem(const Module& module,
                                             ir::Context& ctx,
                                             const std::string& prefix) {
  const Module flat = module.isFlat() ? module : module.flatten();
  flat.validate();
  ir::TransitionSystem ts(ctx, prefix.empty() ? flat.name() : prefix);
  NetLowering nets(flat, ctx);

  // Leaves: inputs, register outputs, memory arrays + registered read data.
  for (const auto& p : flat.inputs())
    nets.bind(p.net, ts.addInput(prefix + p.name, flat.netWidth(p.net)));

  for (const auto& f : flat.dffs()) {
    ir::NodeRef q = ts.addState(prefix + f.name, ir::Type{flat.netWidth(f.q), 0},
                                ir::Value(f.resetValue));
    nets.bind(f.q, q);
  }

  struct MemLeaf {
    ir::NodeRef array;
    std::vector<ir::NodeRef> readData;
  };
  std::vector<MemLeaf> memLeaves;
  for (const auto& m : flat.memories()) {
    MemLeaf leaf;
    ir::Value init =
        m.init.empty()
            ? ir::Value::filledArray(m.width, m.depth, bv::BitVector(m.width))
            : ir::Value::makeArray(m.init);
    leaf.array = ts.addState(prefix + m.name, ir::Type{m.width, m.depth},
                             std::move(init));
    for (std::size_t rp = 0; rp < m.readPorts.size(); ++rp) {
      ir::NodeRef dataReg = ts.addState(
          prefix + m.name + ".rdata" + std::to_string(rp),
          ir::Type{m.width, 0}, ir::Value(bv::BitVector(m.width)));
      nets.bind(m.readPorts[rp].data, dataReg);
      leaf.readData.push_back(dataReg);
    }
    memLeaves.push_back(leaf);
  }

  // Next-state functions.
  for (const auto& f : flat.dffs()) {
    ir::NodeRef next = nets.expr(f.d);
    if (f.enable != kNoNet)
      next = ctx.mux(nets.expr(f.enable), next, nets.expr(f.q));
    if (f.syncReset != kNoNet) {
      // Reset constant before the reset net: node ids must not depend on
      // the compiler's argument evaluation order.
      ir::NodeRef resetValue = ctx.constant(f.resetValue);
      next = ctx.mux(nets.expr(f.syncReset), resetValue, next);
    }
    ts.setNext(nets.expr(f.q), next);
  }
  for (std::size_t mi = 0; mi < flat.memories().size(); ++mi) {
    const Memory& m = flat.memories()[mi];
    const MemLeaf& leaf = memLeaves[mi];
    // Read-before-write: read data registers sample the *current* array.
    for (std::size_t rp = 0; rp < m.readPorts.size(); ++rp)
      ts.setNext(leaf.readData[rp],
                 ctx.arrayRead(leaf.array, nets.expr(m.readPorts[rp].addr)));
    ir::NodeRef nextArray = leaf.array;
    for (const auto& wp : m.writePorts) {
      // Data before address, for the same id-order reason as the reset.
      ir::NodeRef data = nets.expr(wp.data);
      ir::NodeRef written =
          ctx.arrayWrite(nextArray, nets.expr(wp.addr), data);
      nextArray = ctx.mux(nets.expr(wp.enable), written, nextArray);
    }
    ts.setNext(leaf.array, nextArray);
  }

  for (const auto& p : flat.outputs())
    ts.addOutput(p.name, nets.expr(p.net));

  ts.validate();
  return ts;
}

}  // namespace dfv::rtl
