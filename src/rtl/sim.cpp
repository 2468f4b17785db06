#include "rtl/sim.h"

#include <algorithm>

#include "ir/eval.h"

namespace dfv::rtl {

Simulator::Simulator(const Module& m) : flat_(m.isFlat() ? m : m.flatten()) {
  flat_.validate();
  values_.assign(flat_.netCount(), bv::BitVector(1));
  for (NetId n = 0; n < flat_.netCount(); ++n)
    values_[n] = bv::BitVector(flat_.netWidth(n));
  levelize();
  reset();
}

void Simulator::levelize() {
  // Kahn's algorithm over combinational cells.  Sequential outputs (dff q,
  // memory read data) and inputs are sources.
  const auto& cells = flat_.cells();
  // net -> driving cell index (or none for sequential/input-driven nets).
  std::vector<std::size_t> driverCell(flat_.netCount(), SIZE_MAX);
  for (std::size_t i = 0; i < cells.size(); ++i)
    driverCell[cells[i].output] = i;

  std::vector<unsigned> pendingInputs(cells.size(), 0);
  std::vector<std::vector<std::size_t>> consumers(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (NetId in : cells[i].inputs) {
      const std::size_t drv = driverCell[in];
      if (drv != SIZE_MAX) {
        ++pendingInputs[i];
        consumers[drv].push_back(i);
      }
    }
  }
  cellOrder_.clear();
  cellOrder_.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (pendingInputs[i] == 0) cellOrder_.push_back(i);
  for (std::size_t head = 0; head < cellOrder_.size(); ++head) {
    for (std::size_t next : consumers[cellOrder_[head]])
      if (--pendingInputs[next] == 0) cellOrder_.push_back(next);
  }
  if (cellOrder_.size() != cells.size()) {
    // Report the complete loop, not just one net on it.
    const auto cycle = findCombinationalCycle(flat_);
    DFV_CHECK(cycle.has_value());
    DFV_CHECK_MSG(false, "combinational cycle: " << cycle->describe(flat_));
  }
}

void Simulator::reset() {
  cycle_ = 0;
  combEvaluated_ = false;
  watchHistory_.clear();
  for (std::size_t i = 0; i < flat_.dffs().size(); ++i)
    values_[flat_.dffs()[i].q] = flat_.dffs()[i].resetValue;
  memData_.clear();
  for (const auto& m : flat_.memories()) {
    if (m.init.empty())
      memData_.emplace_back(m.depth, bv::BitVector(m.width));
    else
      memData_.push_back(m.init);
    for (const auto& rp : m.readPorts)
      values_[rp.data] = bv::BitVector(m.width);
  }
}

void Simulator::setInput(const std::string& name, const bv::BitVector& v) {
  const NetId n = flat_.findInput(name);
  DFV_CHECK_MSG(n != kNoNet, "no input named '" << name << "'");
  DFV_CHECK_MSG(v.width() == flat_.netWidth(n),
                "input '" << name << "' width " << flat_.netWidth(n)
                          << ", got " << v.width());
  values_[n] = v;
  combEvaluated_ = false;
}

void Simulator::setInputUint(const std::string& name, std::uint64_t v) {
  const NetId n = flat_.findInput(name);
  DFV_CHECK_MSG(n != kNoNet, "no input named '" << name << "'");
  setInput(name, bv::BitVector::fromUint(flat_.netWidth(n), v));
}

void Simulator::evalCombinational() {
  const auto& cells = flat_.cells();
  std::vector<const bv::BitVector*> operands;
  for (std::size_t idx : cellOrder_) {
    const Cell& c = cells[idx];
    if (c.op == ir::Op::kConst) {
      values_[c.output] = c.constVal;
      continue;
    }
    operands.clear();
    for (NetId in : c.inputs) operands.push_back(&values_[in]);
    values_[c.output] = ir::applyOp(c.op, operands, c.attr0, c.attr1);
  }
  combEvaluated_ = true;
  if (!watched_.empty()) {
    std::vector<bv::BitVector> snap;
    snap.reserve(watched_.size());
    for (NetId n : watched_) snap.push_back(values_[n]);
    watchHistory_.push_back(std::move(snap));
  }
}

void Simulator::clockEdge() {
  DFV_CHECK_MSG(combEvaluated_,
                "clockEdge before evalCombinational in this cycle");
  // Capture all register inputs first (simultaneous update).
  const auto& dffs = flat_.dffs();
  dffNext_.resize(dffs.size(), bv::BitVector(1));
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const Dff& f = dffs[i];
    if (f.syncReset != kNoNet && !values_[f.syncReset].isZero()) {
      dffNext_[i] = f.resetValue;
    } else if (f.enable == kNoNet || !values_[f.enable].isZero()) {
      dffNext_[i] = values_[f.d];
    } else {
      dffNext_[i] = values_[f.q];
    }
  }
  // Memories: register read data (old contents), then commit writes.
  for (std::size_t mi = 0; mi < flat_.memories().size(); ++mi) {
    const Memory& m = flat_.memories()[mi];
    auto& data = memData_[mi];
    for (const auto& rp : m.readPorts) {
      const std::uint64_t addr = values_[rp.addr].toUint64();
      values_[rp.data] = addr < m.depth ? data[addr] : data[0];
    }
    for (const auto& wp : m.writePorts) {
      if (!values_[wp.enable].isZero()) {
        const std::uint64_t addr = values_[wp.addr].toUint64();
        if (addr < m.depth) data[addr] = values_[wp.data];
      }
    }
  }
  for (std::size_t i = 0; i < dffs.size(); ++i)
    values_[dffs[i].q] = dffNext_[i];
  ++cycle_;
  combEvaluated_ = false;
}

std::unordered_map<std::string, bv::BitVector> Simulator::step(
    const std::unordered_map<std::string, bv::BitVector>& inputs) {
  for (const auto& [name, v] : inputs) setInput(name, v);
  evalCombinational();
  std::unordered_map<std::string, bv::BitVector> out;
  for (const auto& p : flat_.outputs()) out.emplace(p.name, values_[p.net]);
  clockEdge();
  return out;
}

const bv::BitVector& Simulator::outputValue(const std::string& name) const {
  const NetId n = flat_.findOutput(name);
  DFV_CHECK_MSG(n != kNoNet, "no output named '" << name << "'");
  return values_[n];
}

std::vector<bv::BitVector>& Simulator::memoryContents(std::size_t memIdx) {
  DFV_CHECK(memIdx < memData_.size());
  return memData_[memIdx];
}

}  // namespace dfv::rtl
