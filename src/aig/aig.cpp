#include "aig/aig.h"

#include <algorithm>

namespace dfv::aig {

Lit Aig::makeInput(std::string name) {
  const auto node = static_cast<std::uint32_t>(fanin0_.size());
  fanin0_.push_back(kFalse);
  fanin1_.push_back(kFalse);
  isInput_.push_back(true);
  inputs_.push_back(node);
  if (!name.empty()) inputNames_.emplace(node, std::move(name));
  return node << 1;
}

Lit Aig::makeAnd(Lit a, Lit b) {
  DFV_CHECK(nodeOf(a) < fanin0_.size() && nodeOf(b) < fanin0_.size());
  // Constant and trivial cases.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == negate(b)) return kFalse;
  // Canonical order for hashing.
  if (b < a) std::swap(a, b);
  const std::size_t mask = strash_.size() - 1;
  std::size_t slot = pairHash(a, b) & mask;
  for (std::uint32_t n; (n = strash_[slot]) != 0; slot = (slot + 1) & mask)
    if (fanin0_[n] == a && fanin1_[n] == b) return n << 1;
  const auto node = static_cast<std::uint32_t>(fanin0_.size());
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  isInput_.push_back(false);
  const std::size_t ands = fanin0_.size() - 1 - inputs_.size();
  if (2 * ands > strash_.size()) {
    rehash(2 * strash_.size());  // re-inserts `node` with the rest
  } else {
    strash_[slot] = node;
  }
  return node << 1;
}

void Aig::rehash(std::size_t slots) {
  strash_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
    if (isInput_[n]) continue;
    std::size_t slot = pairHash(fanin0_[n], fanin1_[n]) & mask;
    while (strash_[slot] != 0) slot = (slot + 1) & mask;
    strash_[slot] = n;
  }
}

std::vector<bool> Aig::evaluate(
    const std::unordered_map<std::uint32_t, bool>& inputValues) const {
  std::vector<bool> values(fanin0_.size(), false);
  for (std::uint32_t node = 1; node < fanin0_.size(); ++node) {
    if (isInput_[node]) {
      auto it = inputValues.find(node);
      DFV_CHECK_MSG(it != inputValues.end(),
                    "unbound AIG input node " << node);
      values[node] = it->second;
    } else {
      // Nodes are created in topological order, so fanins are ready.
      values[node] =
          litValue(values, fanin0_[node]) && litValue(values, fanin1_[node]);
    }
  }
  return values;
}

}  // namespace dfv::aig
