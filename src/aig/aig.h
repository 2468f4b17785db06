// And-Inverter Graphs: the bit-level representation between the word-level
// IR and CNF.
//
// Literals are encoded as 2*node + complement; node 0 is the constant false
// node, so literal 0 is FALSE and literal 1 is TRUE.  makeAnd performs
// constant folding, trivial simplification, and structural hashing, which
// keeps the CNF the SAT solver sees compact.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace dfv::aig {

/// An AIG literal: node index * 2 + complement bit.
using Lit = std::uint32_t;

inline constexpr Lit kFalse = 0;
inline constexpr Lit kTrue = 1;

inline Lit negate(Lit l) { return l ^ 1u; }
inline std::uint32_t nodeOf(Lit l) { return l >> 1; }
inline bool isComplemented(Lit l) { return l & 1u; }

/// An and-inverter graph with structural hashing.
class Aig {
 public:
  Aig() {
    // Node 0: constant false.
    fanin0_.push_back(kFalse);
    fanin1_.push_back(kFalse);
    isInput_.push_back(false);
    strash_.assign(kMinStrashSlots, 0);
  }

  /// Pre-sizes the node storage and the strash table for ~`nodes` nodes.
  /// The BMC engine knows how many transactions it will unroll and how big
  /// one transaction's frame is, so it can avoid the rehash-and-copy churn
  /// of growing a multi-million-entry table incrementally.
  void reserve(std::size_t nodes) {
    fanin0_.reserve(nodes);
    fanin1_.reserve(nodes);
    isInput_.reserve(nodes);
    if (2 * nodes > strash_.size()) rehash(std::bit_ceil(2 * nodes));
  }

  /// Current strash slot count (telemetry for reserve()'s effect): a power
  /// of two, at least twice the number of AND nodes.
  std::size_t strashBucketCount() const { return strash_.size(); }

  /// Creates a primary input; returns its positive literal.
  Lit makeInput(std::string name = "");

  /// AND of two literals (folded, simplified, hashed).
  Lit makeAnd(Lit a, Lit b);

  Lit makeOr(Lit a, Lit b) { return negate(makeAnd(negate(a), negate(b))); }
  Lit makeXor(Lit a, Lit b) {
    // a^b = (a|b) & ~(a&b)
    return makeAnd(makeOr(a, b), negate(makeAnd(a, b)));
  }
  Lit makeXnor(Lit a, Lit b) { return negate(makeXor(a, b)); }
  /// sel ? t : e
  Lit makeMux(Lit sel, Lit t, Lit e) {
    if (t == e) return t;
    return makeOr(makeAnd(sel, t), makeAnd(negate(sel), e));
  }
  Lit makeImplies(Lit a, Lit b) { return makeOr(negate(a), b); }

  std::size_t numNodes() const { return fanin0_.size(); }
  std::size_t numInputs() const { return inputs_.size(); }
  const std::vector<std::uint32_t>& inputs() const { return inputs_; }

  bool isInputNode(std::uint32_t node) const {
    return isInput_[static_cast<std::size_t>(node)];
  }
  bool isAndNode(std::uint32_t node) const {
    return node != 0 && !isInputNode(node);
  }
  Lit fanin0(std::uint32_t node) const {
    return fanin0_[static_cast<std::size_t>(node)];
  }
  Lit fanin1(std::uint32_t node) const {
    return fanin1_[static_cast<std::size_t>(node)];
  }
  const std::string& inputName(std::uint32_t node) const {
    return inputNames_.at(node);
  }
  /// Input name, or `def` for unnamed inputs (inputName throws on those).
  std::string inputNameOr(std::uint32_t node, std::string def = "") const {
    auto it = inputNames_.find(node);
    return it == inputNames_.end() ? std::move(def) : it->second;
  }

  /// Reference simulation: values for ALL nodes given input-node values
  /// (indexed by node id; non-input positions ignored).  Used by property
  /// tests to check the blaster and the CNF encoding.
  std::vector<bool> evaluate(
      const std::unordered_map<std::uint32_t, bool>& inputValues) const;

  /// Evaluates a single literal under the given full node-value table.
  static bool litValue(const std::vector<bool>& nodeValues, Lit l) {
    return nodeValues[nodeOf(l)] != isComplemented(l);
  }

 private:
  /// splitmix64 finalizer over the packed fanin pair.  The identity hash
  /// of (a<<32)|b would send sequentially allocated fanin pairs to
  /// neighboring slots and grow long probe runs as the table fills; proper
  /// avalanche keeps the strash at O(1) across the multi-million-node BMC
  /// unrollings.
  static std::uint64_t pairHash(Lit a, Lit b) {
    std::uint64_t x = (static_cast<std::uint64_t>(a) << 32) | b;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  /// Replaces the strash with an empty table of `slots` (a power of two)
  /// and re-inserts every AND node.
  void rehash(std::size_t slots);

  static constexpr std::size_t kMinStrashSlots = 16;

  std::vector<Lit> fanin0_, fanin1_;  // per node; inputs have kFalse/kFalse
  std::vector<bool> isInput_;
  std::vector<std::uint32_t> inputs_;
  std::unordered_map<std::uint32_t, std::string> inputNames_;
  // Structural hash: a flat open-addressing table with linear probing.
  // Each slot holds an AND node id, 0 meaning empty (node 0 is the
  // constant, never an AND); the key is read back from fanin0_/fanin1_,
  // so it is not stored twice.  The size is a power of two and the load
  // stays at or under one half.
  std::vector<std::uint32_t> strash_;
};

}  // namespace dfv::aig
