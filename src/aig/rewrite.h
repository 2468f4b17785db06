// DAG-aware AIG rewriting (after the ABC rewrite/refactor line of work):
// purely structural minimization of the cone of a set of root literals,
// run between bit-blasting and CNF encoding so the SAT solver sees a
// smaller miter.
//
// Pipeline (see DESIGN.md for the full walkthrough):
//   1. AND-tree balancing: maximal conjunction trees are flattened through
//      single-fanout, non-complemented AND edges, deduplicated (a & a -> a,
//      a & ~a -> false), and rebuilt as balanced trees over id-sorted
//      leaves, which exposes sharing between trees that accumulated in
//      different association orders.
//   2. 4-input cut enumeration: every AND node gets a priority-pruned set
//      of cuts with their local truth tables, computed bottom-up from the
//      fanin cut sets.
//   3. NPN-canonical lookup: each cut function is canonicalized (one of
//      222 classes for <= 4 inputs) and matched against a precomputed
//      optimal-structure table (rewrite_table.inc, generated offline by an
//      exact-synthesis pass).  Candidate implementations are built through
//      the strash of the graph under construction and priced by DAG-aware
//      gain — live reference counting charges exactly the nodes a
//      candidate brings alive and credits the cones it stops consuming —
//      and a node is rewritten only when some cut prices strictly better
//      than its structural AND.  The pass repeats until a fixpoint (or
//      maxPasses), since each round exposes sharing for the next.
//   4. Non-regression guard: if the rewritten cone is somehow larger than
//      the original, the pass falls back to a plain copy, so callers
//      never lose nodes by enabling it.
//
// The pass is deterministic (no RNG, no wall-clock decisions, no pointer-
// or hash-order dependent choices) and *unconditional*: it never assumes
// caller constraints, so the rewritten cone is equivalent to the original
// under every input assignment.  That makes it sound for BMC and induction
// alike, and counterexample replay through Result::map stays exact.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace dfv::aig {

/// Tuning knobs for a Rewriter run.  Defaults are deterministic.
struct RewriteOptions {
  /// Flatten and rebalance maximal AND trees before cut rewriting.
  bool balance = true;
  /// Enumerate cuts and rewrite against the NPN structure table.
  bool cuts = true;
  /// Priority-cut bound per node (the trivial cut rides along for free).
  std::uint32_t cutsPerNode = 8;
  /// Cut-rewriting iterates until no pass shrinks the cone, capped here.
  std::uint32_t maxPasses = 4;
};

/// Counters from one Rewriter run.
struct RewriteStats {
  std::size_t nodesBefore = 0;     ///< AND nodes in the cone of the roots
  std::size_t nodesAfter = 0;      ///< AND nodes in the rebuilt cone
  std::size_t balancedTrees = 0;   ///< trees with >= 3 leaves rebalanced
  std::size_t cutsEnumerated = 0;  ///< cuts kept across all nodes
  std::size_t rewritesApplied = 0; ///< nodes built from a non-structural cut
  bool fellBackToCopy = false;     ///< non-regression guard fired
};

/// Structural rewriting over the cone of a set of root literals.
class Rewriter {
 public:
  /// The old-literal -> new-literal mapping into the rebuilt graph; mirrors
  /// Fraig::Result so the two compose in the miter pipeline.
  struct Result {
    std::vector<Lit> roots;  ///< map of the requested roots, in order
    RewriteStats stats;

    /// Maps an old-graph literal into the rebuilt graph.  Every input of
    /// the old graph is mapped (whether in the cone or not), as is every
    /// requested root; interior cone nodes are mapped only if their
    /// function survived as a node of the rebuilt graph.
    Lit map(Lit old) const {
      DFV_CHECK_MSG(isMapped(old),
                    "literal " << old << " not mapped by rewrite");
      return nodeMap[nodeOf(old)] ^ static_cast<Lit>(isComplemented(old));
    }
    bool isMapped(Lit old) const {
      return nodeOf(old) < nodeMap.size() &&
             nodeMap[nodeOf(old)] != kUnmapped;
    }

    /// Per old node: its literal in the rebuilt graph, or kUnmapped.
    static constexpr Lit kUnmapped = 0xffffffffu;
    std::vector<Lit> nodeMap;
  };

  explicit Rewriter(RewriteOptions options = {}) : options_(options) {}

  /// Rewrites the cone of `roots` in `src` into the caller-owned graph
  /// `out` (which must be empty — node 0 only).  All inputs of `src` are
  /// recreated in `out` in id order, exactly like Fraig.
  Result run(const Aig& src, const std::vector<Lit>& roots, Aig& out) const;

 private:
  RewriteOptions options_;
};

/// NPN canonicalization of 4-input truth tables and access to the
/// precomputed optimal-structure table.  Exposed for the exhaustive
/// rewrite tests; Rewriter is the only production consumer.
namespace npn {

/// How a truth table reaches its class representative: canonicalize(tt)
/// returns {rep, permIdx, negMask} such that
/// applyTransform(rep, permIdx, negMask) == tt.
struct Canon {
  std::uint16_t rep;
  std::uint8_t permIdx;  ///< 0..23, index into the fixed permutation list
  std::uint8_t negMask;  ///< bits 0-3: input negations, bit 4: output
};

/// result(x0..x3) = tt(y0..y3) ^ outNeg, where y[perm[i]] = x[i] ^ neg[i].
std::uint16_t applyTransform(std::uint16_t tt, std::uint8_t permIdx,
                             std::uint8_t negMask);

/// Re-expresses `tt`, a function of variables 0..size-1, over a larger
/// variable set: variable k becomes variable pos[k], for strictly
/// increasing pos[0..size-1] <= 3.  Defined by the minterm map
/// result(m) = tt(sum_k bit(m, pos[k]) << k), so variables of `tt` at or
/// above `size` are read as 0.  The rewriter's cut merge uses it to lift a
/// fanin cut's function onto the merged leaf set.
std::uint16_t stretch(std::uint16_t tt, const std::array<std::uint8_t, 4>& pos,
                      int size);

/// Canonicalization lookup (lazily built 2^16 table, deterministic).
const Canon& canonicalize(std::uint16_t tt);

/// Number of NPN classes over <= 4 inputs (222).
int classCount();

/// Index of a representative truth table in the structure table, -1 if
/// `tt` is not a representative.
int classIndex(std::uint16_t repTT);

/// AND gates in the stored optimal structure of class `classIdx`.
int classGateCount(int classIdx);

/// Representative truth table of class `classIdx`.
std::uint16_t classTruth(int classIdx);

/// Re-simulates the stored gate program of class `classIdx`; must equal
/// classTruth(classIdx) (asserted by tests/rewrite_test.cpp).
std::uint16_t simulateClass(int classIdx);

}  // namespace npn

}  // namespace dfv::aig
