#include "aig/fraig.h"

#include <chrono>
#include <random>
#include <unordered_map>
#include <utility>

#include "aig/cnf.h"
#include "aig/sim.h"

namespace dfv::aig {

namespace {

// Signature layout per cone node: a growing vector of 64-bit words.  The
// first `randWords` words are full random stimulus; counterexample bits are
// appended one at a time after that, so the last word may be partial and
// comparisons mask it.
using Sig = std::vector<std::uint64_t>;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Fraig::Result Fraig::run(const Aig& src, const std::vector<Lit>& roots,
                         Aig& out, CnfEncoder& enc) const {
  DFV_CHECK_MSG(out.numNodes() == 1 && out.numInputs() == 0,
                "fraig output graph must be freshly constructed");
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t srcN = src.numNodes();

  // -- Cone of influence of the roots (plus node 0, which is free) ---------
  const Cone cone = coneOf(src, roots);
  const std::vector<std::uint32_t>& coneNodes = cone.nodes;

  Result res;
  res.nodeMap.assign(srcN, Result::kUnmapped);
  for (const std::uint32_t n : coneNodes)
    if (src.isAndNode(n)) ++res.stats.nodesBefore;

  // -- Random simulation: 64-bit parallel signatures -----------------------
  std::vector<Sig> sigs(srcN);
  std::vector<std::uint64_t> word(srcN);
  std::mt19937_64 rng(options_.seed);
  std::size_t cexBits = 0;  // counterexample bits appended past the random words

  const auto simulateNextWord = [&]() {
    simulateWord(src, coneNodes, rng, word);
    for (const std::uint32_t n : coneNodes) sigs[n].push_back(word[n]);
  };

  // Complement-canonical classes: a node whose signature has bit 0 set is
  // compared inverted, so x and ~x land in the same class (merge handles the
  // inversion).  The phase bit never changes once round one has run.
  const auto phaseOf = [&](std::uint32_t n) {
    return (sigs[n][0] & 1ULL) != 0;
  };
  const auto lastMask = [&]() -> std::uint64_t {
    const unsigned rem = static_cast<unsigned>(cexBits % 64);
    return (cexBits > 0 && rem != 0) ? ((1ULL << rem) - 1) : ~0ULL;
  };
  const auto sigsEqual = [&](std::uint32_t a, std::uint32_t b, bool invert) {
    const Sig& sa = sigs[a];
    const Sig& sb = sigs[b];
    const std::size_t nw = sa.size();
    const std::uint64_t flip = invert ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w + 1 < nw; ++w)
      if (sa[w] != (sb[w] ^ flip)) return false;
    return ((sa[nw - 1] ^ sb[nw - 1] ^ flip) & lastMask()) == 0;
  };

  struct Partition {
    std::vector<std::vector<std::uint32_t>> members;
    std::vector<std::int32_t> classOf;
  };
  const auto buildClasses = [&]() {
    Partition p;
    p.classOf.assign(srcN, -1);
    // Hash buckets over complement-canonical signatures; full signature
    // comparison on hits, so hash collisions only cost time.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
    for (const std::uint32_t n : coneNodes) {
      const bool inv = phaseOf(n);
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const std::uint64_t w : sigs[n]) h = mix64(h ^ (inv ? ~w : w));
      auto& bucket = buckets[h];
      bool placed = false;
      for (const std::uint32_t cid : bucket) {
        const std::uint32_t rep = p.members[cid].front();
        if (sigsEqual(n, rep, inv != phaseOf(rep))) {
          p.classOf[n] = static_cast<std::int32_t>(cid);
          p.members[cid].push_back(n);
          placed = true;
          break;
        }
      }
      if (!placed) {
        const auto cid = static_cast<std::uint32_t>(p.members.size());
        p.classOf[n] = static_cast<std::int32_t>(cid);
        p.members.push_back({n});
        bucket.push_back(cid);
      }
    }
    return p;
  };

  Partition classes;
  std::size_t prevClassCount = 0;
  for (std::uint32_t round = 0; round < options_.simRounds; ++round) {
    for (std::uint32_t w = 0; w < options_.simWords; ++w) simulateNextWord();
    classes = buildClasses();
    // Refinement converged: more stimulus is not splitting anything.
    if (round > 0 && classes.members.size() == prevClassCount) break;
    prevClassCount = classes.members.size();
  }

  // -- Rebuild bottom-up, proving candidate merges by SAT ------------------
  Aig& g2 = out;
  sat::Solver& solver = enc.solver();
  g2.reserve(coneNodes.size() + src.numInputs());
  res.nodeMap[0] = kFalse;
  // Recreate ALL old inputs in id order (cone or not): callers extract
  // counterexample values through input literals, so every input must map.
  for (const std::uint32_t in : src.inputs())
    res.nodeMap[in] = g2.makeInput(src.inputNameOr(in));

  // Seed saved phases from the first simulation word so the first descent
  // of each candidate solve tracks a known-consistent assignment.
  for (const std::uint32_t in : src.inputs()) {
    if (!cone.contains[in]) continue;
    const sat::Lit sl = enc.satLit(res.nodeMap[in]);
    solver.setPhase(sl.var(), (sigs[in][0] & 1ULL) != 0);
  }

  const auto appendCex = [&]() {
    const auto pos = static_cast<unsigned>(cexBits % 64);
    if (pos == 0)
      for (const std::uint32_t n : coneNodes) sigs[n].push_back(0);
    const std::size_t widx = sigs[0].size() - 1;
    const auto bitOf = [&](Lit l) {
      const bool v = (sigs[nodeOf(l)][widx] >> pos) & 1ULL;
      return v != isComplemented(l);
    };
    for (const std::uint32_t n : coneNodes) {
      bool v = false;
      if (src.isInputNode(n)) {
        // Unassigned or never-encoded inputs default to false — consistent,
        // since the solver left them unconstrained.
        v = solver.modelValueOr(enc.satLit(res.nodeMap[n]), false);
      } else if (n != 0) {
        v = bitOf(src.fanin0(n)) && bitOf(src.fanin1(n));
      }
      if (v) sigs[n][widx] |= 1ULL << pos;
    }
    ++cexBits;
  };

  // Per class: the nodes that are live merge targets, in id order.
  std::vector<std::vector<std::uint32_t>> reps(classes.members.size());
  for (const std::uint32_t n : coneNodes) {
    const std::int32_t cid = classes.classOf[n];
    const bool candidateClass =
        cid >= 0 && classes.members[static_cast<std::size_t>(cid)].size() > 1;
    if (n == 0 || src.isInputNode(n)) {
      // Constants and inputs are always representatives: nothing with a
      // smaller id can depend on a later input, and node 0's class lets
      // all-false-signature nodes be proved constant.
      if (candidateClass) reps[static_cast<std::size_t>(cid)].push_back(n);
      continue;
    }
    const Lit nl =
        g2.makeAnd(res.map(src.fanin0(n)), res.map(src.fanin1(n)));
    res.nodeMap[n] = nl;
    if (!candidateClass) continue;
    bool merged = false;
    for (const std::uint32_t rep : reps[static_cast<std::size_t>(cid)]) {
      const bool invert = phaseOf(n) != phaseOf(rep);
      // Counterexamples appended since class construction may have split
      // the pair apart; re-check at decision time.
      if (!sigsEqual(n, rep, invert)) continue;
      const Lit target = res.nodeMap[rep] ^ static_cast<Lit>(invert);
      if (nl == target) {
        // Earlier merges cascaded through strashing; nothing to prove.
        res.nodeMap[n] = target;
        ++res.stats.mergedNodes;
        merged = true;
        break;
      }
      if (nl == negate(target)) continue;  // structurally complement: skip
      const Lit miter = g2.makeXor(nl, target);
      if (miter == kFalse) {
        res.nodeMap[n] = target;
        ++res.stats.mergedNodes;
        merged = true;
        break;
      }
      if (miter == kTrue) continue;
      ++res.stats.satCalls;
      const sat::Lit q = enc.satLit(miter);
      const sat::Result r = solver.solve({q}, options_.candidateBudget);
      if (r == sat::Result::kUnsat) {
        solver.addClause(~q);  // teach the proven equivalence to later solves
        res.nodeMap[n] = target;
        ++res.stats.provenEquiv;
        ++res.stats.mergedNodes;
        merged = true;
        break;
      }
      if (r == sat::Result::kSat) {
        ++res.stats.refuted;
        appendCex();  // splits this pair (and any class it distinguishes)
        continue;
      }
      // Budget expired: leave unmerged (sound) and stop trying — further
      // candidates in a class this hard would likely expire too.
      ++res.stats.budgetExpired;
      break;
    }
    if (!merged) reps[static_cast<std::size_t>(cid)].push_back(n);
  }

  res.roots.reserve(roots.size());
  for (const Lit r : roots) res.roots.push_back(res.map(r));

  // Cone size of the mapped roots in the rebuilt graph (g2 also contains
  // the candidate-miter XOR nodes; they are dead logic for the caller even
  // though their clauses remain in the shared solver as learnt context).
  {
    std::vector<bool> seen(g2.numNodes(), false);
    std::vector<std::uint32_t> work;
    for (const Lit r : res.roots) work.push_back(nodeOf(r));
    while (!work.empty()) {
      const std::uint32_t n = work.back();
      work.pop_back();
      if (seen[n]) continue;
      seen[n] = true;
      if (g2.isAndNode(n)) {
        ++res.stats.nodesAfter;
        work.push_back(nodeOf(g2.fanin0(n)));
        work.push_back(nodeOf(g2.fanin1(n)));
      }
    }
  }

  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

}  // namespace dfv::aig
