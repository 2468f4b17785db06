#include "aig/rewrite.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

namespace dfv::aig {

namespace {

#include "rewrite_table.inc"

/// Truth tables of the four projections x0..x3.
constexpr std::uint16_t kProj[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

/// The 24 permutations of {0,1,2,3} in lexicographic order.  The NPN
/// canonicalization table stores indices into this list; the orbit-fill
/// below and applyTransform must agree on it.
const std::array<std::array<std::uint8_t, 4>, 24>& permList() {
  static const auto perms = [] {
    std::array<std::array<std::uint8_t, 4>, 24> p{};
    std::array<std::uint8_t, 4> a{0, 1, 2, 3};
    int i = 0;
    do {
      p[static_cast<std::size_t>(i++)] = a;
    } while (std::next_permutation(a.begin(), a.end()));
    return p;
  }();
  return perms;
}

/// Lazily-built canonicalization table: for every 16-bit truth table, the
/// orbit representative (smallest member, discovered in ascending order),
/// one transform that maps the representative onto it, and the index of
/// its class in the structure table.  Deterministic: fixed iteration
/// order, no hashing in the fill.
struct NpnTable {
  std::vector<npn::Canon> canon;
  std::vector<std::uint8_t> classOf;  // truth table -> class index

  NpnTable() : canon(65536), classOf(65536) {
    std::vector<bool> assigned(65536, false);
    int next = 0;
    for (std::uint32_t t = 0; t < 65536; ++t) {
      if (assigned[t]) continue;
      const auto rep = static_cast<std::uint16_t>(t);
      // Cross-validate the runtime orbit fill against the offline
      // generator: representatives must match the table bit-for-bit.
      DFV_CHECK_MSG(next < kNpnClassCount && kNpnRepTT[next] == rep,
                    "NPN representative mismatch against rewrite_table.inc");
      for (std::uint8_t pi = 0; pi < 24; ++pi)
        for (std::uint8_t mask = 0; mask < 32; ++mask) {
          const std::uint16_t x = npn::applyTransform(rep, pi, mask);
          if (!assigned[x]) {
            assigned[x] = true;
            canon[x] = npn::Canon{rep, pi, mask};
            classOf[x] = static_cast<std::uint8_t>(next);
          }
        }
      ++next;
    }
    DFV_CHECK_MSG(next == kNpnClassCount, "NPN class count mismatch");
  }
};

const NpnTable& npnTable() {
  static const NpnTable table;
  return table;
}

constexpr Lit kUn = Rewriter::Result::kUnmapped;

/// All node ids in the cone of `roots`, ascending (inputs, const, ANDs).
std::vector<std::uint32_t> coneNodes(const Aig& g,
                                     const std::vector<Lit>& roots) {
  std::vector<bool> seen(g.numNodes(), false);
  std::vector<std::uint32_t> stack;
  std::vector<std::uint32_t> order;
  for (const Lit r : roots) {
    const std::uint32_t n = nodeOf(r);
    if (!seen[n]) {
      seen[n] = true;
      stack.push_back(n);
    }
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    order.push_back(n);
    if (!g.isAndNode(n)) continue;
    for (const Lit f : {g.fanin0(n), g.fanin1(n)}) {
      const std::uint32_t m = nodeOf(f);
      if (!seen[m]) {
        seen[m] = true;
        stack.push_back(m);
      }
    }
  }
  std::sort(order.begin(), order.end());
  return order;
}

std::size_t coneAndCount(const Aig& g, const std::vector<Lit>& roots) {
  std::size_t count = 0;
  for (const std::uint32_t n : coneNodes(g, roots))
    if (g.isAndNode(n)) ++count;
  return count;
}

/// Recreates ALL inputs of `src` in `out` in id order (the same contract
/// Fraig's rebuild honors) and seeds the node map with them.
void recreateInputs(const Aig& src, Aig& out, std::vector<Lit>& map) {
  map.assign(src.numNodes(), kUn);
  map[0] = kFalse;
  for (const std::uint32_t in : src.inputs())
    map[in] = out.makeInput(src.inputNameOr(in));
}

Lit mapLit(const std::vector<Lit>& map, Lit l) {
  DFV_CHECK_MSG(map[nodeOf(l)] != kUn, "unmapped literal in rewrite stage");
  return map[nodeOf(l)] ^ static_cast<Lit>(isComplemented(l));
}

/// One rebuild stage: a fresh graph plus the stage-input-node -> literal
/// map and the mapped roots.
struct Stage {
  Aig g;
  std::vector<Lit> map;
  std::vector<Lit> roots;
};

/// Composes src->mid with mid-node->out into src->out.
std::vector<Lit> compose(const std::vector<Lit>& first,
                         const std::vector<Lit>& second) {
  std::vector<Lit> r(first.size(), kUn);
  for (std::size_t n = 0; n < first.size(); ++n) {
    if (first[n] == kUn) continue;
    const Lit mid = first[n];
    if (nodeOf(mid) >= second.size() || second[nodeOf(mid)] == kUn) continue;
    r[n] = second[nodeOf(mid)] ^ static_cast<Lit>(isComplemented(mid));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Pass 1: AND-tree balancing.
// ---------------------------------------------------------------------------

Stage balancePass(const Aig& src, const std::vector<Lit>& roots,
                  RewriteStats& stats) {
  Stage p;
  recreateInputs(src, p.g, p.map);
  const auto cone = coneNodes(src, roots);

  // A node is absorbable into its (sole) consuming conjunction iff it is
  // an AND referenced exactly once, non-complemented, and not a root.
  std::vector<std::uint32_t> refs(src.numNodes(), 0);
  std::vector<bool> pinned(src.numNodes(), false);
  for (const std::uint32_t n : cone) {
    if (!src.isAndNode(n)) continue;
    for (const Lit f : {src.fanin0(n), src.fanin1(n)}) {
      ++refs[nodeOf(f)];
      if (isComplemented(f)) pinned[nodeOf(f)] = true;
    }
  }
  for (const Lit r : roots) pinned[nodeOf(r)] = true;
  auto absorbable = [&](Lit e) {
    const std::uint32_t c = nodeOf(e);
    return !isComplemented(e) && src.isAndNode(c) && refs[c] == 1 &&
           !pinned[c];
  };

  std::vector<Lit> leaves;
  std::vector<Lit> work;
  for (const std::uint32_t n : cone) {
    if (!src.isAndNode(n)) continue;
    if (!pinned[n] && refs[n] == 1) continue;  // absorbed by its consumer
    leaves.clear();
    work.assign({src.fanin0(n), src.fanin1(n)});
    while (!work.empty()) {
      const Lit e = work.back();
      work.pop_back();
      if (absorbable(e)) {
        work.push_back(src.fanin0(nodeOf(e)));
        work.push_back(src.fanin1(nodeOf(e)));
      } else {
        leaves.push_back(mapLit(p.map, e));
      }
    }
    if (leaves.size() >= 3) ++stats.balancedTrees;
    std::sort(leaves.begin(), leaves.end());
    bool isFalse = false;
    std::vector<Lit> uniq;
    for (const Lit l : leaves) {
      if (l == kFalse) {
        isFalse = true;
        break;
      }
      if (l == kTrue) continue;
      if (!uniq.empty() && uniq.back() == l) continue;
      if (!uniq.empty() && uniq.back() == negate(l)) {
        isFalse = true;
        break;
      }
      uniq.push_back(l);
    }
    if (isFalse) {
      p.map[n] = kFalse;
      continue;
    }
    // FIFO pairing over the sorted leaves yields a balanced tree.
    std::size_t head = 0;
    while (uniq.size() - head >= 2) {
      const Lit a = uniq[head++];
      const Lit b = uniq[head++];
      uniq.push_back(p.g.makeAnd(a, b));
    }
    p.map[n] = (head == uniq.size()) ? kTrue : uniq[head];
  }
  for (const Lit r : roots) p.roots.push_back(mapLit(p.map, r));
  return p;
}

// ---------------------------------------------------------------------------
// Pass 2: cut enumeration + NPN table covering.
// ---------------------------------------------------------------------------

struct Cut {
  std::array<std::uint32_t, 4> leaves{};  // ascending node ids
  std::uint8_t size = 0;
  std::uint16_t tt = 0;  // function of the node over leaves (var i = leaf i)
};

/// Merges two fanin cuts (with their edge complements) into a cut of the
/// AND node; fails if the leaf union exceeds 4.  Each fanin's leaves land
/// at strictly increasing union positions, which is what lets npn::stretch
/// re-express its truth table with one variable swap per leaf.
bool mergeCut(const Cut& a, bool compA, const Cut& b, bool compB, Cut& out) {
  std::array<std::uint32_t, 4> uni{};
  std::array<std::uint8_t, 4> posA{};
  std::array<std::uint8_t, 4> posB{};
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint8_t u = 0;
  while (i < a.size || j < b.size) {
    if (u == 4) return false;
    if (j >= b.size || (i < a.size && a.leaves[i] <= b.leaves[j])) {
      if (j < b.size && b.leaves[j] == a.leaves[i]) posB[j++] = u;
      uni[u] = a.leaves[i];
      posA[i++] = u++;
    } else {
      uni[u] = b.leaves[j];
      posB[j++] = u++;
    }
  }
  out.leaves = uni;
  out.size = u;
  const std::uint16_t ta = static_cast<std::uint16_t>(
      npn::stretch(a.tt, posA, a.size) ^ (compA ? 0xFFFFu : 0u));
  const std::uint16_t tb = static_cast<std::uint16_t>(
      npn::stretch(b.tt, posB, b.size) ^ (compB ? 0xFFFFu : 0u));
  out.tt = static_cast<std::uint16_t>(ta & tb);
  return true;
}

Cut trivialCut(std::uint32_t n) {
  Cut c;
  c.leaves[0] = n;
  c.size = 1;
  c.tt = 0xAAAA;  // projection of var 0
  return c;
}

Stage cutPass(const Aig& src, const std::vector<Lit>& roots,
              const RewriteOptions& opt, RewriteStats& stats) {
  const NpnTable& tab = npnTable();
  const auto cone = coneNodes(src, roots);

  // refs counts the UNPROCESSED structural consumers of each src node
  // (plus root pins): when it hits zero during the walk, the node's
  // committed stage implementation loses its liveness pin.  consumers
  // drives the early release of fanin cut sets (the dominant memory cost
  // on BMC-sized cones).
  std::vector<std::uint32_t> refs(src.numNodes(), 0);
  std::vector<std::uint32_t> consumers(src.numNodes(), 0);
  for (const std::uint32_t n : cone) {
    if (!src.isAndNode(n)) continue;
    for (const Lit f : {src.fanin0(n), src.fanin1(n)}) {
      ++refs[nodeOf(f)];
      ++consumers[nodeOf(f)];
    }
  }
  for (const Lit r : roots) ++refs[nodeOf(r)];

  std::vector<std::vector<Cut>> cuts(src.numNodes());

  Stage p;
  recreateInputs(src, p.g, p.map);

  // Live reference counts over STAGE nodes.  Every committed
  // implementation pins its output cone (+1 on each newly reached node);
  // when the last unprocessed structural consumer of a src node commits,
  // the pin is dropped again and whatever no other live reference holds
  // cascades dead.  Pricing a candidate is then a pure ref/deref
  // simulation on these counts: nodes a candidate reuses (strash hits
  // into live logic) cost nothing, nodes it revives or creates are
  // charged, and cones it stops consuming are credited — reuse of
  // "freed" logic cancels its own credit by construction, which is what
  // the static-MFFC estimate this replaced got wrong.
  std::vector<std::uint32_t> sref;
  std::vector<std::uint32_t> refWork;
  auto refCone = [&](Lit l) -> std::uint32_t {
    if (sref.size() < p.g.numNodes()) sref.resize(p.g.numNodes(), 0);
    std::uint32_t added = 0;
    refWork.clear();
    refWork.push_back(nodeOf(l));
    while (!refWork.empty()) {
      const std::uint32_t v = refWork.back();
      refWork.pop_back();
      if (!p.g.isAndNode(v)) continue;
      if (sref[v]++ == 0) {
        ++added;
        refWork.push_back(nodeOf(p.g.fanin0(v)));
        refWork.push_back(nodeOf(p.g.fanin1(v)));
      }
    }
    return added;
  };
  auto derefCone = [&](Lit l) -> std::uint32_t {
    std::uint32_t freed = 0;
    refWork.clear();
    refWork.push_back(nodeOf(l));
    while (!refWork.empty()) {
      const std::uint32_t v = refWork.back();
      refWork.pop_back();
      if (!p.g.isAndNode(v)) continue;
      DFV_CHECK_MSG(sref[v] > 0, "stage ref underflow");
      if (--sref[v] == 0) {
        ++freed;
        refWork.push_back(nodeOf(p.g.fanin0(v)));
        refWork.push_back(nodeOf(p.g.fanin1(v)));
      }
    }
    return freed;
  };

  std::array<Lit, 4> zin{};
  std::vector<Lit> gateLits;
  std::vector<Cut> cand;
  std::vector<Cut> kept;
  for (const std::uint32_t n : cone) {
    if (!src.isAndNode(n)) {
      cuts[n].push_back(trivialCut(n));
      continue;
    }
    const Lit f0 = src.fanin0(n);
    const Lit f1 = src.fanin1(n);
    cand.clear();
    for (const Cut& a : cuts[nodeOf(f0)])
      for (const Cut& b : cuts[nodeOf(f1)]) {
        Cut c;
        if (mergeCut(a, isComplemented(f0), b, isComplemented(f1), c))
          cand.push_back(c);
      }
    std::sort(cand.begin(), cand.end(), [](const Cut& x, const Cut& y) {
      if (x.size != y.size) return x.size < y.size;
      return x.leaves < y.leaves;
    });
    cand.erase(std::unique(cand.begin(), cand.end(),
                           [](const Cut& x, const Cut& y) {
                             return x.size == y.size && x.leaves == y.leaves;
                           }),
               cand.end());
    // Priority keep with dominance pruning: a cut is useless if a kept cut
    // covers the node from a strict subset of its leaves.
    kept.clear();
    for (const Cut& c : cand) {
      bool dominated = false;
      for (const Cut& k : kept) {
        if (k.size >= c.size) continue;
        bool subset = true;
        for (int x = 0; x < k.size && subset; ++x) {
          subset = false;
          for (int y = 0; y < c.size; ++y)
            if (c.leaves[static_cast<std::size_t>(y)] ==
                k.leaves[static_cast<std::size_t>(x)]) {
              subset = true;
              break;
            }
        }
        if (subset) {
          dominated = true;
          break;
        }
      }
      if (!dominated) kept.push_back(c);
      if (kept.size() >= opt.cutsPerNode) break;
    }
    stats.cutsEnumerated += kept.size();
    DFV_CHECK_MSG(!kept.empty(), "AND node with no cuts");

    const Lit m0 = mapLit(p.map, f0);
    const Lit m1 = mapLit(p.map, f1);
    const std::uint32_t s0 = nodeOf(f0);
    const std::uint32_t s1 = nodeOf(f1);

    // Net live-node delta if `out` became n's implementation: charge the
    // nodes its cone newly brings alive, credit the cones n would stop
    // pinning (only when n is the last unprocessed consumer), then undo
    // both simulations in exact reverse order.  Candidates are built for
    // real before pricing; rejected ones stay as unreferenced garbage the
    // final live-cone copy never sees (and later candidates may cheaply
    // strash-hit into, priced as revivals).
    auto priceImpl = [&](Lit out) -> std::int64_t {
      const std::uint32_t added = refCone(out);
      std::uint32_t freed = 0;
      if (refs[s0] == 1) freed += derefCone(mapLit(p.map, s0 << 1));
      if (refs[s1] == 1) freed += derefCone(mapLit(p.map, s1 << 1));
      if (refs[s1] == 1) refCone(mapLit(p.map, s1 << 1));
      if (refs[s0] == 1) refCone(mapLit(p.map, s0 << 1));
      derefCone(out);
      return static_cast<std::int64_t>(added) -
             static_cast<std::int64_t>(freed);
    };

    // Loads the rep-input literals for cut `c`: cut(x) = rep(y) ^ outNeg
    // with y[perm[i]] = x[i] ^ neg[i], so rep input perm[i] is fed the
    // (possibly negated) i-th leaf.  Leaves beyond the cut size are
    // vacuous in the padded truth table, so any value (kFalse) is sound
    // there.
    auto loadInputs = [&](const Cut& c, const npn::Canon& cn) {
      const auto& perm = permList()[cn.permIdx];
      zin.fill(kFalse);
      for (int i = 0; i < 4; ++i) {
        const Lit v =
            i < c.size
                ? mapLit(p.map, c.leaves[static_cast<std::size_t>(i)] << 1)
                : kFalse;
        zin[perm[static_cast<std::size_t>(i)]] =
            v ^ static_cast<Lit>((cn.negMask >> i) & 1);
      }
    };

    // Price the structural implementation first, then every cut's table
    // program, built for real through the stage strash so sharing and
    // revival price exactly.  A candidate wins only with a strictly
    // smaller net (and the default is evaluated first), so ties keep the
    // structural shape and a graph the table cannot improve passes
    // through unchanged; the structural 2-cut rebuilds the same AND as
    // the default and therefore never beats it.
    const Lit dflt = p.g.makeAnd(m0, m1);
    Lit bestOut = dflt;
    std::int64_t bestNet = priceImpl(dflt);
    for (const Cut& c : kept) {
      const npn::Canon& cn = tab.canon[c.tt];
      const int cls = tab.classOf[c.tt];
      loadInputs(c, cn);
      gateLits.clear();
      auto resolve = [&](std::uint16_t enc) -> Lit {
        Lit base = kFalse;
        if (enc >= 10)
          base = gateLits[(enc - 10u) >> 1];
        else if (enc >= 2)
          base = zin[(enc - 2u) >> 1];
        return base ^ static_cast<Lit>(enc & 1u);
      };
      for (int gi = kNpnGateOffset[cls]; gi < kNpnGateOffset[cls + 1]; ++gi)
        gateLits.push_back(p.g.makeAnd(resolve(kNpnGates[gi][0]),
                                       resolve(kNpnGates[gi][1])));
      const Lit out = resolve(kNpnOutLit[cls]) ^
                      static_cast<Lit>((cn.negMask >> 4) & 1);
      const std::int64_t net = priceImpl(out);
      if (net < bestNet) {
        bestNet = net;
        bestOut = out;
      }
    }

    // Commit: pin the chosen cone, record the mapping, and drop the pins
    // of fanins whose last unprocessed consumer this was.
    refCone(bestOut);
    p.map[n] = bestOut;
    if (bestOut != dflt) ++stats.rewritesApplied;
    for (const std::uint32_t m : {s0, s1}) {
      DFV_CHECK_MSG(refs[m] > 0, "src ref underflow");
      if (--refs[m] == 0) derefCone(mapLit(p.map, m << 1));
    }

    cuts[n] = kept;
    cuts[n].push_back(trivialCut(n));  // for fanout merging

    // Release fanin cut sets nobody will merge from again.
    for (const Lit f : {f0, f1}) {
      const std::uint32_t m = nodeOf(f);
      if (--consumers[m] == 0) std::vector<Cut>().swap(cuts[m]);
    }
  }
  for (const Lit r : roots) p.roots.push_back(mapLit(p.map, r));
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// npn:: test surface
// ---------------------------------------------------------------------------

namespace npn {

std::uint16_t applyTransform(std::uint16_t tt, std::uint8_t permIdx,
                             std::uint8_t negMask) {
  const auto& perm = permList()[permIdx];
  std::uint16_t r = 0;
  for (int m = 0; m < 16; ++m) {
    int srcMinterm = 0;
    for (int i = 0; i < 4; ++i) {
      const int v = ((m >> i) & 1) ^ ((negMask >> i) & 1);
      srcMinterm |= v << perm[static_cast<std::size_t>(i)];
    }
    const int bit = ((tt >> srcMinterm) & 1) ^ ((negMask >> 4) & 1);
    r |= static_cast<std::uint16_t>(bit << m);
  }
  return r;
}

std::uint16_t stretch(std::uint16_t tt, const std::array<std::uint8_t, 4>& pos,
                      int size) {
  // Cofactor variables size..3 to 0 and replicate the low 2^size bits, so
  // the table no longer depends on them.
  static constexpr std::uint16_t kReplicate[5] = {0xFFFF, 0x5555, 0x1111,
                                                  0x0101, 0x0001};
  const auto s = static_cast<unsigned>(size);
  std::uint32_t t = (tt & ((1u << (1u << s)) - 1u)) * kReplicate[s];
  // Highest leaf first: the slot pos[k] > k it moves into is then either
  // beyond the source variables or already vacated by a higher leaf.
  for (unsigned k = s; k-- > 0;) {
    const unsigned p = pos[k];
    if (p == k) continue;
    // Swap variables k < p: minterms with x_k=1, x_p=0 trade places with
    // their x_k=0, x_p=1 partners, 2^p - 2^k positions higher.
    const unsigned shift = (1u << p) - (1u << k);
    const std::uint32_t up = kProj[k] & ~kProj[p] & 0xFFFFu;
    t = (t & ~(up | (up << shift))) | ((t & up) << shift) | ((t >> shift) & up);
  }
  return static_cast<std::uint16_t>(t);
}

const Canon& canonicalize(std::uint16_t tt) { return npnTable().canon[tt]; }

int classCount() { return kNpnClassCount; }

int classIndex(std::uint16_t repTT) {
  const NpnTable& tab = npnTable();
  return tab.canon[repTT].rep == repTT ? tab.classOf[repTT] : -1;
}

int classGateCount(int classIdx) {
  DFV_CHECK(classIdx >= 0 && classIdx < kNpnClassCount);
  return kNpnGateOffset[classIdx + 1] - kNpnGateOffset[classIdx];
}

std::uint16_t classTruth(int classIdx) {
  DFV_CHECK(classIdx >= 0 && classIdx < kNpnClassCount);
  return kNpnRepTT[classIdx];
}

std::uint16_t simulateClass(int classIdx) {
  DFV_CHECK(classIdx >= 0 && classIdx < kNpnClassCount);
  std::vector<std::uint16_t> gates;
  auto value = [&](std::uint16_t enc) -> std::uint16_t {
    std::uint16_t base = 0;
    if (enc >= 10)
      base = gates[(enc - 10u) >> 1];
    else if (enc >= 2)
      base = kProj[(enc - 2u) >> 1];
    return (enc & 1u) ? static_cast<std::uint16_t>(~base) : base;
  };
  for (int gi = kNpnGateOffset[classIdx]; gi < kNpnGateOffset[classIdx + 1];
       ++gi)
    gates.push_back(static_cast<std::uint16_t>(value(kNpnGates[gi][0]) &
                                               value(kNpnGates[gi][1])));
  return value(kNpnOutLit[classIdx]);
}

}  // namespace npn

// ---------------------------------------------------------------------------
// Rewriter
// ---------------------------------------------------------------------------

Rewriter::Result Rewriter::run(const Aig& src, const std::vector<Lit>& roots,
                               Aig& out) const {
  DFV_CHECK_MSG(out.numNodes() == 1 && out.numInputs() == 0,
                "rewrite output graph must be empty");
  Result res;
  res.stats.nodesBefore = coneAndCount(src, roots);

  // Stage chain, starting from the identity over src.
  const Aig* curG = &src;
  std::vector<Lit> curMap(src.numNodes());
  for (std::size_t n = 0; n < src.numNodes(); ++n)
    curMap[n] = static_cast<Lit>(n << 1);
  std::vector<Lit> curRoots = roots;

  // `hold` keeps the graph curG points into alive; replacing it frees the
  // previous stage, so peak memory is two stages regardless of pass count.
  std::unique_ptr<Stage> hold;
  if (options_.balance) {
    auto st = std::make_unique<Stage>(balancePass(*curG, curRoots, res.stats));
    curMap = compose(curMap, st->map);
    curRoots = st->roots;
    curG = &st->g;
    hold = std::move(st);
  }
  if (options_.cuts) {
    std::size_t curSize = coneAndCount(*curG, curRoots);
    for (std::uint32_t pass = 0; pass < options_.maxPasses; ++pass) {
      auto st =
          std::make_unique<Stage>(cutPass(*curG, curRoots, options_, res.stats));
      const std::size_t next = coneAndCount(st->g, st->roots);
      // A non-improving pass is discarded and ends the iteration; each
      // accepted pass strictly shrinks the cone, so this terminates.
      if (next >= curSize && pass > 0) break;
      curMap = compose(curMap, st->map);
      curRoots = st->roots;
      curG = &st->g;
      hold = std::move(st);
      if (next >= curSize) break;
      curSize = next;
    }
  }

  // Non-regression guard: area flow is a heuristic; never hand the solver
  // a bigger cone than it started with.
  if (curG != &src && coneAndCount(*curG, curRoots) > res.stats.nodesBefore) {
    res.stats.fellBackToCopy = true;
    curG = &src;
    curMap.resize(src.numNodes());
    for (std::size_t n = 0; n < src.numNodes(); ++n)
      curMap[n] = static_cast<Lit>(n << 1);
    curRoots = roots;
  }

  // Final emit: copy only the live cone into the caller's graph, so dead
  // gates from folded table programs never reach the CNF encoder.
  std::vector<Lit> finMap;
  recreateInputs(*curG, out, finMap);
  for (const std::uint32_t n : coneNodes(*curG, curRoots))
    if (curG->isAndNode(n))
      finMap[n] = out.makeAnd(mapLit(finMap, curG->fanin0(n)),
                              mapLit(finMap, curG->fanin1(n)));
  res.nodeMap = compose(curMap, finMap);
  for (const Lit r : curRoots) res.roots.push_back(mapLit(finMap, r));
  res.stats.nodesAfter = coneAndCount(out, res.roots);
  return res;
}

}  // namespace dfv::aig
