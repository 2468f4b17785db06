// Tests for DAG-aware AIG rewriting (aig/rewrite.{h,cpp}).  Two layers:
// the NPN machinery is checked exhaustively over all 2^16 4-input truth
// tables (canonicalization is a bijection onto 222 class representatives,
// and every stored gate program re-simulates to its representative), and
// the rewriter itself is checked differentially — exhaustive input sweeps
// against the source graph on random AIGs, and an ir::Evaluator sweep over
// blasted word-level operations, mirroring the fraig tests in aig_test.cpp.
// Its counters on two real SEC miters are pinned exactly.

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <unordered_map>

#include "aig/aig.h"
#include "aig/bitblast.h"
#include "aig/rewrite.h"
#include "designs/conv.h"
#include "designs/gcd.h"
#include "ir/eval.h"
#include "rtl/lower.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"

namespace dfv::aig {
namespace {

using bv::BitVector;

// ---------------------------------------------------------------------------
// NPN canonicalization: exhaustive over all 2^16 truth tables.
// ---------------------------------------------------------------------------

TEST(Npn, ExhaustiveCanonicalizationRoundTrips) {
  std::set<std::uint16_t> reps;
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    const npn::Canon& c = npn::canonicalize(tt);
    // The transform recorded must reproduce tt from its representative.
    ASSERT_EQ(npn::applyTransform(c.rep, c.permIdx, c.negMask), tt)
        << "tt " << t;
    // Representatives are fixpoints and match the generated table.
    EXPECT_EQ(npn::canonicalize(c.rep).rep, c.rep);
    EXPECT_GE(npn::classIndex(c.rep), 0);
    reps.insert(c.rep);
  }
  EXPECT_EQ(static_cast<int>(reps.size()), npn::classCount());
  EXPECT_EQ(npn::classCount(), 222);
}

TEST(Npn, RepresentativeIsOrbitMinimum) {
  // The orbit is filled in ascending truth-table order, so a representative
  // is always numerically <= every member of its class.
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    ASSERT_LE(npn::canonicalize(tt).rep, tt) << "tt " << t;
  }
}

TEST(Npn, StoredProgramsSimulateToTheirRepresentative) {
  int totalGates = 0;
  for (int i = 0; i < npn::classCount(); ++i) {
    ASSERT_EQ(npn::simulateClass(i), npn::classTruth(i)) << "class " << i;
    ASSERT_EQ(npn::classIndex(npn::classTruth(i)), i);
    totalGates += npn::classGateCount(i);
  }
  // The exact-synthesis table: no class needs more than 12 AND gates.
  for (int i = 0; i < npn::classCount(); ++i)
    EXPECT_LE(npn::classGateCount(i), 12) << "class " << i;
  EXPECT_GT(totalGates, 0);
}

TEST(Npn, TransformsRespectComposition) {
  // applyTransform must be a group action: transforming a projection gives
  // the (possibly negated) permuted projection.
  const std::uint16_t proj[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
  for (std::uint8_t permIdx = 0; permIdx < 24; ++permIdx) {
    for (int j = 0; j < 4; ++j) {
      std::uint16_t got = npn::applyTransform(proj[j], permIdx, 0);
      bool isProjection = false;
      for (int k = 0; k < 4; ++k) isProjection |= got == proj[k];
      EXPECT_TRUE(isProjection) << "perm " << int(permIdx) << " var " << j;
    }
  }
}

TEST(Npn, StretchMatchesMintermDefinitionExhaustively) {
  // Every strictly increasing leaf-position map of size 1-4 (15 maps),
  // against every 16-bit table: the cut merge's variable-swap stretch must
  // equal the minterm-by-minterm re-indexing it replaced, including on
  // tables that depend on variables at or above `size` (read as 0).
  for (unsigned subset = 1; subset < 16; ++subset) {
    std::array<std::uint8_t, 4> pos{};
    int size = 0;
    for (std::uint8_t v = 0; v < 4; ++v)
      if ((subset >> v) & 1) pos[static_cast<std::size_t>(size++)] = v;
    for (std::uint32_t t = 0; t < 0x10000; ++t) {
      const auto tt = static_cast<std::uint16_t>(t);
      std::uint16_t want = 0;
      for (int m = 0; m < 16; ++m) {
        int sm = 0;
        for (int k = 0; k < size; ++k)
          sm |= ((m >> pos[static_cast<std::size_t>(k)]) & 1) << k;
        want |= static_cast<std::uint16_t>(((tt >> sm) & 1) << m);
      }
      ASSERT_EQ(npn::stretch(tt, pos, size), want)
          << "tt " << t << " subset " << subset;
    }
  }
}

// ---------------------------------------------------------------------------
// Rewriter: exhaustive differential sweeps against the source graph.
// ---------------------------------------------------------------------------

/// A random AIG built from and/or/xor/mux over randomly complemented
/// literals (same shape as the fraig tests in aig_test.cpp).
std::vector<Lit> buildRandomAig(Aig& g, std::mt19937_64& rng,
                                unsigned numInputs, unsigned numOps,
                                unsigned numRoots) {
  std::vector<Lit> pool = {kFalse, kTrue};
  for (unsigned i = 0; i < numInputs; ++i)
    pool.push_back(g.makeInput("i" + std::to_string(i)));
  auto pick = [&] {
    Lit l = pool[rng() % pool.size()];
    return (rng() & 1) ? negate(l) : l;
  };
  for (unsigned i = 0; i < numOps; ++i) {
    const Lit a = pick();
    const Lit b = pick();
    switch (rng() % 4) {
      case 0: pool.push_back(g.makeAnd(a, b)); break;
      case 1: pool.push_back(g.makeOr(a, b)); break;
      case 2: pool.push_back(g.makeXor(a, b)); break;
      default: pool.push_back(g.makeMux(a, b, pick())); break;
    }
  }
  std::vector<Lit> roots;
  for (unsigned i = 0; i < numRoots; ++i) roots.push_back(pick());
  return roots;
}

std::vector<bool> evalUnderBits(const Aig& g, std::uint64_t bits) {
  std::unordered_map<std::uint32_t, bool> inputVals;
  std::size_t i = 0;
  for (const std::uint32_t in : g.inputs()) inputVals[in] = (bits >> i++) & 1;
  return g.evaluate(inputVals);
}

void expectSemanticsPreservedExhaustively(const Aig& src,
                                          const std::vector<Lit>& roots,
                                          const Aig& out,
                                          const Rewriter::Result& res,
                                          unsigned numInputs,
                                          const char* what) {
  ASSERT_EQ(res.roots.size(), roots.size());
  for (std::uint64_t bits = 0; bits < (1ULL << numInputs); ++bits) {
    const auto srcVals = evalUnderBits(src, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      ASSERT_EQ(Aig::litValue(srcVals, roots[r]),
                Aig::litValue(outVals, res.roots[r]))
          << what << " root " << r << " bits " << bits;
    }
  }
}

TEST(Rewrite, RandomAigsPreserveSemanticsExhaustively) {
  std::mt19937_64 rng(0x4e3317e);
  for (int iter = 0; iter < 30; ++iter) {
    Aig g;
    const unsigned numInputs = 3 + rng() % 6;  // <= 8: exhaustive is cheap
    const auto roots = buildRandomAig(g, rng, numInputs, 15 + rng() % 60, 4);
    Aig out;
    const auto res = Rewriter().run(g, roots, out);
    expectSemanticsPreservedExhaustively(g, roots, out, res, numInputs,
                                         "default");
    // The non-regression guard means enabling the pass never costs nodes.
    EXPECT_LE(res.stats.nodesAfter, res.stats.nodesBefore) << "iter " << iter;
  }
}

TEST(Rewrite, TogglesPreserveSemanticsExhaustively) {
  std::mt19937_64 rng(0x70661e5);
  for (int iter = 0; iter < 12; ++iter) {
    Aig g;
    const unsigned numInputs = 3 + rng() % 5;
    const auto roots = buildRandomAig(g, rng, numInputs, 20 + rng() % 50, 3);
    for (int mode = 0; mode < 3; ++mode) {
      RewriteOptions options;
      options.balance = mode != 1;
      options.cuts = mode != 2;
      Aig out;
      const auto res = Rewriter(options).run(g, roots, out);
      expectSemanticsPreservedExhaustively(g, roots, out, res, numInputs,
                                           "toggled");
    }
  }
}

TEST(Rewrite, DeterministicAcrossRuns) {
  std::mt19937_64 rng(0xd373);
  Aig g;
  const auto roots = buildRandomAig(g, rng, 8, 120, 4);
  Aig out1, out2;
  const auto a = Rewriter().run(g, roots, out1);
  const auto b = Rewriter().run(g, roots, out2);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.nodeMap, b.nodeMap);
  EXPECT_EQ(out1.numNodes(), out2.numNodes());
  EXPECT_EQ(a.stats.rewritesApplied, b.stats.rewritesApplied);
  EXPECT_EQ(a.stats.cutsEnumerated, b.stats.cutsEnumerated);
}

TEST(Rewrite, MapsAllInputsAndRootsLikeFraig) {
  std::mt19937_64 rng(0x1a9);
  Aig g;
  const auto roots = buildRandomAig(g, rng, 6, 50, 3);
  // An input outside every root cone must still be mapped (miter binding
  // iterates all inputs of the source graph).
  const Lit spare = g.makeInput("spare");
  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  EXPECT_EQ(out.numInputs(), g.numInputs());
  for (const std::uint32_t in : g.inputs()) {
    ASSERT_TRUE(res.isMapped(Lit(in << 1)));
    const Lit mapped = res.map(Lit(in << 1));
    EXPECT_TRUE(out.isInputNode(nodeOf(mapped)));
    EXPECT_EQ(out.inputNameOr(nodeOf(mapped), "?"),
              g.inputNameOr(in, "!"));
  }
  EXPECT_TRUE(res.isMapped(spare));
  for (const Lit r : roots) EXPECT_TRUE(res.isMapped(r));
  // Constants always map.
  EXPECT_EQ(res.map(kFalse), kFalse);
  EXPECT_EQ(res.map(kTrue), kTrue);
}

TEST(Rewrite, CompactsRedundantStructure) {
  // A chain of re-associated duplicated conjunctions: balancing + cut
  // rewriting must see through the redundancy.  (x&a)&(b&(x&c)) over
  // shared x collapses below the naive node count.
  Aig g;
  const Lit a = g.makeInput("a");
  const Lit b = g.makeInput("b");
  const Lit c = g.makeInput("c");
  const Lit x = g.makeInput("x");
  Lit acc = kTrue;
  acc = g.makeAnd(acc, g.makeAnd(x, a));
  acc = g.makeAnd(acc, g.makeAnd(b, g.makeAnd(x, c)));
  acc = g.makeAnd(acc, g.makeAnd(a, g.makeAnd(x, b)));
  Aig out;
  const auto res = Rewriter().run(g, {acc}, out);
  EXPECT_LT(res.stats.nodesAfter, res.stats.nodesBefore);
  expectSemanticsPreservedExhaustively(g, {acc}, out, res, 4, "redundant");
}

TEST(Rewrite, XorMuxShapesHitTheTable) {
  // XOR/MUX trees are where the NPN table shines; verify semantics and
  // that cut rewriting actually fires.
  std::mt19937_64 rng(0x3035);
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(g.makeInput("i" + std::to_string(i)));
  Lit parity = kFalse;
  for (const Lit l : ins) parity = g.makeXor(parity, l);
  Lit muxed = ins[0];
  for (int i = 1; i + 1 < 8; i += 2) muxed = g.makeMux(ins[i], muxed, ins[i + 1]);
  const std::vector<Lit> roots = {parity, muxed, g.makeAnd(parity, muxed)};
  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  EXPECT_GT(res.stats.cutsEnumerated, 0u);
  expectSemanticsPreservedExhaustively(g, roots, out, res, 8, "xor-mux");
}

// ---------------------------------------------------------------------------
// Differential sweep against the IR interpreter, through the bit blaster —
// the configuration the SEC miter path actually runs.
// ---------------------------------------------------------------------------

class RewriteBlastProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RewriteBlastProperty, BlastedOpsMatchInterpreterAfterRewrite) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0x4e11 + w);
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", w);
  ir::NodeRef b = ctx.input("b", w);
  ir::NodeRef s = ctx.input("s", 1);

  std::vector<ir::NodeRef> exprs = {
      ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.neg(a),
      ctx.udiv(a, b), ctx.urem(a, b),
      ctx.bitAnd(a, b), ctx.bitOr(a, b), ctx.bitXor(a, b),
      ctx.shl(a, b), ctx.lshr(a, b),
      ctx.zext(ctx.eq(a, b), w), ctx.zext(ctx.ult(a, b), w),
      ctx.zext(ctx.sle(a, b), w),
      ctx.mux(s, a, b),
      ctx.add(ctx.mul(a, b), ctx.bitXor(a, b)),
  };

  Aig g;
  BitBlaster blaster(g);
  const Word wa = blaster.freshWord(w, "a");
  const Word wb = blaster.freshWord(w, "b");
  const Word ws = blaster.freshWord(1, "s");
  blaster.bindScalar(a, wa);
  blaster.bindScalar(b, wb);
  blaster.bindScalar(s, ws);

  std::vector<Lit> roots;
  std::vector<std::size_t> exprOf, bitOf;
  std::vector<Word> blasted;
  for (std::size_t e = 0; e < exprs.size(); ++e) {
    blasted.push_back(blaster.blast(exprs[e]));
    for (std::size_t i = 0; i < blasted.back().size(); ++i) {
      roots.push_back(blasted.back()[i]);
      exprOf.push_back(e);
      bitOf.push_back(i);
    }
  }

  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  ASSERT_EQ(res.roots.size(), roots.size());

  for (int iter = 0; iter < 40; ++iter) {
    BitVector va(w), vb(w);
    for (unsigned i = 0; i < w; ++i) {
      va.setBit(i, rng() & 1);
      vb.setBit(i, rng() & 1);
    }
    if (iter % 7 == 0) va = BitVector::allOnes(w);
    if (iter % 11 == 0) vb = BitVector(w);
    const bool vs = rng() & 1;

    std::unordered_map<std::uint32_t, bool> inputVals;
    for (unsigned i = 0; i < w; ++i) {
      inputVals[nodeOf(res.map(wa[i]))] = va.bit(i);
      inputVals[nodeOf(res.map(wb[i]))] = vb.bit(i);
    }
    inputVals[nodeOf(res.map(ws[0]))] = vs;
    const auto nodeValues = out.evaluate(inputVals);

    ir::Env env{{a, ir::Value(va)},
                {b, ir::Value(vb)},
                {s, ir::Value(BitVector::fromUint(1, vs))}};
    ir::Evaluator ev(env);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      const BitVector expected = ev.eval(exprs[exprOf[r]]).scalar;
      ASSERT_EQ(Aig::litValue(nodeValues, res.roots[r]),
                expected.bit(static_cast<unsigned>(bitOf[r])))
          << "expr " << exprOf[r] << " bit " << bitOf[r] << " width " << w
          << " a=" << va << " b=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RewriteBlastProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Rewrite, ShrinksBlastedArithmetic) {
  // The acceptance-style check at unit scale: a multiplier+adder cone must
  // lose a measurable fraction of its AND nodes.
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 12);
  ir::NodeRef b = ctx.input("b", 12);
  ir::NodeRef e = ctx.add(ctx.mul(a, b), ctx.bitXor(a, b));
  Aig g;
  BitBlaster blaster(g);
  blaster.bindScalar(a, blaster.freshWord(12, "a"));
  blaster.bindScalar(b, blaster.freshWord(12, "b"));
  const Word word = blaster.blast(e);
  Aig out;
  const auto res =
      Rewriter().run(g, std::vector<Lit>(word.begin(), word.end()), out);
  EXPECT_FALSE(res.stats.fellBackToCopy);
  EXPECT_LT(res.stats.nodesAfter, res.stats.nodesBefore);
  EXPECT_GT(res.stats.rewritesApplied, 0u);
}

// ---------------------------------------------------------------------------
// Counter pins on real SEC miters: the rewriter is a pure function of the
// graph, so its counters on a fixed problem never move unless the
// algorithm is meant to change.  Values recorded before the strash and
// cut-truth-table data structures were replaced.
// ---------------------------------------------------------------------------

struct RewritePin {
  std::size_t nodesBefore, nodesAfter;
  std::uint64_t cutsEnumerated, rewritesApplied;
};

void expectPinnedRewrite(const sec::SecProblem& problem,
                         const RewritePin& pin) {
  sec::SecOptions o;
  o.boundTransactions = 1;
  o.tryInduction = false;
  const sec::SecResult r = sec::checkEquivalence(problem, o);
  EXPECT_EQ(r.verdict, sec::Verdict::kBoundedEquivalent);
  ASSERT_EQ(r.stats.bmcTransactions.size(), 1u);
  const sec::PhaseStats& ph = r.stats.bmcTransactions[0];
  EXPECT_EQ(ph.rewriteNodesBefore, pin.nodesBefore);
  EXPECT_EQ(ph.rewriteNodesAfter, pin.nodesAfter);
  EXPECT_EQ(ph.rewriteCuts, pin.cutsEnumerated);
  EXPECT_EQ(ph.rewriteApplied, pin.rewritesApplied);
}

TEST(RewritePins, GcdBreakIfMiter) {
  ir::Context ctx;
  const auto setup = designs::makeGcdBreakIfSecProblem(ctx);
  expectPinnedRewrite(*setup.problem, {20404, 15064, 525497, 3274});
}

TEST(RewritePins, ConvWindowMiter) {
  ir::Context ctx;
  const auto kernel = designs::ConvKernel::sharpen();
  auto e = slmc::elaborate(designs::makeConvWindowSlm(kernel), ctx, "s.");
  ASSERT_TRUE(e.ok);
  const ir::TransitionSystem rtlTs = rtl::lowerToTransitionSystem(
      designs::makeConvWindowRtl(kernel), ctx, "r.");
  sec::SecProblem problem(ctx, *e.ts, 1, rtlTs, 1);
  for (unsigned i = 0; i < 9; ++i) {
    const std::string p = "p" + std::to_string(i);
    const auto v = problem.declareTxnVar(p, 8);
    problem.bindInput(sec::Side::kSlm, "s." + p, 0, v);
    problem.bindInput(sec::Side::kRtl, "r." + p, 0, v);
  }
  problem.checkOutputs("ret", 0, "pix", 0);
  expectPinnedRewrite(problem, {3550, 3405, 107536, 102});
}

}  // namespace
}  // namespace dfv::aig
