// `refute`: a sweep of small not-equivalent problems on ParallelExecutor
// worker threads — the CI mutant-qualification job.  SEC answers SAT and
// extracts counterexamples instead of closing deep UNSAT proofs, and the
// engine allocates from worker-thread arenas.  Every block builds its own
// problem (elaborate + lower) inside the plan.
//
// gcd mutants are left out on purpose: one of them takes 37-44 s and
// another 8 s, which would make one block the whole run.

#include <algorithm>
#include <optional>

#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/truncsum.h"
#include "fp/softfloat.h"
#include "rtl/mutate.h"
#include "rtl/sim.h"
#include "workload.h"
#include "workload/workload.h"

namespace perfbench {

using namespace dfv;

namespace {

/// Simulation vectors per differential.
constexpr unsigned kVectors = 4000;

enum class Kind { kConvWin, kFir, kTruncsum, kFpAdd };

struct Case {
  std::string name;
  Kind kind;
  const rtl::Module* golden = nullptr;  ///< owned by the workload
  rtl::Module mutant;                   ///< unused for kFpAdd
  unsigned bound = 1;
  bool simKills = false;  ///< the known answer's simulation half
};

/// Per-block result slot, written by exactly one worker per repetition.
struct Slot {
  std::optional<sec::SecResult> last;
  std::vector<std::string> rtlInputs;  ///< RTL port per TS input
  unsigned rtlCycles = 1;
  Counts counts;
};

bv::BitVector randomBits(workload::Rng& rng, unsigned width) {
  return bv::BitVector::fromUint(width, rng.next());
}

/// Seeded differential between two netlists with the same ports, driven the
/// way the SEC problem's transaction map drives the RTL.
bool simulationDistinguishes(const Case& c, std::uint64_t seed) {
  workload::Rng rng(seed);
  if (c.kind == Kind::kFpAdd) {
    const fp::Format fmt = fp::Format::binary16();
    for (unsigned i = 0; i < kVectors; ++i) {
      const std::uint64_t a = rng.below(1ull << fmt.width());
      const std::uint64_t b = rng.below(1ull << fmt.width());
      const auto ieee = fp::SoftFloat(fmt, a) + fp::SoftFloat(fmt, b);
      if (ieee.bits() != fp::hwAdd(fmt, a, b)) return true;
    }
    return false;
  }
  rtl::Simulator g(*c.golden), m(c.mutant);
  g.reset();
  m.reset();
  auto both = [&](const std::string& port, const bv::BitVector& v) {
    g.setInput(port, v);
    m.setInput(port, v);
  };
  auto differs = [&](const char* port) {
    return g.outputValue(port) != m.outputValue(port);
  };
  for (unsigned i = 0; i < kVectors; ++i) {
    switch (c.kind) {
      case Kind::kConvWin:
        for (unsigned p = 0; p < 9; ++p)
          both("p" + std::to_string(p), randomBits(rng, 8));
        break;
      case Kind::kFir:
        both("in_data", randomBits(rng, 8));
        both("in_valid", bv::BitVector::fromUint(1, 1));
        break;
      case Kind::kTruncsum:
        both("sample", randomBits(rng, 8));
        both("start", bv::BitVector::fromUint(
                          1, i % designs::kTruncsumSamples == 0 ? 1 : 0));
        break;
      case Kind::kFpAdd:
        break;
    }
    g.evalCombinational();
    m.evalCombinational();
    const bool hit =
        c.kind == Kind::kConvWin ? differs("pix")
        : c.kind == Kind::kFir   ? differs("out_data") || differs("out_valid")
        : i % designs::kTruncsumSamples == designs::kTruncsumSamples - 1 &&
              differs("sum");
    if (hit) return true;
    g.clockEdge();
    m.clockEdge();
  }
  return false;
}

/// Replays a counterexample's RTL stimulus on the golden and mutant
/// netlists; true when the checked output differs at the failing sample.
bool replayDiverges(const Case& c, const Slot& s) {
  const sec::Counterexample& cex = *s.last->cex;
  if (c.kind == Kind::kFpAdd) {
    const fp::Format fmt = fp::Format::binary16();
    const auto& vars = cex.txnVarValues.at(cex.failingTransaction);
    const std::uint64_t a = vars.at(0).toUint64();
    const std::uint64_t b = vars.at(1).toUint64();
    return (fp::SoftFloat(fmt, a) + fp::SoftFloat(fmt, b)).bits() !=
           fp::hwAdd(fmt, a, b);
  }
  rtl::Simulator g(*c.golden), m(c.mutant);
  g.reset();
  m.reset();
  for (unsigned t = 0; t <= cex.failingTransaction; ++t) {
    for (unsigned cyc = 0; cyc < s.rtlCycles; ++cyc) {
      const auto& values = cex.rtlInputs.at(t).at(cyc);
      for (std::size_t k = 0; k < s.rtlInputs.size(); ++k) {
        g.setInput(s.rtlInputs[k], values.at(k).scalar);
        m.setInput(s.rtlInputs[k], values.at(k).scalar);
      }
      g.evalCombinational();
      m.evalCombinational();
      if (t == cex.failingTransaction && cyc == cex.check.rtlCycle)
        return g.outputValue(cex.check.rtlOutput) !=
               m.outputValue(cex.check.rtlOutput);
      g.clockEdge();
      m.clockEdge();
    }
  }
  return false;
}

class Refute final : public Workload {
 public:
  Refute(std::uint64_t seed, unsigned workers)
      : seed_(seed), workers_(workers) {}

  const char* name() const override { return "refute"; }
  unsigned workers() const override { return workers_; }

  void setup() override {
    cases_.clear();
    const auto kernel = designs::ConvKernel::sharpen();
    convGolden_ = designs::makeConvWindowRtl(kernel);
    firGolden_ = designs::makeFirRtl(designs::FirBug::kNone);
    truncsumGolden_ = designs::makeTruncsumRtl(false);

    // Every conv_win mutant, in a seeded order (Fisher-Yates).  A seeded
    // subset would change the slowest blocks, and with them block_tail_s,
    // from seed to seed.
    std::vector<Case> conv;
    addMutants(convGolden_, "conv_win", Kind::kConvWin, 1, conv);
    workload::Rng rng(seed_ ^ 0xc0417);
    for (std::size_t i = conv.size(); i > 1; --i)
      std::swap(conv[i - 1], conv[rng.below(i)]);
    for (Case& c : conv) cases_.push_back(std::move(c));

    addMutants(firGolden_, "fir", Kind::kFir, designs::kFirTaps + 2, cases_);
    for (auto [bug, tag] :
         {std::pair{designs::FirBug::kNarrowAccumulator, "narrow_acc"},
          std::pair{designs::FirBug::kWrongCoefficient, "wrong_coeff"},
          std::pair{designs::FirBug::kDroppedTap, "dropped_tap"}})
      cases_.push_back(Case{std::string("firbug_") + tag, Kind::kFir,
                            &firGolden_, designs::makeFirRtl(bug),
                            designs::kFirTaps + 2});
    cases_.push_back(Case{"truncsum_narrow", Kind::kTruncsum,
                          &truncsumGolden_, designs::makeTruncsumRtl(true), 2});
    cases_.push_back(Case{"fpadd_binary16_unconstrained", Kind::kFpAdd,
                          nullptr, rtl::Module("none"), 1});
  }

  void prepareOracle() override {
    for (std::size_t i = 0; i < cases_.size(); ++i)
      cases_[i].simKills = simulationDistinguishes(cases_[i], seed_ + i);
  }

  void buildPlan(core::ResilientRunner& runner) override {
    slots_.assign(cases_.size(), {});
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      sec::SecOptions o;
      o.boundTransactions = cases_[i].bound;
      runner.addSecBlock(cases_[i].name, i + 1, o,
                         [this, i](const sec::SecOptions& opts) {
                           return runBlock(i, opts);
                         });
    }
  }

  void check(const core::PlanReport& report, RepResult& rep) override {
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      const core::BlockResult& b = report.blocks[i];
      const Slot& s = slots_[i];
      ++rep.attempted;
      mergeCounts(rep.counts, s.counts);
      if (b.faulted || b.degraded || !s.last) {
        rep.fail(c.name, "faulted or degraded: " + b.detail, false);
        continue;
      }
      const sec::Verdict v = s.last->verdict;
      if (v == sec::Verdict::kNotEquivalent) {
        if (!s.last->cex || !replayDiverges(c, s))
          rep.fail(c.name, "counterexample does not replay on the netlists",
                   true);
      } else if (c.simKills) {
        rep.fail(c.name,
                 std::string("simulation distinguishes, SEC says ") +
                     sec::verdictName(v),
                 true);
      } else if (v != sec::Verdict::kProvenEquivalent) {
        rep.fail(c.name, std::string("no verdict: ") + sec::verdictName(v),
                 false);
      }
    }
  }

 private:
  void addMutants(const rtl::Module& golden, const std::string& prefix,
                  Kind kind, unsigned bound, std::vector<Case>& out) {
    for (std::size_t idx = 0;; ++idx) {
      std::optional<rtl::Mutation> m;
      {
        Scope s("rtl::mutate", "rtl.mutate_s");
        m = rtl::mutate(golden, idx);
      }
      if (!m) break;
      out.push_back(Case{prefix + "_m" + std::to_string(idx), kind, &golden,
                         std::move(m->module), bound});
    }
  }

  sec::SecResult runBlock(std::size_t i, const sec::SecOptions& opts) {
    const Case& c = cases_[i];
    Slot& slot = slots_[i];
    Scope blk("block:" + c.name, "bench.callback_s", static_cast<int>(i));
    ir::Context ctx;
    HeldProblem h;
    switch (c.kind) {
      case Kind::kConvWin:
        h = makeConvWinProblem(ctx, c.mutant);
        break;
      case Kind::kFir: {
        Scope s("designs::makeFirSecProblemFor", "designs.build_s");
        h = hold(designs::makeFirSecProblemFor(ctx, c.mutant));
        break;
      }
      case Kind::kTruncsum: {
        Scope s("designs::makeTruncsumSecProblem", "designs.build_s");
        h = hold(designs::makeTruncsumSecProblem(ctx, true));
        break;
      }
      case Kind::kFpAdd: {
        Scope s("designs::makeFpAddSecProblem", "designs.build_s");
        h = hold(designs::makeFpAddSecProblem(ctx, fp::Format::binary16(),
                                              false));
        break;
      }
    }
    slot.rtlInputs.clear();
    for (ir::NodeRef in : h.problem->side(sec::Side::kRtl).inputs()) {
      const std::string& n = in->name();
      slot.rtlInputs.push_back(n.substr(n.find('.') + 1));
    }
    slot.rtlCycles = h.problem->cycles(sec::Side::kRtl);
    sec::SecResult r = tracedCheck(*h.problem, opts);
    addSecCounts(slot.counts, r);
    slot.last = r;
    return r;
  }

  std::uint64_t seed_;
  unsigned workers_;
  rtl::Module convGolden_{"conv"};
  rtl::Module firGolden_{"fir"};
  rtl::Module truncsumGolden_{"truncsum"};
  std::vector<Case> cases_;
  std::vector<Slot> slots_;
};

}  // namespace

std::unique_ptr<Workload> makeRefute(std::uint64_t seed, unsigned workers) {
  return std::make_unique<Refute>(seed, workers);
}

}  // namespace perfbench
