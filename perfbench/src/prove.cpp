// `prove`: every equivalent reference pair at default SecOptions and its
// checked-in bound, run serially through a journaled ResilientRunner.  Deep
// UNSAT proofs: time goes to AIG rewriting, fraiging, SAT and the SEC
// build; rtl, slm and cosim stay idle.  Seed-independent.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>

#include "aig/rewrite.h"
#include "core/journal.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/truncsum.h"
#include "designs/wrapcnt.h"
#include "workload.h"

namespace perfbench {

using namespace dfv;

namespace {

struct Pair {
  const char* name;
  unsigned bound;
  std::function<HeldProblem(ir::Context&)> make;
};

// Bounds are the ones bench_sec_ablation checks in; every verdict is
// proven-equivalent in EXPERIMENTS.md (ABL-SEC, CLM-FP).
const std::vector<Pair>& pairs() {
  static const std::vector<Pair> kPairs = {
      {"fir", designs::kFirTaps + 2,
       [](ir::Context& c) {
         return hold(designs::makeFirSecProblem(c, designs::FirBug::kNone));
       }},
      {"gcd", 1,
       [](ir::Context& c) { return hold(designs::makeGcdSecProblem(c)); }},
      {"gcd_breakif", 1,
       [](ir::Context& c) {
         return hold(designs::makeGcdBreakIfSecProblem(c));
       }},
      {"fpadd_minifloat", 1,
       [](ir::Context& c) {
         return hold(designs::makeFpAddSecProblem(c, fp::Format::minifloat(),
                                                  true));
       }},
      {"fpadd_binary16", 1,
       [](ir::Context& c) {
         return hold(
             designs::makeFpAddSecProblem(c, fp::Format::binary16(), true));
       }},
      {"histo", 6,
       [](ir::Context& c) { return hold(designs::makeHistoSecProblem(c)); }},
      {"wrapcnt", 3,
       [](ir::Context& c) { return hold(designs::makeWrapcntSecProblem(c)); }},
      {"truncsum", 2,
       [](ir::Context& c) {
         return hold(designs::makeTruncsumSecProblem(c, false));
       }},
      {"conv_win", 1,
       [](ir::Context& c) {
         return makeConvWinProblem(
             c, designs::makeConvWindowRtl(designs::ConvKernel::sharpen()));
       }},
  };
  return kPairs;
}

class Prove final : public Workload {
 public:
  explicit Prove(const std::string& outDir)
      : journalBase_(outDir + "/prove-journal-" + std::to_string(::getpid())) {}
  ~Prove() override {
    journal_.reset();
    if (!journaled_) return;
    std::remove((journalBase_ + ".hdr").c_str());
    std::remove((journalBase_ + ".wal").c_str());
  }

  const char* name() const override { return "prove"; }

  void setup() override {
    // One context per pair: pairs reuse input names at different widths.
    problems_.clear();
    for (const Pair& p : pairs()) {
      auto ctx = std::make_unique<ir::Context>();
      HeldProblem h = p.make(*ctx);
      problems_.push_back(Entry{std::move(ctx), std::move(h)});
    }
    // The rewriter's NPN table is built lazily on first use; force it here
    // so no repetition pays for it.
    (void)aig::npn::canonicalize(0x6996);
  }

  void buildPlan(core::ResilientRunner& runner) override {
    results_.assign(problems_.size(), {});
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      sec::SecOptions o;
      o.boundTransactions = pairs()[i].bound;
      runner.addSecBlock(pairs()[i].name, i + 1, o,
                         [this, i](const sec::SecOptions& opts) {
                           Scope blk(std::string("block:") + pairs()[i].name,
                                     "bench.callback_s", static_cast<int>(i));
                           sec::SecResult r =
                               tracedCheck(*problems_[i].held.problem, opts);
                           addSecCounts(results_[i].counts, r);
                           results_[i].verdict = r.verdict;
                           return r;
                         });
    }
  }

  void beforeRun(core::ResilientRunner& runner) override {
    journal_.reset();
    journal_ = std::make_unique<core::Journal>(journalBase_, "prove");
    journaled_ = true;
    runner.setJournal(journal_.get());
  }

  void check(const core::PlanReport& report, RepResult& rep) override {
    rep.counts["core.journal_records"] += journal_->appended();
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      const core::BlockResult& b = report.blocks[i];
      ++rep.attempted;
      mergeCounts(rep.counts, results_[i].counts);
      if (b.faulted || b.degraded || b.inconclusive) {
        rep.fail(b.block, "faulted, degraded or inconclusive: " + b.detail,
                 false);
      } else if (results_[i].verdict != sec::Verdict::kProvenEquivalent ||
                 !b.passed) {
        rep.fail(b.block,
                 std::string("expected proven-equivalent, got ") +
                     sec::verdictName(results_[i].verdict),
                 true);
      }
    }
  }

  /// Journal recovery on the last repetition's journal: load, admit every
  /// record, and run the fully resumed plan.
  void extraLayerMetrics(LayerTimes& out, RepResult& rep) override {
    journal_.reset();
    std::vector<double> loads, resumes;
    for (int k = 0; k < 3; ++k) {
      core::ResilientRunner runner("prove");
      buildPlan(runner);
      const double t0 = now();
      const core::JournalLoaded loaded = core::Journal::load(journalBase_);
      const double t1 = now();
      const unsigned admitted = runner.resumePlan(loaded);
      const core::PlanReport report = runner.runAll();
      const double t2 = now();
      loads.push_back(t1 - t0);
      resumes.push_back(t2 - t0);
      if (admitted != problems_.size() || report.resumed != problems_.size())
        rep.fail("resume", "admitted " + std::to_string(admitted) + " of " +
                               std::to_string(problems_.size()),
                 true);
    }
    std::sort(loads.begin(), loads.end());
    std::sort(resumes.begin(), resumes.end());
    out["core.journal_load_s"] = loads[1];
    out["core.resume_s"] = resumes[1];
  }

 private:
  struct Slot {
    sec::Verdict verdict = sec::Verdict::kInconclusive;
    Counts counts;
  };

  struct Entry {
    std::unique_ptr<ir::Context> ctx;  // declared first: outlives `held`
    HeldProblem held;
  };

  std::vector<Entry> problems_;
  std::vector<Slot> results_;
  std::string journalBase_;
  std::unique_ptr<core::Journal> journal_;
  bool journaled_ = false;  ///< this instance owns files at journalBase_
};

}  // namespace

std::unique_ptr<Workload> makeProve(const std::string& outDir) {
  return std::make_unique<Prove>(outDir);
}

}  // namespace perfbench
