// The workload interface perfbench measures, plus the helpers
// its three plans share (traced SEC calls, SEC counters, problem holders).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/plan.h"
#include "core/resilient.h"
#include "rtl/netlist.h"
#include "sec/engine.h"
#include "trace.h"

namespace perfbench {

/// Outcome of one plan repetition.
struct RepResult {
  double planSeconds = 0.0;
  std::vector<double> blockSeconds;  ///< BlockResult::seconds per block
  Counts counts;
  unsigned attempted = 0;  ///< blocks attempted
  unsigned failed = 0;     ///< wrong, inconclusive, faulted or degraded
  unsigned wrong = 0;      ///< verdicts contradicting the known answer
  std::vector<std::string> notes;  ///< one line per failed block

  void fail(const std::string& block, const std::string& why, bool isWrong);
};

/// One plan the benchmark measures.  main() calls setup() several times
/// (timed), prepareOracle() once (untimed), then repeats
/// buildPlan -> beforeRun -> runAll (timed) -> check.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Worker threads of the plan's executor (1 = serial runner).
  virtual unsigned workers() const { return 1; }
  /// Builds every input of the plan: problems, netlists, mutants,
  /// stimulus, golden outputs.  Replaces what a previous call built.
  virtual void setup() = 0;
  /// Computes the known answers, independently of the code under test.
  virtual void prepareOracle() {}
  /// Registers the plan's blocks on a fresh runner.
  virtual void buildPlan(dfv::core::ResilientRunner& runner) = 0;
  virtual void beforeRun(dfv::core::ResilientRunner&) {}
  /// Checks the finished plan against the known answers and fills the
  /// repetition's counters.
  virtual void check(const dfv::core::PlanReport& report, RepResult& rep) = 0;
  /// Per-layer metrics measured once after the traced repetitions.
  virtual void extraLayerMetrics(LayerTimes&, RepResult&) {}
};

std::unique_ptr<Workload> makeProve(const std::string& outDir);
std::unique_ptr<Workload> makeRefute(std::uint64_t seed, unsigned workers);
std::unique_ptr<Workload> makeCosim(std::uint64_t seed);

/// A SEC problem with the transition systems it refers to.
struct HeldProblem {
  std::unique_ptr<dfv::ir::TransitionSystem> slm;
  std::unique_ptr<dfv::ir::TransitionSystem> rtl;
  std::unique_ptr<dfv::sec::SecProblem> problem;
};

template <typename Setup>
HeldProblem hold(Setup s) {
  return HeldProblem{std::move(s.slm), std::move(s.rtl), std::move(s.problem)};
}

/// The conv window SEC problem: the SLM-C window function (sharpen kernel)
/// against `rtlWindow`, one window per transaction.
HeldProblem makeConvWinProblem(dfv::ir::Context& ctx,
                               const dfv::rtl::Module& rtlWindow);

/// sec::checkEquivalence inside a `sec` span; the engine's stage timers
/// become synthetic child spans.
dfv::sec::SecResult tracedCheck(const dfv::sec::SecProblem& problem,
                                const dfv::sec::SecOptions& options);

/// Adds one SEC run's deterministic counters.
void addSecCounts(Counts& counts, const dfv::sec::SecResult& r);

/// Merges `from` into `into` by addition.
void mergeCounts(Counts& into, const Counts& from);

}  // namespace perfbench
