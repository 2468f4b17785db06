#include "workload.h"

#include "designs/conv.h"
#include "rtl/lower.h"
#include "slmc/elaborate.h"

namespace perfbench {

using namespace dfv;

void RepResult::fail(const std::string& block, const std::string& why,
                     bool isWrong) {
  ++failed;
  if (isWrong) ++wrong;
  notes.push_back(block + ": " + why);
}

HeldProblem makeConvWinProblem(ir::Context& ctx,
                               const rtl::Module& rtlWindow) {
  HeldProblem h;
  {
    Scope s("slmc::elaborate", "slmc.elaborate_s");
    auto e = slmc::elaborate(
        designs::makeConvWindowSlm(designs::ConvKernel::sharpen()), ctx, "s.");
    DFV_CHECK(e.ok);
    h.slm = std::move(e.ts);
  }
  {
    Scope s("rtl::lowerToTransitionSystem", "rtl.lower_s");
    h.rtl = std::make_unique<ir::TransitionSystem>(
        rtl::lowerToTransitionSystem(rtlWindow, ctx, "r."));
  }
  h.problem = std::make_unique<sec::SecProblem>(ctx, *h.slm, 1, *h.rtl, 1);
  for (unsigned i = 0; i < 9; ++i) {
    const std::string p = "p" + std::to_string(i);
    auto v = h.problem->declareTxnVar(p, 8);
    h.problem->bindInput(sec::Side::kSlm, "s." + p, 0, v);
    h.problem->bindInput(sec::Side::kRtl, "r." + p, 0, v);
  }
  h.problem->checkOutputs("ret", 0, "pix", 0);
  return h;
}

namespace {

/// Lays the engine's stage timers out as consecutive children of the `sec`
/// span, in the order the engine runs them.  Only durations are measured;
/// the placement inside the span is nominal.
void attachStages(int secSpan, const sec::SecStats& st) {
  double t = tracer().get(secSpan).start;
  auto add = [&](const char* name, const char* metric, double secs) {
    if (secs <= 0.0) return;
    tracer().addSynthetic(name, metric, t, t + secs, secSpan);
    t += secs;
  };
  add("slice::sliceTransitionSystem", "slice.busy_s", st.slice.seconds);
  add("inv::mineAndCertify", "inv.busy_s", st.inv.certSeconds);
  add("absint::analyzeAndSimplify", "absint.busy_s", st.absint.seconds);
  auto phase = [&](const sec::PhaseStats& p) {
    add("aig::Rewriter::run", "aig.rewrite_s", p.rewriteTimeMs / 1e3);
    add("aig::Fraig::run", "aig.fraig_s", p.fraigTimeMs / 1e3);
    add("sat::Solver::solve", "sat.solve_s", p.seconds);
  };
  for (const sec::PhaseStats& p : st.bmcTransactions) phase(p);
  phase(st.induction);
}

}  // namespace

sec::SecResult tracedCheck(const sec::SecProblem& problem,
                           const sec::SecOptions& options) {
  Scope s("sec::checkEquivalence", "sec.build_s");
  sec::SecResult r = sec::checkEquivalence(problem, options);
  if (s.id() >= 0) attachStages(s.id(), r.stats);
  return r;
}

void addSecCounts(Counts& c, const sec::SecResult& r) {
  const sec::SecStats& st = r.stats;
  c["sec.calls"] += 1;
  switch (r.verdict) {
    case sec::Verdict::kProvenEquivalent: c["sec.proven"] += 1; break;
    case sec::Verdict::kBoundedEquivalent: c["sec.bounded"] += 1; break;
    case sec::Verdict::kNotEquivalent: c["sec.not_equivalent"] += 1; break;
    case sec::Verdict::kInconclusive: c["sec.inconclusive"] += 1; break;
  }
  for (const sec::SliceSideStats* side : {&st.slice.slm, &st.slice.rtl})
    c["slice.nodes_removed"] += side->nodesBefore - side->nodesAfter;
  c["absint.nodes_folded"] += st.absint.nodesFolded;
  c["inv.candidates"] += st.inv.candidates;
  c["inv.certified"] += st.inv.certified;
  c["aig.rewrite_applied"] += st.rewriteApplied;
  c["aig.rewrite_saved"] += st.rewriteSavedNodes;
  c["aig.fraig_sat_calls"] += st.fraigSatCalls;
  c["aig.fraig_merged"] += st.fraigMergedNodes;
  c["aig.bmc_nodes"] += st.bmcAigNodes;
  c["aig.induction_nodes"] += st.inductionAigNodes;
  c["sat.conflicts"] += st.satConflicts;
  c["sat.decisions"] += st.satDecisions;
  auto phase = [&](const sec::PhaseStats& p) {
    c["aig.rewrite_nodes_before"] += p.rewriteNodesBefore;
    c["aig.fraig_nodes_before"] += p.fraigNodesBefore;
    c["sat.propagations"] += p.propagations;
    c["sat.learnts"] += p.learntClauses;
  };
  for (const sec::PhaseStats& p : st.bmcTransactions) phase(p);
  phase(st.induction);
}

void mergeCounts(Counts& into, const Counts& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

}  // namespace perfbench
