// The sequential equivalence checking engine.
//
// Reconstructs the formal flow of the paper's §2: a bounded model check over
// k repeated transactions from the reset states (the base verdict), plus a
// one-transaction inductive step over symbolic start states constrained by
// the problem's coupling invariants (the full proof when it succeeds).
//
// Counterexamples are extracted as complete concrete stimulus (transaction
// variables plus every free input, per cycle), replayed against the IR
// interpreter of both sides, and returned with the observed mismatching
// output values — so a SEC failure arrives as a runnable test, the property
// the paper stresses for quickly localizing SLM/RTL divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "absint/analysis.h"
#include "aig/bitblast.h"
#include "aig/cnf.h"
#include "aig/fraig.h"
#include "aig/rewrite.h"
#include "inv/inv.h"
#include "sat/solver.h"
#include "sec/transaction.h"
#include "slice/slice.h"

namespace dfv::sec {

/// Outcome of a SEC run.
enum class Verdict {
  kProvenEquivalent,    ///< BMC clean and inductive step closed
  kBoundedEquivalent,   ///< BMC clean for k transactions; induction failed
  kNotEquivalent,       ///< concrete counterexample found
  kInconclusive,        ///< a resource budget expired before BMC finished
};

const char* verdictName(Verdict v);

/// A concrete distinguishing run.
struct Counterexample {
  /// Transaction index (0-based) at which an output check failed.
  unsigned failingTransaction = 0;
  /// The check that failed.
  OutputCheck check;
  /// Values of each transaction variable, per transaction
  /// ([txn][i] parallel to problem.txnVars()).
  std::vector<std::vector<bv::BitVector>> txnVarValues;
  /// Complete per-cycle stimulus: [txn][cycle][input] parallel to each
  /// side's ts.inputs().
  std::vector<std::vector<std::vector<ir::Value>>> slmInputs;
  std::vector<std::vector<std::vector<ir::Value>>> rtlInputs;
  /// Observed mismatching values (from interpreter replay).
  bv::BitVector slmValue;
  bv::BitVector rtlValue;

  std::string summary() const;
};

/// Telemetry for one solver phase (one BMC transaction, or the inductive
/// step): SAT-statistic deltas attributable to that phase's solve calls,
/// plus their wall-clock time.  Populated whether or not the phase hit its
/// budget, so an interrupted run still reports how far it got.
struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learntClauses = 0;
  std::uint64_t deletedClauses = 0;
  bool budgetExhausted = false;  ///< a solve in this phase returned kUnknown
  /// SAT-sweeping cost/effect for this phase's solves (all zero when
  /// SecOptions::fraig is off).
  std::size_t fraigNodesBefore = 0;  ///< and-nodes in the solved cone
  std::size_t fraigNodesAfter = 0;   ///< and-nodes after merging
  std::size_t fraigMergedNodes = 0;
  std::uint64_t fraigSatCalls = 0;
  double fraigTimeMs = 0.0;
  /// Structural-rewrite cost/effect for this phase's solves (all zero when
  /// SecOptions::rewrite is off).
  std::size_t rewriteNodesBefore = 0;  ///< and-nodes in the solved cone
  std::size_t rewriteNodesAfter = 0;   ///< and-nodes after rewriting
  std::uint64_t rewriteApplied = 0;    ///< NPN-table rewrites committed
  std::uint64_t rewriteCuts = 0;       ///< cuts the rewriter enumerated
  double rewriteTimeMs = 0.0;
  /// Clause-database inprocessing deltas for this phase's solves (all zero
  /// when SecOptions::solver.inprocess is off).
  std::uint64_t subsumedClauses = 0;
  std::uint64_t vivifiedClauses = 0;
  std::uint64_t eliminatedVars = 0;
  std::uint64_t inprocessRounds = 0;
};

/// Cost and effect of the word-level abstract-interpretation preprocessing
/// (SecOptions::absint): both sides are analyzed and rewritten once, before
/// the BMC unrolling is bit-blasted.
struct AbsintStats {
  bool applied = false;            ///< analysis ran (SecOptions::absint on)
  std::uint64_t nodesFolded = 0;   ///< IR nodes replaced by proven constants
  std::uint64_t muxesPruned = 0;   ///< muxes with proven-constant selectors
  std::uint64_t opsNarrowed = 0;   ///< add/sub/mul rewritten at lower width
  std::uint64_t bitsNarrowed = 0;  ///< total width removed by narrowing
  std::uint64_t tsNodesBefore = 0;  ///< IR cone nodes, both sides, before
  std::uint64_t tsNodesAfter = 0;   ///< IR cone nodes, both sides, after
  double seconds = 0.0;             ///< analysis + rewrite wall-clock
};

/// Per-side effect of the structural slicing pass (SecOptions::slice).
struct SliceSideStats {
  std::uint64_t statesSevered = 0;  ///< state vars outside every root cone
  std::uint64_t seqConstants = 0;   ///< latches substituted by reset values
  std::uint64_t nodesBefore = 0;    ///< unique IR cone nodes before
  std::uint64_t nodesAfter = 0;     ///< unique IR cone nodes after
};

/// Cost and effect of the induction-sound structural slicing preprocessing
/// (SecOptions::slice): both sides are sliced once, before anything is
/// unrolled, and — unlike absint — the result also feeds the induction
/// systems.
struct SliceStats {
  bool applied = false;
  SliceSideStats slm{};
  SliceSideStats rtl{};
  double seconds = 0.0;  ///< both sides' analysis + rebuild wall-clock
};

/// Cost and effect of the certified-invariant strengthening pass
/// (SecOptions::invariants): dfv::inv runs once per side on the systems the
/// induction step will use, and the certified predicates join the induction
/// hypothesis (plus free BMC boundary assertions).  Counters aggregate both
/// sides; certification solver cost is kept here, NOT in
/// satConflicts/satDecisions — phase telemetry is unchanged by
/// strengthening.
struct InvStats {
  bool applied = false;  ///< the pass ran (invariants on, induction wanted)
  std::uint64_t candidates = 0;
  std::uint64_t certified = 0;
  std::uint64_t rounds = 0;
  std::uint64_t dropped = 0;
  std::uint64_t certConflicts = 0;
  std::uint64_t certPropagations = 0;
  double certSeconds = 0.0;
  /// Certification exhausted the induction budget pool on some side: that
  /// side contributed no invariants and the induction solve ran under the
  /// drained remainder (so it reports its own budgetExhausted).
  bool budgetExhausted = false;
};

struct SecStats {
  unsigned transactionsChecked = 0;
  std::size_t aigNodes = 0;           ///< total across both graphs
  std::size_t bmcAigNodes = 0;        ///< the BMC unrolling graph
  std::size_t inductionAigNodes = 0;  ///< the induction graph (0 if unused)
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  /// Fraig totals across all phases (see the per-phase fields for splits).
  std::size_t fraigMergedNodes = 0;
  std::uint64_t fraigSatCalls = 0;
  double fraigTimeMs = 0.0;
  /// Rewrite totals across all phases (see the per-phase fields for splits).
  std::size_t rewriteSavedNodes = 0;  ///< sum of (before - after) per solve
  std::uint64_t rewriteApplied = 0;
  double rewriteTimeMs = 0.0;
  /// Inprocessing totals across all phases.
  std::uint64_t satSubsumedClauses = 0;
  std::uint64_t satVivifiedClauses = 0;
  std::uint64_t satEliminatedVars = 0;
  std::uint64_t satInprocessRounds = 0;
  double seconds = 0.0;
  bool inductionAttempted = false;
  bool inductionClosed = false;
  /// One entry per BMC transaction attempted, in order.  Transaction 0 also
  /// accounts for the constraint-vacuity solve.
  std::vector<PhaseStats> bmcTransactions;
  /// The inductive-step solve (zeroed when induction never ran).
  PhaseStats induction{};
  /// Word-level preprocessing telemetry (see SecOptions::absint).
  AbsintStats absint{};
  /// Structural slicing telemetry (see SecOptions::slice).
  SliceStats slice{};
  /// Certified-invariant strengthening telemetry (see
  /// SecOptions::invariants).
  InvStats inv{};
};

struct SecResult {
  Verdict verdict = Verdict::kBoundedEquivalent;
  std::optional<Counterexample> cex;
  SecStats stats;
};

struct SecOptions {
  /// Number of transactions to unroll from reset.
  unsigned boundTransactions = 4;
  /// First transaction depth the BMC phase actually *solves*.  Depths below
  /// it are still unrolled, but their output equalities are asserted as
  /// facts instead of checked — the depth-split contract behind
  /// core::checkBmcParallel, where depth t's task solves only transaction t
  /// and a lower-depth counterexample is the lower-depth task's job.  A
  /// nonzero start is only sound when every depth below it is covered by
  /// another run; standalone callers should leave it 0.  The vacuity check
  /// runs with the first solved transaction.
  unsigned bmcStartTransaction = 0;
  /// Attempt the inductive step to upgrade bounded -> proven.
  bool tryInduction = true;
  /// Per-instance SAT solver heuristics (seed, phase saving, restart
  /// policy, inprocessing).  The portfolio racer (core::buildPortfolio)
  /// diversifies these.  Every Miter solver this run constructs —
  /// incremental or per-solve fraig-mode — uses them.  SEC turns clause-DB
  /// inprocessing on (the raw sat::Solver default is off): vivification,
  /// subsumption and bounded variable elimination never change verdicts,
  /// only the search trajectory, and their work is charged against the
  /// solve's Budget so capped verdicts remain machine-independent.
  sat::SolverOptions solver{.inprocess = true};
  /// Apply equality-shaped coupling invariants structurally (shared
  /// symbolic variables) instead of as CNF constraints.  On by default;
  /// exposed so bench_sec_ablation can quantify the optimization (see
  /// DESIGN.md §7).  Verdicts are identical either way.
  bool structuralAliasing = true;
  /// SAT-sweep (fraig) the miter cone before every BMC and induction solve:
  /// seeded random simulation proposes candidate equivalence classes,
  /// incremental SAT proves or refutes them, and proven-equal nodes are
  /// merged before the solver sees the formula (see aig/fraig.h and
  /// DESIGN.md).  Composes with structuralAliasing: aliasing makes the two
  /// sides share state variables, fraiging then proves and merges the
  /// internal points that became semantically equal.  Only unconditional
  /// equivalences are merged, so verdicts are identical either way.
  bool fraig = true;
  /// Tuning for the fraig pass (seed, stimulus size, per-candidate budget).
  aig::FraigOptions fraigOptions{};
  /// DAG-aware structural rewrite (aig::Rewriter) of the miter cone before
  /// each solve, between bit-blasting and CNF: AND-tree balancing plus
  /// 4-input-cut rewriting against the NPN optimal-structure table.  Like
  /// fraig the pass is unconditional — it never sees the problem
  /// constraints — so it is sound for BMC and induction alike, and it is
  /// deterministic, so verdicts are identical with it on or off (tests and
  /// bench_sec_ablation assert this).  Composes with fraig: rewriting
  /// shrinks the graph the sweep must simulate and prove over, fraig then
  /// merges the semantic equivalences structure alone cannot see.
  bool rewrite = true;
  /// Tuning for the rewrite pass (balancing, cut bound, pass count).
  aig::RewriteOptions rewriteOptions{};
  /// Run the word-level abstract interpretation (dfv::absint) on both sides
  /// and unroll the BMC phase from the simplified systems: nodes proven
  /// constant fold away, muxes with proven selectors lose their dead arm,
  /// and wrap-around arithmetic with proven-zero high bits narrows — all
  /// before the bit-blaster sees the logic.  The rewrites are justified by
  /// reachable-from-reset facts, which is exactly the BMC trace set, so
  /// verdicts and counterexamples are identical with this on or off (tests
  /// and bench_sec_ablation assert this).  The induction step reasons from
  /// symbolic start states where those facts do not hold, so it always uses
  /// the original systems.
  bool absint = true;
  /// Tuning for the analysis fixpoint (widening, refinement budget).
  absint::Options absintOptions{};
  /// Slice both sides (dfv::slice) against the checked outputs, coupling
  /// invariants and constraints before anything is unrolled: state
  /// variables and logic outside every property cone are severed, and
  /// latches the ternary fixpoint proves stuck at their reset value are
  /// substituted by constants.  Both transforms are sound from an
  /// arbitrary start state (slicing is property-preserving; the stuck-at
  /// facts are inductive invariants), so — unlike absint — they apply to
  /// the BMC unrolling AND the induction systems.  This is the only
  /// preprocessing layer allowed to shrink stats.inductionAigNodes;
  /// verdicts are identical on or off (tests and bench_sec_ablation
  /// assert this).
  bool slice = true;
  /// Tuning for the slicing passes (COI severing, constant detection).
  slice::Options sliceOptions{};
  /// Mine candidate invariants from the absint fixpoint and the ternary
  /// greatest fixpoint, certify a simultaneously-inductive subset with
  /// dfv::inv's Houdini loop, and conjoin the certified predicates to the
  /// k-induction hypothesis (they are also asserted at BMC transaction
  /// boundaries as free strengthening).  This is the ONLY channel through
  /// which reachability-shaped facts reach the induction step: soundness
  /// rests on the per-predicate SAT certificate, not on the analyzers.
  /// Certification solves are charged against inductionBudget as a shared
  /// pool — what certification spends, the induction solve no longer has —
  /// so capped runs stay machine-independent.  BMC-only verdicts are
  /// identical on or off (the assertions are entailed facts); induction can
  /// only gain (bounded -> proven), never lose, a verdict.  The mining
  /// analysis is private (invOptions.absintOptions), so certified sets are
  /// independent of the SecOptions::absint toggle.
  bool invariants = true;
  /// Tuning for mining and certification (see inv::Options).
  inv::Options invOptions{};
  /// Resource cap applied to each BMC solve (one per transaction, plus the
  /// constraint-vacuity check).  Default-constructed = unlimited.  When a
  /// BMC solve is cut off the engine stops and returns kInconclusive —
  /// neither equivalence nor a counterexample is known at that depth.
  sat::Budget bmcBudget{};
  /// Resource cap for the inductive-step solve.  When it is cut off the
  /// bounded verdict (which is already sound) stands, and
  /// stats.induction.budgetExhausted records the failed upgrade.
  sat::Budget inductionBudget{};
};

/// Runs the equivalence check.  Throws CheckError on malformed problems
/// (e.g. no output checks) and if a counterexample fails to replay — that
/// would indicate an engine bug, never a model property.  Budget exhaustion
/// is not an error: the run returns Verdict::kInconclusive (or the sound
/// bounded verdict, for an induction-only cutoff) with per-phase stats.
SecResult checkEquivalence(const SecProblem& problem,
                           const SecOptions& options = {});

}  // namespace dfv::sec
