// The design-for-verification methodology core: verification plans over
// consistently partitioned SLM/RTL block pairs.
//
// §4.1–§4.2 of the paper: keep the SLM and RTL partitioned into
// corresponding blocks with clear ownership, start keeping them consistent
// *early*, and prefer *incremental* SEC runs — "incremental runs of
// sequential equivalence checking between SLM and RTL are much more
// effective in terms of run time and can help localize the source of any
// difference between the models quickly".
//
// A plan (core::ResilientRunner, core/resilient.h) holds one entry per
// block pair, each with a content digest (any stable hash of the pair's
// sources/configuration).  runAll() re-verifies everything;
// runIncremental() skips blocks whose digest is unchanged since their last
// clean run — the run-time contrast between the two is the paper's §4.1
// claim, regenerated by bench_incremental_sec.  This header holds what a
// run reports: one BlockResult per block, one PlanReport per run, the
// predicate that decides which results may be reused, and the one
// BlockResult <-> JSON codec the report and the journal share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "drc/drc.h"
#include "sec/engine.h"

namespace dfv::core {

/// How a block pair is verified.
enum class Method { kSec, kCosim };

/// How pre-verification design-rule checking gates a plan run
/// (ResilientRunner::setDrcPolicy).
enum class DrcPolicy {
  kOff,    ///< DRC runners are not invoked
  kWarn,   ///< DRC runs, diagnostics are attached, blocks always run
  kBlock,  ///< blocks whose DRC reports errors fail without running
  kStrict, ///< like kBlock, but warnings block too (semantic-rule gate)
};

/// One verification attempt on a block — the resilient runner records one
/// per retry-ladder rung (and, under portfolio racing, one per member per
/// rung) so a report shows *how* a verdict was reached.
struct AttemptRecord {
  unsigned rung = 0;                  ///< 0 = base options, 1.. = escalations
  /// Caps in force this attempt: the larger finite one of the BMC/induction
  /// phase budgets (0 = both phases unlimited).
  std::int64_t maxConflicts = 0;
  std::int64_t maxPropagations = 0;
  std::string outcome;                ///< verdict name / "faulted: ..." / ...
  bool faulted = false;
  double seconds = 0.0;
  /// Portfolio racing fields (core::ParallelExecutor): which member this
  /// row describes, whether its verdict was the one taken, and whether it
  /// lost the race (observed the cancel flag).  member -1 = no portfolio.
  int member = -1;
  std::string memberName;
  bool winner = false;
  bool cancelled = false;
  /// Deterministic per-attempt solver telemetry (SecStats deltas of THIS
  /// attempt only — each attempt runs a fresh engine, so these are
  /// disjoint across rungs, never cumulative).  They double as the replay
  /// fingerprint: re-running the winning member single-threaded must
  /// reproduce them bit-for-bit.
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  std::uint64_t satPropagations = 0;
  std::size_t aigNodes = 0;
  /// Clause-DB telemetry: learnt clauses across all phases, plus what the
  /// inter-restart inprocessing passes did to the database (zero with
  /// SolverOptions::inprocess off).
  std::uint64_t satLearnts = 0;
  std::uint64_t satSubsumed = 0;
  std::uint64_t satVivified = 0;
  std::uint64_t satEliminatedVars = 0;
  /// AIG nodes removed from miter cones by DAG-aware rewriting (zero with
  /// SecOptions::rewrite off).
  std::uint64_t rewriteSavedNodes = 0;
  /// Invariant strengthening (SecStats::inv, both sides summed; zero with
  /// SecOptions::invariants off).  A rung that flips invariants on shows
  /// up here as candidates appearing and, on a rescue, certified > 0.
  std::uint64_t invCandidates = 0;
  std::uint64_t invCertified = 0;
};

/// Result of verifying one block.
struct BlockResult {
  std::string block;
  Method method = Method::kSec;
  bool passed = false;
  bool skippedUnchanged = false;  ///< incremental run skipped it
  bool blockedByDrc = false;      ///< DrcPolicy::kBlock stopped the runner
  bool inconclusive = false;      ///< SEC budget expired: no verdict either way
  bool faulted = false;    ///< a runner threw; isolated into this result
  bool degraded = false;   ///< SEC never concluded; fell back to cosim
  unsigned attempts = 1;   ///< verification attempts consumed (retry ladder)
  std::uint64_t faultInjections = 0;  ///< injector firings during this block
  /// Slice telemetry from the last SEC attempt (SecStats::slice, both sides
  /// summed; zero for cosim blocks or with SecOptions::slice off).
  std::uint64_t sliceStatesSevered = 0;
  std::uint64_t sliceSeqConstants = 0;
  /// Certified invariants from the last SEC attempt (SecStats::inv, both
  /// sides; zero for cosim blocks or with SecOptions::invariants off).
  std::uint64_t invCertified = 0;
  double seconds = 0.0;
  std::string detail;  ///< verdict name, mismatch summary, cex summary...
  std::vector<AttemptRecord> attemptLog;  ///< per-attempt telemetry
  /// Portfolio racing: the member whose verdict this block took on its
  /// final rung (-1 when no portfolio ran or every member was cancelled
  /// inconclusive).  Recording the winner is what makes a parallel verdict
  /// replayable: re-run that member's options single-threaded and the
  /// result is bit-identical.
  int portfolioWinner = -1;
  std::string portfolioWinnerName;
  /// This result was replayed from a journal record (core/journal.h), not
  /// computed this run.  Provenance only: every other field is the recorded
  /// run's, bit-for-bit.
  bool resumed = false;
  /// Present when the block has a DRC runner and the policy is not kOff.
  std::optional<drc::DrcReport> drc;
};

/// THE cache/resume admission predicate: may this result be trusted without
/// re-running the block?  Only a clean, full-strength pass qualifies — a
/// degraded pass is weaker evidence, a faulted run is no evidence, and an
/// inconclusive/blocked/skipped row carries no verdict at all.  Both the
/// runner's incremental-skip cache and journal resume (core/journal.h) call
/// exactly this function, so the two policies cannot drift apart
/// (tests/journal_test.cpp pins the equivalence).
bool isResumableVerdict(const BlockResult& r);

/// THE BlockResult <-> JSON codec: the plan report's block objects and the
/// journal's record payloads (core/journal.h) are this one object.  It holds
/// every field plus `resumed`, which is provenance — written, never read
/// back (resumePlan sets it).  `drc` is not part of it (DRC rows never
/// resume).  The reader throws CheckError on a missing key, a wrong kind,
/// or an integer that does not fit its field: records are untrusted bytes.
std::string blockResultJson(const BlockResult& b);
BlockResult blockResultFromJson(const common::JsonValue& v);

/// Report for a whole plan run.
struct PlanReport {
  std::vector<BlockResult> blocks;
  double totalSeconds = 0.0;
  /// Worker threads the run used (1 = serial).  Blocks always appear in
  /// registration order regardless of the schedule.
  unsigned workers = 1;
  unsigned verified = 0;
  unsigned skipped = 0;
  unsigned failed = 0;
  unsigned inconclusive = 0;  ///< ran out of budget; neither pass nor fail
  unsigned blocked = 0;  ///< of the failed, how many were stopped by DRC
  unsigned faulted = 0;  ///< of the failed, how many were runner exceptions
  unsigned degraded = 0;  ///< of the verified, how many fell back to cosim
  unsigned resumed = 0;  ///< of the verified, how many replayed from journal

  /// Inconclusive blocks are not failures, but they are not passes either.
  bool allPassed() const { return failed == 0 && inconclusive == 0; }
  /// Names of failing blocks — §4.1's "localize the source of difference".
  /// Inconclusive blocks are excluded: they carry no known difference.
  std::vector<std::string> failingBlocks() const;
  std::string summary() const;
  /// The report as one JSON object:
  /// {"plan": ..., "summary": {...}, "blocks": [{...}, ...]}.
  std::string json(const std::string& planName) const;
};

}  // namespace dfv::core
