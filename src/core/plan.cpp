#include "core/plan.h"

#include <cmath>
#include <concepts>
#include <cstdio>
#include <sstream>
#include <type_traits>
#include <utility>

namespace dfv::core {

using common::JsonValue;
using common::jsonEscape;

bool isResumableVerdict(const BlockResult& r) {
  // The extra conjuncts beyond "passed and clean" are belt-and-braces for
  // journal records, which are untrusted bytes: a crafted record could set
  // passed alongside a contradictory flag, and it must still be rejected.
  return r.passed && !r.degraded && !r.faulted && !r.inconclusive &&
         !r.blockedByDrc && !r.skippedUnchanged;
}

namespace {

// The field lists: the one place a field gets its JSON key.  FieldWriter
// (X const) and FieldReader both run over them.
template <class X, class F>
void attemptFields(X& a, F&& f) {
  f("rung", a.rung);
  f("max_conflicts", a.maxConflicts);
  f("max_propagations", a.maxPropagations);
  f("outcome", a.outcome);
  f("faulted", a.faulted);
  f("seconds", a.seconds);
  f("member", a.member);
  f("member_name", a.memberName);
  f("winner", a.winner);
  f("cancelled", a.cancelled);
  f("sat_conflicts", a.satConflicts);
  f("sat_decisions", a.satDecisions);
  f("sat_propagations", a.satPropagations);
  f("sat_learnts", a.satLearnts);
  f("sat_subsumed", a.satSubsumed);
  f("sat_vivified", a.satVivified);
  f("sat_eliminated_vars", a.satEliminatedVars);
  f("rewrite_saved_nodes", a.rewriteSavedNodes);
  f("inv_candidates", a.invCandidates);
  f("inv_certified", a.invCertified);
  f("aig_nodes", a.aigNodes);
}

template <class X, class F>
void blockFields(X& b, F&& f) {
  f("name", b.block);
  f("method", b.method);
  f("passed", b.passed);
  f("skipped_unchanged", b.skippedUnchanged);
  f("blocked_by_drc", b.blockedByDrc);
  f("inconclusive", b.inconclusive);
  f("faulted", b.faulted);
  f("degraded", b.degraded);
  f("seconds", b.seconds);
  f("attempts", b.attempts);
  f("fault_injections", b.faultInjections);
  f("slice_states_severed", b.sliceStatesSevered);
  f("slice_seq_constants", b.sliceSeqConstants);
  f("inv_certified", b.invCertified);
  f("detail", b.detail);
  f("portfolio_winner", b.portfolioWinner);
  f("portfolio_winner_name", b.portfolioWinnerName);
  f("attempt_log", b.attemptLog);
}

/// Appends the `"key":value` members of one JSON object to `out`.
struct FieldWriter {
  std::string& out;  ///< the object is open: its '{' is already written

  template <class T>
  void operator()(const char* k, const T& v) {
    out += out.back() == '{' ? "\"" : ",\"";
    out += k;
    out += "\":";
    put(v);
  }
  void put(bool v) { out += v ? "true" : "false"; }
  void put(std::integral auto v) { out += std::to_string(v); }
  /// 17 significant digits round-trip a double exactly: a resumed report's
  /// `seconds` are bit-identical to the recorded run's.
  void put(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += buf;
  }
  void put(const std::string& v) { out += '"' + jsonEscape(v) + '"'; }
  void put(Method m) { out += m == Method::kSec ? "\"sec\"" : "\"cosim\""; }
  void put(const std::vector<AttemptRecord>& log) {
    out += '[';
    for (std::size_t i = 0; i < log.size(); ++i) {
      out += i > 0 ? ",{" : "{";
      attemptFields(log[i], FieldWriter{out});
      out += '}';
    }
    out += ']';
  }
};

/// Reads every listed member; a missing key or wrong kind throws CheckError.
struct FieldReader {
  const JsonValue& obj;

  void operator()(const char* k, bool& x) { x = obj.at(k).asBool(); }
  /// Narrowing is checked: a value that does not fit its field is a damaged
  /// record, never a silently truncated one.
  template <std::integral T>
  void operator()(const char* k, T& x) {
    const JsonValue& v = obj.at(k);
    const auto n = [&] {
      if constexpr (std::is_signed_v<T>) return v.asInt64();
      else return v.asUint64();
    }();
    DFV_CHECK_MSG(std::in_range<T>(n), "'" << k << "' out of range");
    x = static_cast<T>(n);
  }
  void operator()(const char* k, double& x) { x = obj.at(k).asDouble(); }
  void operator()(const char* k, std::string& x) { x = obj.at(k).asString(); }
  void operator()(const char* k, Method& x) {
    const std::string& m = obj.at(k).asString();
    DFV_CHECK_MSG(m == "sec" || m == "cosim", "bad method '" << m << "'");
    x = m == "sec" ? Method::kSec : Method::kCosim;
  }
  void operator()(const char* k, std::vector<AttemptRecord>& log) {
    for (const JsonValue& item : obj.at(k).items())
      attemptFields(log.emplace_back(), FieldReader{item});
  }
};

}  // namespace

std::string blockResultJson(const BlockResult& b) {
  std::string out = "{";
  FieldWriter w{out};
  blockFields(b, w);
  w("resumed", b.resumed);  // provenance: written, never read back
  return out + '}';
}

BlockResult blockResultFromJson(const JsonValue& v) {
  BlockResult b;
  blockFields(b, FieldReader{v});
  return b;
}

std::vector<std::string> PlanReport::failingBlocks() const {
  std::vector<std::string> out;
  for (const auto& b : blocks)
    if (!b.passed && !b.inconclusive && !b.skippedUnchanged)
      out.push_back(b.block);
  return out;
}

std::string PlanReport::summary() const {
  std::ostringstream os;
  os << verified << " verified, " << skipped << " skipped, " << failed
     << " failed";
  if (inconclusive > 0) os << ", " << inconclusive << " inconclusive";
  os << " in " << totalSeconds << "s";
  if (blocked > 0) os << " (" << blocked << " blocked by DRC)";
  if (faulted > 0) os << " (" << faulted << " faulted)";
  if (degraded > 0) os << " (" << degraded << " degraded to cosim)";
  return os.str();
}

std::string PlanReport::json(const std::string& planName) const {
  std::ostringstream os;
  os << "{\"plan\":\"" << jsonEscape(planName) << "\",";
  os << "\"summary\":{\"verified\":" << verified
     << ",\"skipped\":" << skipped << ",\"failed\":" << failed
     << ",\"inconclusive\":" << inconclusive
     << ",\"blocked\":" << blocked
     << ",\"faulted\":" << faulted
     << ",\"degraded\":" << degraded
     << ",\"resumed\":" << resumed
     << ",\"workers\":" << workers
     << ",\"total_seconds\":" << totalSeconds
     << ",\"all_passed\":" << (allPassed() ? "true" : "false") << "},";
  os << "\"blocks\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockResult& b = blocks[i];
    if (i > 0) os << ',';
    const char* status = b.skippedUnchanged ? "skipped"
                         : b.blockedByDrc   ? "blocked"
                         : b.faulted        ? "faulted"
                         : b.inconclusive   ? "inconclusive"
                         : b.passed         ? "pass"
                                            : "fail";
    std::string obj = blockResultJson(b);
    obj.pop_back();  // reopen the codec's object for the report-only keys
    os << obj << ",\"status\":\"" << status << '"';
    if (b.drc.has_value()) os << ",\"drc\":" << b.drc->toJson();
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace dfv::core
