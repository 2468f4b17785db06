// In-memory span recording, JSON emission and the shared measurement types
// of perfbench.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions (and the block callbacks it registers with the
// plan runner); nothing inside src/ is instrumented.  The SEC engine's own
// stage timers (SecStats) are attached after the fact as synthetic child
// spans of the `sec` span that produced them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process-wide trace epoch.
double now();

/// JSON string literal for `s`.  Escapes `"`, `\`, every control byte, DEL
/// and every byte >= 0x80 (as \u00XX), so the output is valid JSON whatever
/// bytes `s` holds.
std::string jsonQuote(std::string_view s);

/// JSON number with every significant digit of `v` (non-finite -> 0).
std::string jsonNumber(double v);

/// One recorded interval.
struct Span {
  std::string name;    ///< the public function (or block) it wraps
  std::string metric;  ///< per-layer self-time metric it feeds
  double start = 0.0;
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int block = -1;      ///< plan block id, -1 outside blocks
  unsigned thread = 0;
  bool synthetic = false;  ///< placed from engine timers, not clocked here
  double dur() const { return end - start; }
};

/// Thread-safe span store.  While disabled, scopes cost one branch.
class Tracer {
 public:
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span on the calling thread (parent = innermost open span of
  /// this thread, or `parentOverride` when >= 0).  Returns -1 when disabled.
  int begin(std::string_view name, std::string_view metric, int block = -1,
            int parentOverride = -1);
  void end(int id);
  /// Records a finished synthetic child of `parent`.
  void addSynthetic(std::string_view name, std::string_view metric,
                    double start, double end, int parent);

  std::size_t size() const;
  Span get(int id) const;
  std::vector<Span> snapshot() const;

 private:
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
  std::atomic<bool> enabled_{false};
};

Tracer& tracer();

/// RAII span.  `block` >= 0 marks a plan block callback: its parent is the
/// current plan span whatever thread runs it, and nested scopes inherit it.
class Scope {
 public:
  Scope(std::string_view name, std::string_view metric, int block = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  int id_ = -1;
  int savedBlock_ = -1;
};

/// Makes `id` the parent of every block span until reset to -1.
void setPlanSpan(int id);

/// Deterministic counters of one repetition, by metric name.
using Counts = std::map<std::string, std::uint64_t>;

/// Per-layer times of one traced repetition, by metric name (seconds).
using LayerTimes = std::map<std::string, double>;

/// Sums span self time (duration minus the part covered by child spans) and
/// busy time per metric over spans [first, last).  Returns false, with a
/// message in `error`, when a span's children cover more than the span.
bool selfTimes(const std::vector<Span>& spans, std::size_t first,
               std::size_t last, LayerTimes& self, std::string& error);

/// Writes `spans` as Chrome trace-event JSON (opens offline in Perfetto).
std::string chromeTraceJson(const std::vector<Span>& spans,
                            const std::string& workload, std::uint64_t seed);

/// Round-trips a document through common::parseJson; false on any error.
bool parsesAsJson(const std::string& text, std::string& error);

/// Smoke check of jsonQuote: every byte value must survive a parse.
bool escaperSelfCheck(std::string& error);

}  // namespace perfbench
