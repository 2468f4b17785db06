#include "trace.h"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

thread_local std::vector<int> tlsStack;
thread_local int tlsBlock = -1;
thread_local unsigned tlsThread = 0;
std::atomic<unsigned> nextThread{0};
std::atomic<int> planSpan{-1};

unsigned threadIndex() {
  if (tlsThread == 0) tlsThread = ++nextThread;
  return tlsThread;
}

}  // namespace

double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::string jsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20 || c >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Tracer::begin(std::string_view name, std::string_view metric, int block,
                  int parentOverride) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.metric = metric;
  s.parent = parentOverride >= 0
                 ? parentOverride
                 : (tlsStack.empty() ? -1 : tlsStack.back());
  s.block = block;
  s.thread = threadIndex();
  s.start = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::addSynthetic(std::string_view name, std::string_view metric,
                          double start, double end, int parent) {
  if (parent < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.metric = metric;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.block = spans_[static_cast<std::size_t>(parent)].block;
  s.thread = spans_[static_cast<std::size_t>(parent)].thread;
  s.synthetic = true;
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Span Tracer::get(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<std::size_t>(id)];
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void setPlanSpan(int id) { planSpan = id; }

Scope::Scope(std::string_view name, std::string_view metric, int block) {
  savedBlock_ = tlsBlock;
  if (block >= 0) tlsBlock = block;
  id_ = tracer().begin(name, metric, tlsBlock,
                       block >= 0 ? planSpan.load() : -1);
  if (id_ >= 0) tlsStack.push_back(id_);
}

Scope::~Scope() {
  if (id_ >= 0) {
    tracer().end(id_);
    tlsStack.pop_back();
  }
  tlsBlock = savedBlock_;
}

bool selfTimes(const std::vector<Span>& spans, std::size_t first,
               std::size_t last, LayerTimes& self, std::string& error) {
  std::vector<double> covered(spans.size(), 0.0);
  for (std::size_t i = first; i < last; ++i)
    if (spans[i].parent >= 0)
      covered[static_cast<std::size_t>(spans[i].parent)] += spans[i].dur();
  // Engine timers and our clock reads differ by a few clock ticks at most.
  constexpr double kSlack = 1e-5;
  for (std::size_t i = first; i < last; ++i) {
    const double s = spans[i].dur() - covered[i];
    if (s < -kSlack) {
      error = "children of span '" + spans[i].name + "' cover " +
              jsonNumber(covered[i]) + " s of its " +
              jsonNumber(spans[i].dur()) + " s";
      return false;
    }
    self[spans[i].metric] += s;
  }
  return true;
}

std::string chromeTraceJson(const std::vector<Span>& spans,
                            const std::string& workload, std::uint64_t seed) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":";
  out += jsonQuote(workload);
  out += ",\"seed\":" + std::to_string(seed) + "},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) out += ',';
    const std::string metric = s.metric;
    out += "{\"name\":" + jsonQuote(s.name);
    out += ",\"cat\":" + jsonQuote(metric.substr(0, metric.find('.')));
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.thread);
    out += ",\"ts\":" + jsonNumber(s.start * 1e6);
    out += ",\"dur\":" + jsonNumber(s.dur() * 1e6);
    out += ",\"args\":{\"id\":" + std::to_string(i);
    out += ",\"parent\":" + std::to_string(s.parent);
    out += ",\"block\":" + std::to_string(s.block);
    out += ",\"metric\":" + jsonQuote(metric);
    out += s.synthetic ? ",\"synthetic\":true}}" : ",\"synthetic\":false}}";
  }
  out += "]}";
  return out;
}

bool parsesAsJson(const std::string& text, std::string& error) {
  dfv::common::JsonValue v;
  return dfv::common::tryParseJson(text, v, error);
}

bool escaperSelfCheck(std::string& error) {
  std::string raw;
  for (int c = 0; c < 0x80; ++c) raw += static_cast<char>(c);
  dfv::common::JsonValue v;
  if (!dfv::common::tryParseJson(jsonQuote(raw), v, error)) return false;
  if (!v.isString() || v.asString() != raw) {
    error = "escaped ASCII does not round-trip";
    return false;
  }
  // High bytes need not be valid UTF-8 in the input; the escaped form must
  // still parse.
  if (!dfv::common::tryParseJson(jsonQuote("\x80\xff\xc3"), v, error))
    return false;
  return true;
}

}  // namespace perfbench
