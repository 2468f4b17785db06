// perfbench: the repository benchmark.
//
//   perfbench --workload prove|refute|cosim --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Sets the workload up (setup_s is the mean of set-ups spread over the
// run), computes its known answers, runs one untimed warm-up repetition,
// then repeats the plan until `--seconds` have been spent (at least
// kMinReps times), timing the host-speed probe (probe.h) before the first
// and after every repetition.  With --trace 0 it reports the end-to-end
// metrics, their times scaled by the probe; with --trace 1 it alternates
// untraced and traced repetitions, reports the per-layer metrics, and
// writes the traced spans to
// DIR/trace-<workload>-<seed>.json (Chrome trace-event format).  The last
// stdout line is the result object; the exit code is 0 only when every
// verdict matches the known answer and every counter repeats exactly.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.h"
#include "probe.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace dfv;

/// Each round of throw-away set-ups runs at least kMinSetupsPerRound of them
/// and goes on until kSetupRoundSeconds have passed, so millisecond set-ups
/// still give setup_s hundreds of samples.
constexpr int kMinSetupsPerRound = 3;
constexpr double kSetupRoundSeconds = 0.1;
/// Host-speed probe runs after the warm-up and after every repetition; one
/// probe run alone reads 10-20 % off.
constexpr int kProbesPerRound = 3;
constexpr unsigned kMinReps = 4;        // untraced, --trace 0
constexpr unsigned kMinTracedReps = 2;  // each kind, --trace 1
/// No repetition starts after this point, whatever --seconds says.
constexpr double kHardStopSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string outDir = ".bench_build/out";
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveW = false, haveSeed = false, haveSec = false, haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      haveW = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      haveSeed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      haveSec = end != v.c_str() && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      haveTrace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.outDir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && haveW && haveSeed && haveSec && haveTrace;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer times of one traced repetition, from spans [first, last) where
/// `first` is the plan span.
bool layerTimes(const std::vector<Span>& spans, std::size_t first,
                std::size_t last, unsigned threads, double planSeconds,
                LayerTimes& out, std::string& error) {
  const int planId = static_cast<int>(first);
  LayerTimes self;
  if (!selfTimes(spans, first + 1, last, self, error)) return false;
  double blockBusy = 0.0, layerSum = 0.0;
  std::map<int, double> firstStart;  // block id -> first callback start
  for (std::size_t i = first + 1; i < last; ++i) {
    const Span& s = spans[i];
    if (s.parent == planId) {
      blockBusy += s.dur();
      if (!firstStart.count(s.block)) firstStart[s.block] = s.start;
    } else if (s.parent < planId) {
      error = "span '" + s.name + "' ran in the plan outside every block";
      return false;
    }
    if (s.name == "sec::checkEquivalence") out["sec.busy_s"] += s.dur();
  }
  for (const auto& [metric, secs] : self) {
    out[metric] += secs;
    layerSum += secs;
  }
  const double capacity = threads * planSeconds;
  out["core.runner_s"] = capacity - blockBusy;
  out["core.worker_util"] = capacity > 0 ? blockBusy / capacity : 0.0;
  double wait = 0.0;
  for (const auto& [block, start] : firstStart)
    wait += start - spans[first].start;
  out["core.queue_wait_s"] =
      firstStart.empty() ? 0.0 : wait / static_cast<double>(firstStart.size());
  out["bench.plan_traced_s"] = planSeconds;
  // Every plan span nests under a block, so self times add up to the
  // blocks' busy time and, with the runner's share, to threads x plan_s.
  const double identity = layerSum + out["core.runner_s"];
  std::printf("# traced repetition: layer self times %.6f s + core.runner_s "
              "%.6f s = %.6f s; %u thread(s) x plan_s = %.6f s\n",
              layerSum, out["core.runner_s"], identity, threads, capacity);
  if (std::abs(identity - capacity) > 1e-6 * (1.0 + capacity)) {
    error = "layer self times + core.runner_s = " + jsonNumber(identity) +
            " s, threads x plan_s = " + jsonNumber(capacity) + " s";
    return false;
  }
  return true;
}

struct Metric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<Metric>& layerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"sec.calls", "count"},
      {"sec.busy_s", "s"},
      {"sec.build_s", "s"},
      {"sec.proven", "count"},
      {"sec.bounded", "count"},
      {"sec.not_equivalent", "count"},
      {"sec.inconclusive", "count"},
      {"slice.busy_s", "s"},
      {"slice.nodes_removed", "count"},
      {"absint.busy_s", "s"},
      {"absint.nodes_folded", "count"},
      {"inv.busy_s", "s"},
      {"inv.candidates", "count"},
      {"inv.certified", "count"},
      {"inv.cert_ratio", "ratio"},
      {"aig.rewrite_s", "s"},
      {"aig.rewrite_applied", "count"},
      {"aig.rewrite_nodes_before", "count"},
      {"aig.rewrite_saved_ratio", "ratio"},
      {"aig.fraig_s", "s"},
      {"aig.fraig_sat_calls", "count"},
      {"aig.fraig_nodes_before", "count"},
      {"aig.fraig_merged", "count"},
      {"aig.fraig_merge_ratio", "ratio"},
      {"aig.bmc_nodes", "count"},
      {"aig.induction_nodes", "count"},
      {"sat.solve_s", "s"},
      {"sat.conflicts", "count"},
      {"sat.decisions", "count"},
      {"sat.propagations", "count"},
      {"sat.learnts", "count"},
      {"rtl.lower_s", "s"},
      {"rtl.mutate_s", "s"},
      {"rtl.sim_s", "s"},
      {"rtl.cycles", "count"},
      {"rtl.cycles_per_s", "1/s"},
      {"slmc.elaborate_s", "s"},
      {"designs.build_s", "s"},
      {"slm.kernel_s", "s"},
      {"slm.deltas", "count"},
      {"cosim.run_s", "s"},
      {"cosim.scoreboard_s", "s"},
      {"cosim.matched", "count"},
      {"cosim.mismatches", "count"},
      {"ir.eval_s", "s"},
      {"ir.eval_txns", "count"},
      {"core.runner_s", "s"},
      {"core.report_json_s", "s"},
      {"core.journal_records", "count"},
      {"core.journal_load_s", "s"},
      {"core.resume_s", "s"},
      {"core.queue_wait_s", "s"},
      {"core.worker_util", "ratio"},
      {"bench.callback_s", "s"},
      {"bench.plan_traced_s", "s"},
      {"bench.trace_overhead_s", "s"},
  };
  return kMetrics;
}

double ratio(const Counts& c, const char* num, const char* den) {
  const auto n = c.find(num), d = c.find(den);
  if (n == c.end() || d == c.end() || d->second == 0) return 0.0;
  return static_cast<double>(n->second) / static_cast<double>(d->second);
}

std::string countsJson(const Counts& c) {
  std::string out = "{";
  for (const auto& [k, v] : c) {
    if (out.size() > 1) out += ',';
    out += jsonQuote(k) + ":" + std::to_string(v);
  }
  return out + "}";
}

struct Timed {
  RepResult rep;
  bool traced = false;
  LayerTimes layers;  // traced repetitions only
};

Timed runRep(Workload& w, core::ParallelExecutor* exec, bool traced,
             std::vector<std::string>& errors) {
  Timed t;
  t.traced = traced;
  core::ResilientRunner runner(w.name());
  w.buildPlan(runner);
  if (exec != nullptr) runner.setExecutor(exec);
  w.beforeRun(runner);

  tracer().setEnabled(traced);
  const std::size_t mark = tracer().size();
  const int planId =
      tracer().begin("core::ResilientRunner::runAll", "core.runner_s");
  setPlanSpan(planId);
  const double t0 = now();
  const core::PlanReport report = runner.runAll();
  t.rep.planSeconds = now() - t0;
  tracer().end(planId);
  setPlanSpan(-1);
  const std::size_t markEnd = tracer().size();
  double jsonSeconds = 0.0;
  {
    const double j0 = now();
    Scope s("core::PlanReport::json", "core.report_json_s");
    const std::string js = report.json(w.name());
    jsonSeconds = now() - j0;
    std::string err;
    if (!parsesAsJson(js, err)) errors.push_back("plan report JSON: " + err);
  }
  tracer().setEnabled(false);

  w.check(report, t.rep);
  for (const core::BlockResult& b : report.blocks)
    t.rep.blockSeconds.push_back(b.seconds);
  if (traced) {
    std::string err;
    const auto spans = tracer().snapshot();
    // The thread waiting in runAll() helps run blocks, so a parallel plan
    // has the executor's workers plus that one.
    const unsigned threads = exec ? exec->workers() + 1 : 1;
    if (!layerTimes(spans, mark, markEnd, threads, t.rep.planSeconds,
                    t.layers, err))
      errors.push_back("trace: " + err);
    t.layers["core.report_json_s"] = jsonSeconds;
  }
  return t;
}

int run(const Args& args) {
  std::vector<std::string> errors;
  {
    std::string err;
    if (!escaperSelfCheck(err)) errors.push_back("JSON escaper: " + err);
  }
  std::error_code ec;
  std::filesystem::create_directories(args.outDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.outDir.c_str());
    return 2;
  }

  // The thread that calls runAll() also runs blocks while it waits, so
  // nproc - 1 workers (at most 3) keep one busy thread per core.
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 2u, 4u) - 1;
  auto make = [&]() -> std::unique_ptr<Workload> {
    if (args.workload == "prove") return makeProve(args.outDir);
    if (args.workload == "refute") return makeRefute(args.seed, workers);
    if (args.workload == "cosim") return makeCosim(args.seed);
    return nullptr;
  };
  std::unique_ptr<Workload> w = make();
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // setup_s samples: the real set-up plus a round of throw-away set-ups of a
  // fresh instance before the first and after every repetition, so the
  // mean covers the same stretch of time as plan_s.  In trace mode their
  // spans time rtl::mutate.
  std::vector<double> setupTimes, mutateTimes;
  auto timeSetup = [&](Workload& x) {
    tracer().setEnabled(args.trace);
    const std::size_t mark = tracer().size();
    const double t0 = now();
    x.setup();
    setupTimes.push_back(now() - t0);
    tracer().setEnabled(false);
    if (args.trace) {
      LayerTimes self;
      std::string err;
      if (!selfTimes(tracer().snapshot(), mark, tracer().size(), self, err))
        errors.push_back("setup trace: " + err);
      mutateTimes.push_back(self["rtl.mutate_s"]);
    }
  };
  auto setupRound = [&] {
    std::unique_ptr<Workload> fresh = make();
    const double r0 = now();
    for (int i = 0; i < kMinSetupsPerRound || now() - r0 < kSetupRoundSeconds;
         ++i)
      timeSetup(*fresh);
  };
  timeSetup(*w);
  setupRound();
  w->prepareOracle();

  std::unique_ptr<core::ParallelExecutor> exec;
  if (w->workers() > 1)
    exec = std::make_unique<core::ParallelExecutor>(w->workers());

  // One warm-up repetition lets allocator arenas, page mappings and lazy
  // tables settle; it is checked like the others but not timed.
  std::vector<Timed> reps;
  reps.push_back(runRep(*w, exec.get(), false, errors));
  std::vector<double> probeTimes;
  auto probeRound = [&] {
    for (int i = 0; i < kProbesPerRound; ++i) probeTimes.push_back(runProbe());
  };
  probeRound();
  const double start = now();
  unsigned untraced = 0, traced = 0;
  double last = 0.0;
  for (bool nextTraced = false;; nextTraced = args.trace && !nextTraced) {
    const double r0 = now();
    reps.push_back(runRep(*w, exec.get(), nextTraced, errors));
    setupRound();
    probeRound();
    last = now() - r0;
    (nextTraced ? traced : untraced) += 1;
    const double elapsed = now() - start;
    const bool enough =
        args.trace ? untraced >= kMinTracedReps && traced >= kMinTracedReps
                   : untraced >= kMinReps;
    if (enough &&
        (elapsed + last > args.seconds || elapsed > kHardStopSeconds))
      break;
  }

  // Known answers and the determinism gate.
  unsigned attempted = 0, failed = 0, wrong = 0;
  for (const Timed& t : reps) {
    attempted += t.rep.attempted;
    failed += t.rep.failed;
    wrong += t.rep.wrong;
    for (const std::string& n : t.rep.notes)
      std::printf("# FAIL %s\n", n.c_str());
    if (t.rep.counts != reps.front().rep.counts)
      errors.push_back("determinism: counters differ between repetitions");
  }
  const Counts& counts = reps.front().rep.counts;
  std::printf("# counts %s\n", countsJson(counts).c_str());

  std::vector<std::pair<Metric, double>> metrics;
  if (!args.trace) {
    std::vector<double> plans;
    std::vector<std::vector<double>> perBlock(
        reps.front().rep.blockSeconds.size());
    for (std::size_t i = 1; i < reps.size(); ++i) {
      plans.push_back(reps[i].rep.planSeconds);
      for (std::size_t b = 0; b < perBlock.size(); ++b)
        perBlock[b].push_back(reps[i].rep.blockSeconds.at(b));
    }
    std::printf("# plan_s per repetition:");
    for (double p : plans) std::printf(" %.4f", p);
    std::printf("\n");
    // Times are means over the timed repetitions, not medians: a shared
    // host switches between a fast and a slow state every few seconds, and
    // a median over a run flips with whichever state held the majority.
    // Block service time: each block's mean, then percentiles over the
    // plan's blocks.  The tail is the highest percentile with at least 10
    // blocks beyond it (the slowest block when the plan has fewer than 11).
    std::vector<double> blocks;
    for (const auto& v : perBlock) blocks.push_back(mean(v));
    std::printf("# block means (plan order):");
    for (double b : blocks) std::printf(" %.4f", b);
    std::printf("\n");
    std::sort(blocks.begin(), blocks.end());
    const std::size_t n = blocks.size();
    const std::size_t tailIdx = n > 10 ? n - 11 : n - 1;
    std::printf("# block_tail_s = p%.1f of %zu blocks, each the mean of %zu "
                "repetitions\n",
                100.0 * static_cast<double>(tailIdx + 1) /
                    static_cast<double>(n),
                n, plans.size());
    // Times are scaled to the host speed at which the probe takes
    // kProbeReferenceSeconds, so a run on a slow stretch of a shared host
    // reads like one on a fast stretch; the wall-clock figures are printed
    // unscaled above the result.
    const double probe = mean(probeTimes);
    const double scale = kProbeReferenceSeconds / probe;
    const double wall[] = {mean(plans), mean(setupTimes), median(blocks),
                           blocks[tailIdx]};
    std::printf("# wall clock, unscaled: plan_s=%.6f setup_s=%.6f "
                "block_p50_s=%.6f block_tail_s=%.6f; probe mean %.6f s over "
                "%zu runs, scale %.6f\n",
                wall[0], wall[1], wall[2], wall[3], probe, probeTimes.size(),
                scale);
    metrics = {
        {{"plan_s", "s"}, wall[0] * scale},
        {{"setup_s", "s"}, wall[1] * scale},
        {{"block_p50_s", "s"}, wall[2] * scale},
        {{"block_tail_s", "s"}, wall[3] * scale},
        {{"peak_rss_mb", "MB"}, peakRssMb()},
    };
  } else {
    std::vector<double> plainPlans, tracedPlans;
    std::map<std::string, std::vector<double>> series;
    for (std::size_t i = 1; i < reps.size(); ++i) {
      const Timed& t = reps[i];
      (t.traced ? tracedPlans : plainPlans).push_back(t.rep.planSeconds);
      if (t.traced)
        for (const auto& [k, v] : t.layers) series[k].push_back(v);
    }
    LayerTimes layers;
    for (const auto& [k, v] : series) layers[k] = median(v);
    layers["rtl.mutate_s"] = median(mutateTimes);
    layers["bench.trace_overhead_s"] = median(tracedPlans) - median(plainPlans);
    RepResult extra;
    w->extraLayerMetrics(layers, extra);
    attempted += extra.attempted;
    failed += extra.failed;
    wrong += extra.wrong;
    for (const std::string& n : extra.notes)
      std::printf("# FAIL %s\n", n.c_str());
    const double rtlBusy =
        layers["cosim.run_s"] + layers["rtl.sim_s"] + layers["slm.kernel_s"];
    const auto cyc = counts.find("rtl.cycles");
    layers["rtl.cycles_per_s"] =
        cyc != counts.end() && rtlBusy > 0
            ? static_cast<double>(cyc->second) / rtlBusy
            : 0.0;
    layers["inv.cert_ratio"] = ratio(counts, "inv.certified", "inv.candidates");
    layers["aig.rewrite_saved_ratio"] =
        ratio(counts, "aig.rewrite_saved", "aig.rewrite_nodes_before");
    layers["aig.fraig_merge_ratio"] =
        ratio(counts, "aig.fraig_merged", "aig.fraig_nodes_before");
    for (const Metric& m : layerMetrics()) {
      const auto c = counts.find(m.name);
      const bool isCount = std::strcmp(m.unit, "count") == 0;
      metrics.push_back(
          {m, isCount ? (c == counts.end() ? 0.0
                                           : static_cast<double>(c->second))
                      : layers[m.name]});
    }
    std::printf("# traced plan_s=%.6f untraced plan_s=%.6f overhead=%.6f s\n",
                median(tracedPlans), median(plainPlans),
                layers["bench.trace_overhead_s"]);

    const std::string path = args.outDir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string doc =
        chromeTraceJson(tracer().snapshot(), args.workload, args.seed);
    std::string err;
    if (!parsesAsJson(doc, err)) errors.push_back("trace JSON: " + err);
    std::ofstream out(path, std::ios::binary);
    out << doc;
    if (out.flush())
      std::printf("# trace written to %s\n", path.c_str());
    else
      errors.push_back("cannot write " + path);
  }

  if (wrong > 0) errors.push_back(std::to_string(wrong) + " wrong verdicts");
  for (const std::string& e : errors) std::printf("# ERROR %s\n", e.c_str());
  const bool correct = errors.empty();
  std::string line = std::string("{\"correct\":") +
                     (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ',';
    line += jsonQuote(metrics[i].first.name) + ":{\"value\":" +
            jsonNumber(metrics[i].second) +
            ",\"unit\":" + jsonQuote(metrics[i].first.unit) + "}";
  }
  line += "}}";
  std::string err;
  if (!parsesAsJson(line, err)) {
    std::fprintf(stderr, "perfbench: result JSON does not parse: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload prove|refute|cosim --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
