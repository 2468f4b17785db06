// `cosim`: simulation-only blocks run serially.  SEC does nothing here;
// rtl, slm, cosim and ir do everything.  Golden C models computed in setup
// are the known answers every block's scoreboard is checked against.

#include <map>

#include "cosim/rtl_in_slm.h"
#include "cosim/scoreboard.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "designs/macpipe.h"
#include "designs/memsys.h"
#include "slm/channels.h"
#include "slm/kernel.h"
#include "workload.h"
#include "workload/workload.h"

namespace perfbench {

using namespace dfv;

namespace {

// Sizes put every block at 0.1-0.5 s on a 4-core x86 host, ~1.7 s a plan.
constexpr unsigned kConvStreamW = 160, kConvStreamH = 120;
constexpr unsigned kConvSlmW = 160, kConvSlmH = 120;
constexpr std::size_t kFirSamples = 120000;
constexpr std::size_t kMemRequests = 12000;
constexpr std::size_t kMacOps = 60000;
constexpr unsigned kFallbackTxns = 8000;

std::vector<bv::BitVector> toStream(const std::vector<std::uint8_t>& px) {
  std::vector<bv::BitVector> s;
  s.reserve(px.size());
  for (auto p : px) s.push_back(bv::BitVector::fromUint(8, p));
  return s;
}

class Cosim final : public Workload {
 public:
  explicit Cosim(std::uint64_t seed) : seed_(seed) {}

  const char* name() const override { return "cosim"; }

  void setup() override {
    const auto kernel = designs::ConvKernel::sharpen();
    const auto img =
        workload::makeTestImage(kConvStreamW, kConvStreamH, seed_ + 1);
    convStream_ = toStream(img.pixels);
    convStreamGolden_ = toStream(designs::convGolden(img, kernel));
    convStreamRtl_ = designs::makeConvRtl(kConvStreamW, kernel);

    convSlmImage_ = workload::makeTestImage(kConvSlmW, kConvSlmH, seed_ + 2);
    convSlmGolden_ = designs::convGolden(convSlmImage_, kernel);
    convSlmRtl_ = designs::makeConvRtl(kConvSlmW, kernel);

    firStream_ = workload::makeSampleStream(kFirSamples, seed_ + 3);
    std::vector<std::int8_t> samples;
    samples.reserve(firStream_.size());
    for (const auto& s : firStream_)
      samples.push_back(static_cast<std::int8_t>(s.toInt64()));
    firGolden_.clear();
    for (const auto& v : designs::firGoldenBitAccurate(samples))
      firGolden_.push_back(
          bv::BitVector::fromUint(designs::kFirAccWidth, v.bits()));
    firRtl_ = designs::makeFirRtl(designs::FirBug::kNone);

    memTrace_ = workload::makeMemTrace(kMemRequests, seed_ + 4);
    memGolden_ = designs::memGolden(memTrace_);

    workload::Rng rng(seed_ + 5);
    macOps_.clear();
    for (std::size_t i = 0; i < kMacOps; ++i)
      macOps_.push_back(designs::MacOp{static_cast<std::uint8_t>(i % 16),
                                       static_cast<std::uint8_t>(rng.next()),
                                       static_cast<std::uint8_t>(rng.next())});
    macGolden_.clear();
    for (const auto& op : macOps_) macGolden_.push_back(designs::macGolden(op));

    fallbackProblems_.clear();
    ctx_ = std::make_unique<ir::Context>();
    fallbackProblems_.push_back(
        hold(designs::makeFirSecProblem(*ctx_, designs::FirBug::kNone)));
    fallbackProblems_.push_back(hold(designs::makeGcdSecProblem(*ctx_)));
  }

  void buildPlan(core::ResilientRunner& runner) override {
    slots_.assign(kBlocks, {});
    const char* names[kBlocks] = {"conv_stream", "conv_in_slm", "fir_stream",
                                  "memsys",      "macpipe",     "fallback_fir",
                                  "fallback_gcd"};
    for (unsigned i = 0; i < kBlocks; ++i)
      runner.addCosimBlock(names[i], i + 1, [this, i, names](std::uint64_t) {
        Scope blk(std::string("block:") + names[i], "bench.callback_s",
                  static_cast<int>(i));
        const bool ok = runBlock(i);
        return core::ResilientRunner::CosimOutcome{ok, ok ? "clean" : "dirty"};
      });
  }

  void check(const core::PlanReport& report, RepResult& rep) override {
    for (unsigned i = 0; i < kBlocks; ++i) {
      const core::BlockResult& b = report.blocks[i];
      ++rep.attempted;
      mergeCounts(rep.counts, slots_[i].counts);
      if (b.faulted || b.degraded)
        rep.fail(b.block, "faulted or degraded: " + b.detail, false);
      else if (!slots_[i].ok || !b.passed)
        rep.fail(b.block, "outputs differ from the golden model", true);
    }
  }

 private:
  static constexpr unsigned kBlocks = 7;

  struct Slot {
    bool ok = false;
    Counts counts;
  };

  /// Folds a finished scoreboard into the block's counters; clean only when
  /// every one of the `expected` golden values was matched.
  static bool record(Slot& s, const cosim::ScoreboardStats& st,
                     std::size_t expected) {
    s.counts["cosim.matched"] += st.matched;
    s.counts["cosim.mismatches"] +=
        st.mismatched + st.pendingRef + st.pendingDut;
    return st.clean() && st.matched == expected;
  }

  /// Streams `stimulus` through a wrapped RTL block and compares in order.
  bool streamBlock(Slot& s, const rtl::Module& m,
                   const std::vector<bv::BitVector>& stimulus,
                   const std::vector<bv::BitVector>& golden) {
    std::vector<cosim::StreamItem> outs;
    {
      Scope sp("cosim::WrappedRtl::run", "cosim.run_s");
      cosim::WrappedRtl dut(m, cosim::StreamPorts{});
      outs = dut.run(stimulus);
      s.counts["rtl.cycles"] += dut.cyclesRun();
    }
    Scope sp("cosim::InOrderScoreboard", "cosim.scoreboard_s");
    cosim::InOrderScoreboard sb;
    for (std::size_t i = 0; i < golden.size(); ++i) sb.expect(golden[i], i);
    for (const auto& item : outs) sb.observe(item.value, item.cycle);
    return record(s, sb.finish(), golden.size());
  }

  bool convInSlm(Slot& s) {
    std::vector<bv::BitVector> received;
    received.reserve(convSlmGolden_.size());
    {
      Scope sp("slm::Kernel::run", "slm.kernel_s");
      slm::Kernel kernel;
      slm::Clock clk(kernel, "clk", 10);
      slm::Fifo<bv::BitVector> toRtl(kernel, "to_rtl", 8);
      slm::Fifo<bv::BitVector> fromRtl(kernel, "from_rtl",
                                       convSlmGolden_.size() + 16);
      cosim::RtlBlockInSlm block(kernel, "u_conv", convSlmRtl_,
                                 cosim::StreamPorts{}, clk, toRtl, fromRtl);
      bool consumerDone = false;
      auto producer = [&]() -> slm::Process {
        for (auto px : convSlmImage_.pixels) {
          co_await clk.rising();
          co_await toRtl.put(bv::BitVector::fromUint(8, px));
        }
      };
      auto consumer = [&]() -> slm::Process {
        for (std::size_t i = 0; i < convSlmGolden_.size(); ++i)
          received.push_back(co_await fromRtl.get());
        consumerDone = true;
      };
      kernel.spawn(producer(), "producer");
      kernel.spawn(consumer(), "consumer");
      // The clock never idles: run in slices until the consumer finishes.
      const slm::Time limit = 10 * 40 * (convSlmImage_.pixels.size() + 64);
      while (!consumerDone && kernel.now() < limit)
        kernel.run(kernel.now() + 10 * 1000);
      s.counts["rtl.cycles"] += block.cyclesRun();
      s.counts["slm.deltas"] += kernel.deltaCount();
    }
    Scope sp("cosim::InOrderScoreboard", "cosim.scoreboard_s");
    cosim::InOrderScoreboard sb;
    for (std::size_t i = 0; i < convSlmGolden_.size(); ++i)
      sb.expect(bv::BitVector::fromUint(8, convSlmGolden_[i]), i);
    for (std::size_t i = 0; i < received.size(); ++i)
      sb.observe(received[i], i);
    return record(s, sb.finish(), convSlmGolden_.size());
  }

  bool memsys(Slot& s) {
    designs::MemRunResult run;
    {
      Scope sp("designs::runCache", "rtl.sim_s");
      run = designs::runCache(memTrace_);
    }
    s.counts["rtl.cycles"] += run.cyclesRun;
    Scope sp("cosim::InOrderScoreboard", "cosim.scoreboard_s");
    cosim::InOrderScoreboard sb;
    for (std::size_t i = 0; i < memGolden_.size(); ++i)
      sb.expect(bv::BitVector::fromUint(8, memGolden_[i]), i);
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < run.responses.size(); ++i) {
      t += 1 + run.latencies.at(i);
      sb.observe(bv::BitVector::fromUint(8, run.responses[i]), t);
    }
    return record(s, sb.finish(), memGolden_.size());
  }

  bool macpipe(Slot& s) {
    designs::MacRunResult run;
    {
      Scope sp("designs::runMacPipe", "rtl.sim_s");
      run = designs::runMacPipe(macOps_, cosim::randomStalls(1, 4, seed_),
                                256);
    }
    s.counts["rtl.cycles"] += run.cyclesRun;
    Scope sp("cosim::OutOfOrderScoreboard", "cosim.scoreboard_s");
    // Key = occurrence << 8 | tag: tags recur every 16 ops, and the pipe
    // (depth <= 4) retires each one long before its tag comes back.
    cosim::OutOfOrderScoreboard sb;
    for (std::size_t i = 0; i < macOps_.size(); ++i)
      sb.expect((static_cast<std::uint64_t>(i / 16) << 8) | macOps_[i].tag,
                bv::BitVector::fromUint(16, macGolden_[i]), i);
    std::map<std::uint8_t, std::uint64_t> occ;
    for (const auto& c : run.completions)
      sb.observe((occ[c.tag]++ << 8) | c.tag,
                 bv::BitVector::fromUint(16, c.data), c.cycle);
    return record(s, sb.finish(), macOps_.size());
  }

  bool fallback(Slot& s, const HeldProblem& h, std::uint64_t seed) {
    Scope sp("core::makeRandomCosimFallback", "ir.eval_s");
    const auto outcome =
        core::makeRandomCosimFallback(*h.problem, kFallbackTxns)(seed);
    s.counts["ir.eval_txns"] += kFallbackTxns;
    return outcome.passed;
  }

  bool runBlock(unsigned i) {
    Slot& s = slots_[i];
    switch (i) {
      case 0: s.ok = streamBlock(s, convStreamRtl_, convStream_,
                                 convStreamGolden_); break;
      case 1: s.ok = convInSlm(s); break;
      case 2: s.ok = streamBlock(s, firRtl_, firStream_, firGolden_); break;
      case 3: s.ok = memsys(s); break;
      case 4: s.ok = macpipe(s); break;
      case 5: s.ok = fallback(s, fallbackProblems_[0], seed_ + 6); break;
      case 6: s.ok = fallback(s, fallbackProblems_[1], seed_ + 7); break;
    }
    return s.ok;
  }

  std::uint64_t seed_;
  std::vector<bv::BitVector> convStream_;
  std::vector<bv::BitVector> convStreamGolden_;
  rtl::Module convStreamRtl_{"conv"};
  workload::Image convSlmImage_;
  std::vector<std::uint8_t> convSlmGolden_;
  rtl::Module convSlmRtl_{"conv"};
  std::vector<bv::BitVector> firStream_;
  std::vector<bv::BitVector> firGolden_;
  rtl::Module firRtl_{"fir"};
  std::vector<workload::MemRequest> memTrace_;
  std::vector<std::uint8_t> memGolden_;
  std::vector<designs::MacOp> macOps_;
  std::vector<std::uint16_t> macGolden_;
  std::unique_ptr<ir::Context> ctx_;
  std::vector<HeldProblem> fallbackProblems_;
  std::vector<Slot> slots_;
};

}  // namespace

std::unique_ptr<Workload> makeCosim(std::uint64_t seed) {
  return std::make_unique<Cosim>(seed);
}

}  // namespace perfbench
