// The host-speed probe: a fixed piece of work that calls no library code,
// timed between the plan's repetitions.  On a shared host the same plan
// runs up to 30-40 % slower for minutes at a time; the probe slows down with
// it, so dividing a run's times by the probe's mean time takes most of that
// drift out of the reported figures.
#pragma once

namespace perfbench {

/// About the probe's median wall time on the 4-core x86 host the benchmark
/// was tuned on.  Scaled times are seconds on a host where the probe takes
/// this long.
inline constexpr double kProbeReferenceSeconds = 0.100;

/// Runs the probe once in a child process pinned to the caller's current
/// CPU and returns its wall seconds:
/// dependent loads over a freshly built 4 MiB random cycle, then sorting
/// 500k integers.  Throws std::runtime_error when the child fails.
double runProbe();

}  // namespace perfbench
