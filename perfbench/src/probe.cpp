#include "probe.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::size_t kCycleSlots = (4u << 20) / sizeof(std::uint32_t);
constexpr int kChaseSteps = 400000;
constexpr std::size_t kSortItems = 500000;

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 17;
}

volatile std::uint64_t gSink = 0;

double probeWork() {
  std::uint64_t s = 12345;
  std::vector<std::uint32_t> order(kCycleSlots), next(kCycleSlots);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = kCycleSlots - 1; i > 0; --i)
    std::swap(order[i], order[lcg(s) % (i + 1)]);
  for (std::size_t i = 0; i < kCycleSlots; ++i)
    next[order[i]] = order[(i + 1) % kCycleSlots];
  std::vector<std::uint32_t> items(kSortItems);
  for (auto& x : items) x = static_cast<std::uint32_t>(lcg(s));

  const double t0 = now();
  std::uint32_t p = 0;
  for (int i = 0; i < kChaseSteps; ++i) p = next[p];
  std::sort(items.begin(), items.end());
  const double seconds = now() - t0;
  gSink = gSink + p + items[kSortItems / 2];
  return seconds;
}

}  // namespace

double runProbe() {
  // A child process runs the probe, so its memory never counts towards the
  // benchmark's peak_rss_mb and its frees never reshape the plan's heap.
  // It is pinned to the CPU this thread last ran on: the vCPUs of a shared
  // host slow down independently, and an unpinned child measured another
  // one than the serial plan had used.
  const int cpu = sched_getcpu();
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("probe: pipe() failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("probe: fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
    }
    double seconds = -1.0;
    try {
      seconds = probeWork();
    } catch (...) {
    }
    const bool sent =
        write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    _exit(sent && seconds > 0 ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  ssize_t got;
  do {
    got = read(fds[0], &seconds, sizeof seconds);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof seconds || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("probe: child process failed");
  return seconds;
}

}  // namespace perfbench
