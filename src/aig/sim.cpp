#include "aig/sim.h"

#include <algorithm>
#include <bit>

namespace dfv::aig {

Cone coneOf(const Aig& g, const std::vector<Lit>& roots) {
  Cone cone;
  cone.contains.assign(g.numNodes(), false);
  cone.contains[0] = true;
  cone.nodes.push_back(0);
  std::vector<std::uint32_t> stack;
  for (const Lit r : roots) stack.push_back(nodeOf(r));
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (cone.contains[n]) continue;
    cone.contains[n] = true;
    cone.nodes.push_back(n);
    if (g.isAndNode(n)) {
      stack.push_back(nodeOf(g.fanin0(n)));
      stack.push_back(nodeOf(g.fanin1(n)));
    }
  }
  std::sort(cone.nodes.begin(), cone.nodes.end());
  return cone;
}

void simulateWord(const Aig& g, const std::vector<std::uint32_t>& cone,
                  std::mt19937_64& rng, std::vector<std::uint64_t>& words) {
  const auto wordOf = [&](Lit l) {
    return words[nodeOf(l)] ^ (isComplemented(l) ? ~0ULL : 0ULL);
  };
  for (const std::uint32_t n : cone) {
    if (n == 0)
      words[n] = 0;
    else if (g.isInputNode(n))
      words[n] = rng();
    else  // fanins have smaller ids, so their word is already computed
      words[n] = wordOf(g.fanin0(n)) & wordOf(g.fanin1(n));
  }
}

std::optional<SimWitness> simulateRoots(const Aig& g,
                                        const std::vector<Lit>& roots,
                                        std::uint64_t seed,
                                        std::uint32_t numWords) {
  Cone cone = coneOf(g, roots);
  std::vector<std::uint64_t> words(g.numNodes());
  std::mt19937_64 rng(seed);
  for (std::uint32_t w = 0; w < numWords; ++w) {
    simulateWord(g, cone.nodes, rng, words);
    std::uint64_t all = ~0ULL;
    for (const Lit r : roots)
      all &= words[nodeOf(r)] ^ (isComplemented(r) ? ~0ULL : 0ULL);
    if (all != 0)
      return SimWitness(std::move(cone), std::move(words),
                        static_cast<unsigned>(std::countr_zero(all)));
  }
  return std::nullopt;
}

}  // namespace dfv::aig
