// Seeded 64-bit-parallel random simulation over the cone of a set of AIG
// roots.  One routine serves two callers: aig::Fraig builds its candidate
// equivalence classes from the simulated signatures, and the SEC engine's
// BMC miter looks for a counterexample among the same kind of vectors
// before it rewrites, sweeps or solves anything (simulate first, SAT only
// what survives).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "aig/aig.h"

namespace dfv::aig {

/// The cone of influence of a set of roots.
struct Cone {
  /// Node 0, then every node a root reaches, ascending by id — a
  /// topological order, since fanins always have smaller ids.
  std::vector<std::uint32_t> nodes;
  /// Membership, indexed by node id (sized to the whole graph).
  std::vector<bool> contains;
};

Cone coneOf(const Aig& g, const std::vector<Lit>& roots);

/// Simulates one 64-bit word of random stimulus over `cone` (ascending ids,
/// as Cone::nodes): node 0 is all-zero, each input takes one `rng()` draw in
/// cone order — so a seed fixes every input's stimulus — and each AND node
/// is the AND of its fanin words.  `words` is indexed by node id; only cone
/// entries are read or written.
void simulateWord(const Aig& g, const std::vector<std::uint32_t>& cone,
                  std::mt19937_64& rng, std::vector<std::uint64_t>& words);

/// One simulated input vector under which every root is true.
class SimWitness {
 public:
  SimWitness(Cone cone, std::vector<std::uint64_t> words, unsigned bit)
      : cone_(std::move(cone)), words_(std::move(words)), bit_(bit) {}

  /// The value of `l` under the vector, or `def` for a literal outside the
  /// simulated cone (such a node cannot affect any root).
  bool value(Lit l, bool def) const {
    const std::uint32_t n = nodeOf(l);
    if (n >= cone_.contains.size() || !cone_.contains[n]) return def;
    return (((words_[n] >> bit_) & 1ULL) != 0) != isComplemented(l);
  }

 private:
  Cone cone_;
  std::vector<std::uint64_t> words_;  // the hit word of every cone node
  unsigned bit_;
};

/// Simulates up to `numWords` words over the cone of `roots`, seeded with
/// `seed`, and returns the first bit (lowest word, then lowest bit) at
/// which every root is true.  A pure function of its arguments.
std::optional<SimWitness> simulateRoots(const Aig& g,
                                        const std::vector<Lit>& roots,
                                        std::uint64_t seed,
                                        std::uint32_t numWords);

}  // namespace dfv::aig
