// An independent Robinson-Foulds reference for the output checks.
//
// It shares no code with the program's RF paths: splits come from a plain
// traversal of phylo::Tree written here (not phylo::BipartitionExtractor),
// a tree's split set is a sorted vector, and RF is the textbook
// |A| + |B| - 2|A ∩ B| by merge. The only library code it touches is the
// Tree container and the sim generators that make the trees.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phylo/tree.hpp"

namespace rfbench {

/// A canonical non-trivial split (the side without taxon 0), n <= 192.
struct Split {
  std::array<std::uint64_t, 3> w{};
  auto operator<=>(const Split&) const = default;
};

struct SplitHash {
  std::size_t operator()(const Split& s) const noexcept;
};

/// Sorted, duplicate-free non-trivial splits of `tree` over n_taxa taxa.
[[nodiscard]] std::vector<Split> splits_of(const bfhrf::phylo::Tree& tree,
                                           std::size_t n_taxa);

/// RF(a, b) = |a| + |b| - 2|a ∩ b| over two split_of results.
[[nodiscard]] std::size_t rf(const std::vector<Split>& a,
                             const std::vector<Split>& b);

/// Split frequencies of a reference collection: the sum of RF(q, t) over
/// every reference tree t is r·|q| + Σ|t| - 2·Σ_{s∈q} count(s).
class SplitCounts {
 public:
  void add(const std::vector<Split>& splits);
  [[nodiscard]] std::uint64_t sum_rf(const std::vector<Split>& q) const;
  [[nodiscard]] std::size_t trees() const noexcept { return trees_; }

 private:
  std::unordered_map<Split, std::uint32_t, SplitHash> counts_;
  std::size_t trees_ = 0;
  std::uint64_t total_splits_ = 0;
};

}  // namespace rfbench
