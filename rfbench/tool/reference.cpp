#include "reference.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace rfbench {

namespace phylo = bfhrf::phylo;

std::size_t SplitHash::operator()(const Split& s) const noexcept {
  std::uint64_t h = 0x243F6A8885A308D3ULL;
  for (const std::uint64_t word : s.w) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

std::vector<Split> splits_of(const phylo::Tree& tree, std::size_t n_taxa) {
  if (n_taxa > 192 || n_taxa < 4) {
    throw bfhrf::InvalidArgument("reference: need 4..192 taxa");
  }
  Split full;
  for (std::size_t b = 0; b < n_taxa; ++b) {
    full.w[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  // Iterative postorder: a node's mask is final once all children are.
  std::vector<Split> mask(tree.num_nodes());
  std::vector<std::pair<phylo::NodeId, bool>> stack{{tree.root(), false}};
  std::vector<Split> out;
  while (!stack.empty()) {
    const auto [id, expanded] = stack.back();
    stack.pop_back();
    const auto& node = tree.node(id);
    if (node.first_child == phylo::kNoNode) {
      const auto t = static_cast<std::size_t>(node.taxon);
      mask[static_cast<std::size_t>(id)].w[t / 64] |= std::uint64_t{1}
                                                      << (t % 64);
      continue;
    }
    if (!expanded) {
      stack.emplace_back(id, true);
      for (phylo::NodeId c = node.first_child; c != phylo::kNoNode;
           c = tree.node(c).next_sibling) {
        stack.emplace_back(c, false);
      }
      continue;
    }
    Split& m = mask[static_cast<std::size_t>(id)];
    for (phylo::NodeId c = node.first_child; c != phylo::kNoNode;
         c = tree.node(c).next_sibling) {
      for (std::size_t k = 0; k < 3; ++k) {
        m.w[k] |= mask[static_cast<std::size_t>(c)].w[k];
      }
    }
    if (id == tree.root()) {
      continue;
    }
    Split s = m;
    if ((s.w[0] & 1U) != 0) {
      for (std::size_t k = 0; k < 3; ++k) {
        s.w[k] = ~s.w[k] & full.w[k];
      }
    }
    std::size_t size = 0;
    for (const std::uint64_t word : s.w) {
      size += static_cast<std::size_t>(std::popcount(word));
    }
    if (size >= 2 && size + 2 <= n_taxa) {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t rf(const std::vector<Split>& a, const std::vector<Split>& b) {
  std::size_t shared = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return a.size() + b.size() - 2 * shared;
}

void SplitCounts::add(const std::vector<Split>& splits) {
  for (const Split& s : splits) {
    ++counts_[s];
  }
  ++trees_;
  total_splits_ += splits.size();
}

std::uint64_t SplitCounts::sum_rf(const std::vector<Split>& q) const {
  std::uint64_t shared = 0;
  for (const Split& s : q) {
    const auto it = counts_.find(s);
    if (it != counts_.end()) {
      shared += it->second;
    }
  }
  return trees_ * q.size() + total_splits_ - 2 * shared;
}

}  // namespace rfbench
