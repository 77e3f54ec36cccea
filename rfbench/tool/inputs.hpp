// Seeded inputs of the benchmark workloads.
//
// Every collection is a Yule base tree over n numbered taxa plus
// independent per-tree perturbations (NNI / leaf-SPR moves), the shape of
// sim::generate's avian-like and insect-like presets (paper Table II).
// Unlike sim::generate, tree i draws from its own RNG stream seeded by
// (seed, i), so any slice of a collection can be generated alone, in
// parallel, and again by the checks, which then never read the program's
// input files back through the program's own parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace rfbench {

struct Shape {
  std::size_t n_taxa = 0;
  std::size_t moves = 0;  ///< perturbation moves per tree
  bool lengths = false;   ///< branch lengths in the Newick text
};

inline constexpr Shape kInsect{144, 10, false};
inline constexpr Shape kAvian{48, 4, true};

/// Trees [first, first + count) of the collection keyed by (shape, seed).
struct Slice {
  Shape shape;
  std::uint64_t seed = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// Worker threads that generate inputs (set-up and checks, never timed
/// operations).
inline constexpr std::size_t kGenerateThreads = 4;

/// Query sets start here, so they never overlap a reference slice.
inline constexpr std::size_t kQueryOffset = std::size_t{1} << 20;

/// What a workload runs on. Files are relative to the run directory.
struct Plan {
  std::string workload;
  Slice reference;
  std::string ref_file;
  std::optional<Slice> query;  ///< nullopt: the reference is the query set
  std::string query_file;      ///< empty when query is nullopt
};

[[nodiscard]] Plan plan_for(std::string_view workload, std::uint64_t seed);

[[nodiscard]] bfhrf::phylo::TaxonSetPtr taxa_for(const Shape& shape);

/// Generate the trees of `slice` on `threads` workers and hand them to
/// `sink` in index order.
void generate(const Slice& slice, std::size_t threads,
              const std::function<void(bfhrf::phylo::Tree&&)>& sink);

/// Write the plan's input files into `dir`.
void write_inputs(const Plan& plan, const std::string& dir,
                  std::size_t threads);

/// Write a labelled .p2v corpus with no trees over `shape`'s taxa.
void write_empty_p2v(const Shape& shape, const std::string& path);

}  // namespace rfbench
