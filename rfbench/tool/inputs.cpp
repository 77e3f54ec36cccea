#include "inputs.hpp"

#include <atomic>
#include <exception>
#include <fstream>
#include <thread>
#include <vector>

#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "sim/generators.hpp"
#include "sim/moves.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rfbench {
namespace {

namespace phylo = bfhrf::phylo;
namespace sim = bfhrf::sim;

std::uint64_t stream_seed(std::uint64_t seed, std::size_t index) {
  // SplitMix64 finaliser over (seed, index): independent per-tree streams.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_slice(const Slice& slice, const std::string& path,
                 std::size_t threads) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw bfhrf::Error("cannot write " + path);
  }
  if (ends_with(path, ".p2v")) {
    const auto taxa = taxa_for(slice.shape);
    phylo::P2vWriter writer(out, static_cast<std::uint32_t>(taxa->size()),
                            taxa->labels());
    generate(slice, threads, [&](phylo::Tree&& t) {
      writer.write(phylo::tree_to_vector(t));
    });
    writer.finish();
  } else {
    const phylo::NewickWriteOptions opts{.write_lengths =
                                             slice.shape.lengths};
    generate(slice, threads, [&](phylo::Tree&& t) {
      out << phylo::write_newick(t, opts) << '\n';
    });
  }
  if (!out.flush()) {
    throw bfhrf::Error("write failed: " + path);
  }
}

}  // namespace

Plan plan_for(std::string_view workload, std::uint64_t seed) {
  // The paper's avian and insect shapes, sized so that one operation
  // lasts about a second or less and a run repeats it many times (see
  // README.md, "Inputs").
  const auto ref = [&](Shape shape, std::size_t r) {
    return Slice{shape, seed, 0, r};
  };
  const auto queries = [&](Shape shape, std::size_t q) {
    return Slice{shape, seed, kQueryOffset, q};
  };
  if (workload == "insect_newick") {
    return {std::string(workload), ref(kInsect, 6000), "ref.nwk", {}, ""};
  }
  if (workload == "insect_p2v_build") {
    return {std::string(workload), ref(kInsect, 20000), "ref.p2v", {}, ""};
  }
  if (workload == "insect_p2v_query") {
    return {std::string(workload), ref(kInsect, 20000), "ref.p2v",
            queries(kInsect, 20000), "query.p2v"};
  }
  if (workload == "avian_matrix") {
    return {std::string(workload), ref(kAvian, 1000), "ref.nwk", {}, ""};
  }
  if (workload == "serve_insect") {
    return {std::string(workload), ref(kInsect, 6000), "ref.nwk",
            queries(kInsect, 1000), "query.nwk"};
  }
  throw bfhrf::InvalidArgument("unknown workload '" + std::string(workload) +
                               "'");
}

phylo::TaxonSetPtr taxa_for(const Shape& shape) {
  return phylo::TaxonSet::make_numbered(shape.n_taxa);
}

void generate(const Slice& slice, std::size_t threads,
              const std::function<void(phylo::Tree&&)>& sink) {
  const auto taxa = taxa_for(slice.shape);
  bfhrf::util::Rng base_rng(stream_seed(slice.seed, kQueryOffset * 2));
  const phylo::Tree base = sim::yule_tree(
      taxa, base_rng, sim::GeneratorOptions{.branch_lengths =
                                                slice.shape.lengths});
  const auto make = [&](std::size_t index) {
    bfhrf::util::Rng rng(stream_seed(slice.seed, index));
    phylo::Tree t = base;
    sim::perturb(t, rng, slice.shape.moves);
    return t;
  };
  threads = std::max<std::size_t>(threads, 1);
  constexpr std::size_t kChunk = 2048;
  std::vector<phylo::Tree> chunk;
  for (std::size_t begin = 0; begin < slice.count; begin += kChunk) {
    const std::size_t n = std::min(kChunk, slice.count - begin);
    chunk.assign(n, phylo::Tree{});
    // Workers take the next tree as they finish one, so a worker slowed
    // by the host does not hold the chunk up.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        try {
          for (std::size_t i = next++; i < n; i = next++) {
            chunk[i] = make(slice.first + begin + i);
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
    for (const auto& e : errors) {
      if (e) {
        std::rethrow_exception(e);
      }
    }
    for (auto& t : chunk) {
      sink(std::move(t));
    }
  }
}

void write_inputs(const Plan& plan, const std::string& dir,
                  std::size_t threads) {
  write_slice(plan.reference, dir + "/" + plan.ref_file, threads);
  if (plan.query) {
    write_slice(*plan.query, dir + "/" + plan.query_file, threads);
  }
}

void write_empty_p2v(const Shape& shape, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  const auto taxa = taxa_for(shape);
  phylo::P2vWriter writer(out, static_cast<std::uint32_t>(taxa->size()),
                          taxa->labels());
  writer.finish();
  if (!out.flush()) {
    throw bfhrf::Error("write failed: " + path);
  }
}

}  // namespace rfbench
