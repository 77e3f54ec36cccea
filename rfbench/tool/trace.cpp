#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/all_pairs.hpp"
#include "core/bfhrf.hpp"
#include "core/frequency_hash.hpp"
#include "core/matrix_io.hpp"
#include "core/serialize.hpp"
#include "core/snapshot.hpp"
#include "core/tree_source.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "phylo/bipartition.hpp"
#include "phylo/newick.hpp"
#include "phylo/vector_codec.hpp"
#include "reference.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace rfbench {
namespace {

namespace core = bfhrf::core;
namespace obs = bfhrf::obs;
namespace phylo = bfhrf::phylo;
namespace serve = bfhrf::serve;

using Clock = std::chrono::steady_clock;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kLoadRequests = 4000;  ///< per connection, per pass

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index into the span log; -1 for a pass root
};

/// In-memory span log. A disabled tracer records nothing, so a pass run
/// through it costs what the calls cost; the difference between traced
/// and untraced passes is the tracing overhead.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t) {
      if (t_.on_) {
        index_ = static_cast<int>(t_.spans_.size());
        t_.spans_.push_back({std::move(name), Clock::now(), {},
                             t_.open_.empty() ? -1 : t_.open_.back()});
        t_.open_.push_back(index_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ >= 0) {
        t_.spans_[static_cast<std::size_t>(index_)].end = Clock::now();
        t_.open_.pop_back();
      }
    }

   private:
    Tracer& t_;
    int index_ = -1;
  };

  void set_enabled(bool on) { on_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Averages computed along two paths agree to rounding.
bool same_averages(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::fabs(x - y) <= 1e-9;
         });
}

/// The layer a span belongs to: the first component of its name.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

struct HistogramTotals {
  double sum = 0;
  std::uint64_t count = 0;
};

HistogramTotals histogram_totals(const obs::Snapshot& snap,
                                 std::string_view name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) {
      return {h.sum, h.count};
    }
  }
  return {};
}

double gauge_value(const obs::Snapshot& snap, std::string_view name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      out.push_back(line);
    }
  }
  return out;
}

/// Splits of a .p2v corpus in one flat arena (the layout add_many and
/// frequency_many take).
struct Arena {
  std::vector<std::uint64_t> words;
  std::size_t keys = 0;
};

/// Inputs shared by every pass, made once before the first.
struct Inputs {
  std::string dir;
  Plan text;    ///< insect Newick reference + daemon query trees
  Plan vec;     ///< insect .p2v reference + query set
  Plan avian;   ///< avian Newick reference
  std::vector<std::string> serve_queries;
  std::vector<phylo::Tree> avian_trees;
  std::vector<std::vector<Split>> avian_splits;  ///< independent reference
  std::size_t n_insect = 0;
};

/// Per-pass values; the reported metrics are medians over traced passes.
using Values = std::map<std::string, double>;

class Pass {
 public:
  Pass(const Inputs& in, Tracer& tracer) : in_(in), tracer_(tracer) {}

  /// Run every stage once; returns false if an output check failed.
  bool run(Values& v) {
    Tracer::Scope pass(tracer_, "pass");
    obs::reset();
    bool ok = text_stages(v);
    ok &= vector_stages(v);
    ok &= avian_stages(v);
    ok &= serve_stages(v);
    return ok;
  }

 private:
  using Scope = Tracer::Scope;

  bool text_stages(Values& v) {
    Scope group(tracer_, "pass.insect_text");
    const std::string path = in_.dir + "/" + in_.text.ref_file;
    taxa_ = std::make_shared<phylo::TaxonSet>();
    auto t0 = Clock::now();
    {
      Scope s(tracer_, "phylo.newick.parse");
      text_trees_ = phylo::read_newick_file(path, taxa_);
    }
    v["phylo.newick.parse_s"] = seconds(t0, Clock::now());
    v["phylo.newick.trees"] = static_cast<double>(text_trees_.size());
    v["phylo.newick.bytes"] =
        static_cast<double>(std::filesystem::file_size(path));

    phylo::BipartitionExtractor extractor;
    const phylo::BipartitionOptions opts{.sorted = false};
    std::size_t splits = 0;
    t0 = Clock::now();
    {
      Scope s(tracer_, "phylo.bipartition.extract");
      for (const auto& t : text_trees_) {
        splits += extractor.extract(t, opts).size();
      }
    }
    v["phylo.bipartition.extract_s"] = seconds(t0, Clock::now());
    v["phylo.bipartition.splits"] = static_cast<double>(splits);
    return text_trees_.size() == in_.text.reference.count;
  }

  Arena extract_p2v(const std::string& path) {
    Arena a;
    core::P2vFileSource src(path);
    phylo::VectorBipartitionExtractor extractor;
    const phylo::BipartitionOptions opts{.sorted = false};
    phylo::TreeVector row;
    while (src.next(row)) {
      const auto& set = extractor.extract(row, opts);
      const auto words = set.arena_view();
      a.words.insert(a.words.end(), words.begin(), words.end());
      a.keys += set.size();
    }
    return a;
  }

  bool vector_stages(Values& v) {
    Scope group(tracer_, "pass.insect_vector");
    const std::string ref = in_.dir + "/" + in_.vec.ref_file;
    const std::string query = in_.dir + "/" + in_.vec.query_file;
    const std::size_t n = in_.n_insect;
    const auto r = static_cast<double>(in_.vec.reference.count);

    auto t0 = Clock::now();
    Arena ref_keys;
    {
      Scope s(tracer_, "phylo.vector_codec.extract");
      ref_keys = extract_p2v(ref);
    }
    v["phylo.vector_codec.extract_s"] = seconds(t0, Clock::now());
    const Arena query_keys = extract_p2v(query);

    core::FrequencyHash hash(n);
    t0 = Clock::now();
    {
      Scope s(tracer_, "core.frequency_hash.add");
      hash.add_many(ref_keys.words.data(), ref_keys.keys, nullptr);
    }
    v["core.frequency_hash.add_s"] = seconds(t0, Clock::now());
    v["core.frequency_hash.unique"] = static_cast<double>(hash.unique_count());
    v["core.frequency_hash.bytes"] = static_cast<double>(hash.memory_bytes());

    std::vector<std::uint32_t> freq(query_keys.keys);
    t0 = Clock::now();
    {
      Scope s(tracer_, "core.frequency_hash.probe");
      hash.frequency_many(query_keys.words.data(), query_keys.keys,
                          freq.data());
    }
    v["core.frequency_hash.probe_s"] = seconds(t0, Clock::now());
    const auto hits = static_cast<double>(
        std::count_if(freq.begin(), freq.end(),
                      [](std::uint32_t f) { return f != 0; }));
    v["core.frequency_hash.hit_ratio"] =
        hits / static_cast<double>(std::max<std::size_t>(freq.size(), 1));

    // The probe results give every query's average directly: r·avg =
    // r·|q| + Σ|t| - 2·Σ freq. It must match what the engine answers.
    const std::size_t per_tree = n - 3;
    std::vector<double> expected(in_.vec.query->count);
    for (std::size_t q = 0; q < expected.size(); ++q) {
      std::uint64_t shared = 0;
      for (std::size_t k = 0; k < per_tree; ++k) {
        shared += freq[q * per_tree + k];
      }
      expected[q] = (2.0 * r * static_cast<double>(per_tree) -
                     2.0 * static_cast<double>(shared)) /
                    r;
    }
    bool ok = ref_keys.keys == in_.vec.reference.count * per_tree &&
              query_keys.keys == expected.size() * per_tree;

    const auto before = obs::snapshot();
    std::vector<core::Bfhrf> engines;
    for (const std::size_t threads : {std::size_t{1}, kThreads}) {
      core::BfhrfOptions o;
      o.threads = threads;
      o.shards = 0;
      engines.emplace_back(n, o);
      core::P2vFileSource src(ref);
      const std::string name = "core.bfhrf.build_t" + std::to_string(threads);
      t0 = Clock::now();
      {
        Scope s(tracer_, name);
        engines.back().build(src);
      }
      v[name + "_s"] = seconds(t0, Clock::now());
    }
    v["bfhrf.build.shard.skew"] =
        gauge_value(obs::snapshot(), "bfhrf.build.shard.skew");
    for (auto& engine : engines) {
      const std::size_t threads = engine.options().threads;
      core::P2vFileSource src(query);
      const std::string name = "core.bfhrf.query_t" + std::to_string(threads);
      std::vector<double> got;
      t0 = Clock::now();
      {
        Scope s(tracer_, name);
        got = engine.query(src);
      }
      v[name + "_s"] = seconds(t0, Clock::now());
      ok &= same_averages(got, expected);
    }
    v["parallel.pipeline.queue.producer_stall_seconds"] =
        histogram_totals(obs::snapshot(),
                         "parallel.pipeline.queue.producer_stall_seconds")
            .sum -
        histogram_totals(before,
                         "parallel.pipeline.queue.producer_stall_seconds")
            .sum;

    const std::string index = in_.dir + "/trace-index.bfh";
    t0 = Clock::now();
    {
      Scope s(tracer_, "core.index_file.save");
      core::save_bfhrf_file(engines.back(), index, core::IndexFormat::Mapped);
    }
    v["core.index_file.save_s"] = seconds(t0, Clock::now());
    v["core.index_file.bytes"] =
        static_cast<double>(std::filesystem::file_size(index));
    core::BfhrfOptions o;
    o.threads = kThreads;
    t0 = Clock::now();
    std::optional<core::Bfhrf> loaded;
    {
      Scope s(tracer_, "core.index_file.open");
      loaded.emplace(core::load_bfhrf_file(index, o));
    }
    v["core.index_file.open_s"] = seconds(t0, Clock::now());
    core::P2vFileSource src(query);
    ok &= same_averages(loaded->query(src), expected);
    return ok;
  }

  bool avian_stages(Values& v) {
    Scope group(tracer_, "pass.avian");
    const auto& trees = in_.avian_trees;
    core::RfMatrix m;
    auto t0 = Clock::now();
    {
      Scope s(tracer_, "core.all_pairs.compute");
      m = core::all_pairs_rf(trees, {.threads = kThreads});
    }
    v["core.all_pairs.compute_s"] = seconds(t0, Clock::now());
    v["core.all_pairs.pairs"] =
        static_cast<double>(trees.size() * (trees.size() - 1) / 2);

    const std::string path = in_.dir + "/trace-matrix.phy";
    const std::vector<std::string> names(trees.size());
    t0 = Clock::now();
    {
      Scope s(tracer_, "core.matrix_io.write");
      std::ofstream out(path);
      core::write_phylip_matrix(out, m, names);
    }
    v["core.matrix_io.write_s"] = seconds(t0, Clock::now());
    v["core.matrix_io.bytes"] =
        static_cast<double>(std::filesystem::file_size(path));

    // First rows against the independent reference.
    bool ok = m.size() == trees.size();
    for (std::size_t i = 0; i < 4 && ok; ++i) {
      for (std::size_t j = 0; j < trees.size(); ++j) {
        ok &= m.at(i, j) == rf(in_.avian_splits[i], in_.avian_splits[j]);
      }
    }
    return ok;
  }

  bool serve_stages(Values& v) {
    Scope group(tracer_, "pass.serve");
    core::BfhrfOptions o;
    o.threads = kThreads;
    o.shards = 0;
    taxa_->freeze();
    std::shared_ptr<const core::IndexSnapshot> snap;
    {
      Scope s(tracer_, "core.snapshot.build");
      snap = core::IndexSnapshot::build(taxa_, text_trees_, o);
    }
    const auto& queries = in_.serve_queries;
    std::vector<double> direct(queries.size());
    std::vector<double> us;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto t0 = Clock::now();
      {
        Scope s(tracer_, "serve.snapshot.query");
        direct[i] = snap->query_newick(queries[i]);
      }
      us.push_back(seconds(t0, Clock::now()) * 1e6);
    }
    v["serve.snapshot.query_us"] = median(us);

    serve::ServeOptions so;
    so.workers = kThreads;
    serve::RfServer server(so);
    server.publish(snap);
    server.start();
    bool ok = true;
    {
      serve::RfClient client("127.0.0.1", server.port());
      us.clear();
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto t0 = Clock::now();
        serve::QueryResult res;
        {
          Scope s(tracer_, "serve.client.rtt");
          res = client.query({queries[i]});
        }
        us.push_back(seconds(t0, Clock::now()) * 1e6);
        ok &= res.avg_rf.size() == 1 && res.avg_rf[0] == direct[i];
      }
      v["serve.client.rtt_us"] = median(us);
    }

    // Two connections, closed loop, as in the serve_insect workload.
    const auto before = obs::snapshot();
    {
      Scope s(tracer_, "serve.server.load");
      std::vector<std::thread> threads;
      std::vector<char> good(kThreads, 1);
      for (std::size_t c = 0; c < kThreads; ++c) {
        threads.emplace_back([&, c] {
          try {
            serve::RfClient client("127.0.0.1", server.port());
            for (std::size_t k = 0; k < kLoadRequests; ++k) {
              const std::size_t q = (k * kThreads + c) % queries.size();
              const auto res = client.query({queries[q]});
              good[c] &= static_cast<char>(res.avg_rf.size() == 1 &&
                                           res.avg_rf[0] == direct[q]);
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "trace: load failed: %s\n", e.what());
            good[c] = 0;
          }
        });
      }
      for (auto& t : threads) {
        t.join();
      }
      ok &= std::all_of(good.begin(), good.end(), [](char g) { return g; });
    }
    server.stop();
    const auto after = obs::snapshot();
    for (const char* name :
         {"bfhrf.serve.queue_seconds", "bfhrf.serve.request_seconds"}) {
      const auto a = histogram_totals(before, name);
      const auto b = histogram_totals(after, name);
      v[name] = b.count > a.count
                    ? (b.sum - a.sum) / static_cast<double>(b.count - a.count)
                    : 0.0;
    }
    text_trees_.clear();
    return ok;
  }

  const Inputs& in_;
  Tracer& tracer_;
  phylo::TaxonSetPtr taxa_;
  std::vector<phylo::Tree> text_trees_;
};

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr Metric kMetrics[] = {
    {"phylo.newick.parse_s", "s"},
    {"phylo.newick.trees", "count"},
    {"phylo.newick.bytes", "bytes"},
    {"phylo.bipartition.extract_s", "s"},
    {"phylo.bipartition.splits", "count"},
    {"phylo.vector_codec.extract_s", "s"},
    {"core.frequency_hash.add_s", "s"},
    {"core.frequency_hash.unique", "count"},
    {"core.frequency_hash.probe_s", "s"},
    {"core.frequency_hash.hit_ratio", "ratio"},
    {"core.frequency_hash.bytes", "bytes"},
    {"core.bfhrf.build_t1_s", "s"},
    {"core.bfhrf.build_t2_s", "s"},
    {"core.bfhrf.query_t1_s", "s"},
    {"core.bfhrf.query_t2_s", "s"},
    {"parallel.pipeline.queue.producer_stall_seconds", "s"},
    {"bfhrf.build.shard.skew", "ratio"},
    {"core.index_file.save_s", "s"},
    {"core.index_file.open_s", "s"},
    {"core.index_file.bytes", "bytes"},
    {"core.all_pairs.compute_s", "s"},
    {"core.all_pairs.pairs", "count"},
    {"core.matrix_io.write_s", "s"},
    {"core.matrix_io.bytes", "bytes"},
    {"serve.snapshot.query_us", "us"},
    {"serve.client.rtt_us", "us"},
    {"bfhrf.serve.queue_seconds", "s"},
    {"bfhrf.serve.request_seconds", "s"},
    {"phylo.self_s", "s"},
    {"core.self_s", "s"},
    {"serve.self_s", "s"},
    {"trace.harness_self_s", "s"},
    {"trace.pass_s", "s"},
    {"trace.overhead_s", "s"},
};

/// Self time of every span (its duration minus its children's), summed by
/// layer; pass and group spans count as the harness.
void add_self_times(const std::vector<Span>& spans, std::size_t first,
                    Values& v) {
  std::vector<double> self(spans.size() - first);
  for (std::size_t i = first; i < spans.size(); ++i) {
    self[i - first] += seconds(spans[i].start, spans[i].end);
    if (spans[i].parent >= static_cast<int>(first)) {
      self[static_cast<std::size_t>(spans[i].parent) - first] -=
          seconds(spans[i].start, spans[i].end);
    }
  }
  for (const char* layer : {"phylo", "core", "serve"}) {
    v[std::string(layer) + ".self_s"] = 0;
  }
  v["trace.harness_self_s"] = 0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    const std::string key =
        layer == "pass" ? "trace.harness_self_s" : layer + ".self_s";
    v[key] += self[i - first];
  }
}

void write_spans(const std::vector<Span>& spans, Clock::time_point epoch,
                 const std::string& path) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch).count();
    };
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d}%s\n",
                  i, spans[i].name.c_str(), us(spans[i].start),
                  us(spans[i].end), spans[i].parent,
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

Inputs make_inputs(const TraceOptions& opts) {
  Inputs in;
  in.dir = opts.dir;
  in.text = plan_for("serve_insect", opts.seed);
  in.vec = plan_for("insect_p2v_query", opts.seed);
  in.avian = plan_for("avian_matrix", opts.seed);
  in.n_insect = in.text.reference.shape.n_taxa;
  write_inputs(in.text, in.dir, kGenerateThreads);
  write_inputs(in.vec, in.dir, kGenerateThreads);
  in.serve_queries = read_lines(in.dir + "/" + in.text.query_file);
  generate(in.avian.reference, kGenerateThreads, [&](phylo::Tree&& t) {
    in.avian_splits.push_back(splits_of(t, in.avian.reference.shape.n_taxa));
    in.avian_trees.push_back(std::move(t));
  });
  return in;
}

}  // namespace

int run_trace(const TraceOptions& opts) {
  const Inputs in = make_inputs(opts);
  Tracer tracer;
  std::map<std::string, std::vector<double>> traced;
  std::vector<double> untraced_pass;
  bool correct = true;
  std::size_t attempted = 0;
  const auto epoch = Clock::now();
  // Alternate traced and untraced passes, at least one of each.
  for (std::size_t i = 0;; ++i) {
    const bool on = i % 2 == 0;
    tracer.set_enabled(on);
    const std::size_t first = tracer.size();
    Values v;
    Pass pass(in, tracer);
    const auto t0 = Clock::now();
    correct &= pass.run(v);
    const double pass_s = seconds(t0, Clock::now());
    if (on) {
      attempted += tracer.size() - first;
      add_self_times(tracer.spans(), first, v);
      v["trace.pass_s"] = pass_s;
      for (const auto& [k, x] : v) {
        traced[k].push_back(x);
      }
    } else {
      untraced_pass.push_back(pass_s);
    }
    if (!on && seconds(epoch, Clock::now()) >= opts.seconds) {
      break;
    }
  }
  write_spans(tracer.spans(), epoch, opts.spans_path);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": 0, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted);
  bool first = true;
  for (const auto& m : kMetrics) {
    const std::string name = m.name;
    const double value =
        name == "trace.overhead_s"
            ? median(traced["trace.pass_s"]) - median(untraced_pass)
            : median(traced[name]);
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, value, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace rfbench
