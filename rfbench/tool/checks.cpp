#include "checks.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "reference.hpp"
#include "util/rng.hpp"

namespace rfbench {
namespace {

struct Answer {
  std::string text;  ///< as printed
  double value = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse "<index>\t<value>" lines; the index must count up from 0 when
/// `sequential`. Returns false (with `error` set) on malformed input.
bool read_indexed(const std::string& path, bool sequential,
                  std::vector<std::size_t>& indices,
                  std::vector<Answer>& answers, std::string& error) {
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    std::size_t index = 0;
    double value = 0;
    const char* end = line.data() + line.size();
    if (tab == std::string::npos ||
        std::from_chars(line.data(), line.data() + tab, index).ptr !=
            line.data() + tab ||
        std::from_chars(line.data() + tab + 1, end, value).ptr != end) {
      error = path + ": malformed line '" + line + "'";
      return false;
    }
    if (sequential && index != answers.size()) {
      error = path + ": line " + std::to_string(answers.size()) +
              " has index " + std::to_string(index);
      return false;
    }
    indices.push_back(index);
    answers.push_back({line.substr(tab + 1), value});
  }
  return true;
}

std::vector<std::vector<Split>> splits_of_slice(const Slice& slice) {
  std::vector<std::vector<Split>> out;
  out.reserve(slice.count);
  generate(slice, kGenerateThreads, [&](bfhrf::phylo::Tree&& t) {
    out.push_back(splits_of(t, slice.shape.n_taxa));
  });
  return out;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

std::string check_averages(const Plan& plan,
                           const std::string& answers_path) {
  std::vector<std::size_t> indices;
  std::vector<Answer> answers;
  std::string error;
  if (!read_indexed(answers_path, true, indices, answers, error)) {
    return error;
  }
  const Slice& queries = plan.query ? *plan.query : plan.reference;
  if (answers.size() != queries.count) {
    return "expected " + std::to_string(queries.count) + " answers, got " +
           std::to_string(answers.size());
  }
  const auto r = static_cast<double>(plan.reference.count);
  const double max_rf = 2.0 * static_cast<double>(plan.reference.shape.n_taxa - 3);
  // %.6f output: each printed average is within 5e-7 of the true one.
  const double print_tol = 5.0e-7 + 1e-9;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const double avg = answers[i].value;
    if (!(avg >= 0.0 && avg <= max_rf)) {
      return "query " + std::to_string(i) + ": avgRF " + answers[i].text +
             " outside [0, 2(n-3)]";
    }
    const double total = avg * r;
    const double even = 2.0 * std::round(total / 2.0);
    if (std::fabs(total - even) > print_tol * r) {
      return "query " + std::to_string(i) + ": r*avgRF = " +
             fmt("%.4f", total) + " is not an even integer";
    }
  }

  const auto ref_splits = splits_of_slice(plan.reference);
  SplitCounts counts;
  for (const auto& s : ref_splits) {
    counts.add(s);
  }
  const auto query_splits =
      plan.query ? splits_of_slice(*plan.query)
                 : std::vector<std::vector<Split>>{};
  const auto& qs = plan.query ? query_splits : ref_splits;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const double expected = static_cast<double>(counts.sum_rf(qs[i])) / r;
    if (std::fabs(answers[i].value - expected) > print_tol) {
      return "query " + std::to_string(i) + ": avgRF " + answers[i].text +
             ", reference " + fmt("%.6f", expected);
    }
  }
  return {};
}

std::string check_matrix(const Plan& plan, const std::string& phylip_path) {
  constexpr std::size_t kSampleRows = 64;
  const std::string text = read_file(phylip_path);
  const char* p = text.data();
  const char* const end = text.data() + text.size();
  const auto skip_space = [&] {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  };
  std::size_t r = 0;
  skip_space();
  const auto head = std::from_chars(p, end, r);
  if (head.ec != std::errc{}) {
    return "matrix: missing size line";
  }
  p = head.ptr;
  if (r != plan.reference.count) {
    return "matrix: size " + std::to_string(r) + ", expected " +
           std::to_string(plan.reference.count);
  }
  const std::size_t n = plan.reference.shape.n_taxa;
  const double max_rf = 2.0 * static_cast<double>(n - 3);
  std::vector<std::uint32_t> m(r * r);
  for (std::size_t i = 0; i < r; ++i) {
    skip_space();
    while (p < end && *p != ' ' && *p != '\t') {
      ++p;  // row name
    }
    for (std::size_t j = 0; j < r; ++j) {
      skip_space();
      double v = 0;
      const auto res = std::from_chars(p, end, v);
      if (res.ec != std::errc{}) {
        return "matrix: row " + std::to_string(i) + " is short";
      }
      p = res.ptr;
      if (!(v >= 0.0 && v <= max_rf) || v != std::floor(v) ||
          std::fmod(v, 2.0) != 0.0) {
        return "matrix: entry (" + std::to_string(i) + "," +
               std::to_string(j) + ") = " + fmt("%g", v) +
               " is not an even integer in [0, 2(n-3)]";
      }
      m[i * r + j] = static_cast<std::uint32_t>(v);
    }
  }
  skip_space();
  if (p != end) {
    return "matrix: trailing data after row " + std::to_string(r - 1);
  }
  for (std::size_t i = 0; i < r; ++i) {
    if (m[i * r + i] != 0) {
      return "matrix: diagonal (" + std::to_string(i) + ") is not 0";
    }
    for (std::size_t j = i + 1; j < r; ++j) {
      if (m[i * r + j] != m[j * r + i]) {
        return "matrix: (" + std::to_string(i) + "," + std::to_string(j) +
               ") != (" + std::to_string(j) + "," + std::to_string(i) + ")";
      }
    }
  }

  const auto splits = splits_of_slice(plan.reference);
  bfhrf::util::Rng rng(plan.reference.seed ^ 0x5A3B1E5ULL);
  std::set<std::size_t> rows;
  while (rows.size() < std::min(kSampleRows, r)) {
    rows.insert(static_cast<std::size_t>(rng.below(r)));
  }
  for (const std::size_t i : rows) {
    for (std::size_t j = 0; j < r; ++j) {
      const std::size_t expected = rf(splits[i], splits[j]);
      if (m[i * r + j] != expected) {
        return "matrix: (" + std::to_string(i) + "," + std::to_string(j) +
               ") = " + std::to_string(m[i * r + j]) + ", reference " +
               std::to_string(expected);
      }
    }
  }
  return {};
}

std::string check_responses(const std::string& responses_path,
                            const std::string& bulk_path) {
  std::vector<std::size_t> bulk_idx;
  std::vector<Answer> bulk;
  std::vector<std::size_t> idx;
  std::vector<Answer> responses;
  std::string error;
  if (!read_indexed(bulk_path, true, bulk_idx, bulk, error) ||
      !read_indexed(responses_path, false, idx, responses, error)) {
    return error;
  }
  if (responses.empty()) {
    return "no daemon responses recorded";
  }
  for (std::size_t k = 0; k < responses.size(); ++k) {
    if (idx[k] >= bulk.size()) {
      return "response " + std::to_string(k) + ": query index " +
             std::to_string(idx[k]) + " out of range";
    }
    const std::string got = fmt("%.6f", responses[k].value);
    if (got != bulk[idx[k]].text) {
      return "response " + std::to_string(k) + " (query " +
             std::to_string(idx[k]) + "): daemon " + got + ", bulk CLI " +
             bulk[idx[k]].text;
    }
  }
  return {};
}

}  // namespace rfbench
