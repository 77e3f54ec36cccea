#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/client.hpp"

namespace rfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWarmup = 200;  ///< requests per connection
constexpr std::size_t kRound = 1000;  ///< requests per connection

struct Sample {
  std::size_t query = 0;
  double value = 0;
  double latency_us = 0;
  bool ok = false;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace

int run_load(const LoadOptions& opts) {
  std::vector<std::string> queries;
  {
    std::ifstream in(opts.queries_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) {
        queries.push_back(line);
      }
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "load: nothing to send\n");
    return 2;
  }
  std::vector<bfhrf::serve::RfClient> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back("127.0.0.1", opts.port);
  }

  // One round: every connection sends `count` requests closed-loop; the
  // query for request k on connection c is fixed by (first, k, c), so the
  // whole run sends the same sequence whatever the timing.
  const auto run_round = [&](std::size_t first, std::size_t count,
                             std::vector<Sample>* out) {
    std::vector<std::vector<Sample>> per(kConnections);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        auto& samples = per[c];
        samples.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
          Sample s;
          s.query = (first + k * kConnections + c) % queries.size();
          const auto t0 = Clock::now();
          try {
            const auto res = clients[c].query({queries[s.query]});
            s.ok = res.avg_rf.size() == 1;
            s.value = s.ok ? res.avg_rf[0] : 0.0;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "load: request failed: %s\n", e.what());
          }
          s.latency_us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0)
                  .count();
          samples.push_back(s);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    if (out != nullptr) {
      for (const auto& samples : per) {
        out->insert(out->end(), samples.begin(), samples.end());
      }
    }
  };

  run_round(0, kWarmup, nullptr);
  std::printf("ready\n");
  std::fflush(stdout);
  std::vector<Sample> samples;
  std::size_t first = 0;
  std::string command;
  while (std::getline(std::cin, command) && command == "round") {
    const auto t0 = Clock::now();
    const std::size_t begin = samples.size();
    run_round(first, kRound, &samples);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::vector<double> us;
    for (std::size_t i = begin; i < samples.size(); ++i) {
      us.push_back(samples[i].latency_us);
    }
    std::printf("{\"s\": %.9g, \"requests\": %zu, \"p50_us\": %.9g}\n",
                seconds, kRound * kConnections, percentile(us, 0.5));
    std::fflush(stdout);
    first += kRound * kConnections;
  }

  std::ofstream resp(opts.responses_path);
  std::vector<double> latencies;
  std::size_t failed = 0;
  latencies.reserve(samples.size());
  for (const auto& s : samples) {
    if (!s.ok) {
      ++failed;
      continue;
    }
    latencies.push_back(s.latency_us);
    char line[64];
    std::snprintf(line, sizeof line, "%zu\t%.17g\n", s.query, s.value);
    resp << line;
  }
  resp.flush();
  std::printf("{\"requests\": %zu, \"failed\": %zu, "
              "\"latency_p50_us\": %.9g, \"latency_p99_us\": %.9g}\n",
              samples.size(), failed, percentile(latencies, 0.5),
              percentile(latencies, 0.99));
  return resp ? 0 : 2;
}

}  // namespace rfbench
