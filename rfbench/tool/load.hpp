// Closed-loop load against a running bfhrf_serve: 2 clients in one
// process, each sending one Newick tree per request and waiting for the
// answer before the next. After 200 warm-up requests per connection it
// prints "ready"; then each line "round" on stdin runs one round of 1000
// requests per connection and prints its wall time and median latency as
// one JSON line. Any other line or the end of stdin ends the load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace rfbench {

struct LoadOptions {
  std::uint16_t port = 0;
  std::string queries_path;    ///< one Newick tree per line
  std::string responses_path;  ///< "<query index>\t<avg>" per request
};

/// Run the load, then print one JSON object with the request count, the
/// failures and the latency percentiles over all rounds.
/// Returns the process exit code.
int run_load(const LoadOptions& opts);

}  // namespace rfbench
