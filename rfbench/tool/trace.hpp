// The traced run: the benchmark's inputs driven in-process through the
// public functions of each layer (phylo, core, parallel, serve), one span
// per call, reported as per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

namespace rfbench {

struct TraceOptions {
  std::uint64_t seed = 0;
  double seconds = 10;
  std::string dir;         ///< scratch directory for inputs and outputs
  std::string spans_path;  ///< span log (JSON) written at the end
};

/// Run the traced passes and print one JSON object: the per-layer
/// metrics, the operations attempted and failed, and whether every output
/// checked out. Returns the process exit code.
int run_trace(const TraceOptions& opts);

}  // namespace rfbench
