// rfbench_tool: the benchmark's own helper program (driven by run.py).
//
//   rfbench_tool gen --workload W --seed S --dir D
//   rfbench_tool check-avg --workload W --seed S --answers FILE
//   rfbench_tool check-matrix --workload W --seed S --matrix FILE
//   rfbench_tool check-serve --responses FILE --bulk FILE
//   rfbench_tool load --port P --queries FILE --responses FILE
//   rfbench_tool trace --seed S --seconds T --dir D --spans FILE
//
// Checks exit 0 when the output is correct and 1 (printing the fault)
// when it is not; 2 is a usage or I/O error.
#include <cstdio>
#include <map>
#include <string>

#include "checks.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

using Args = std::map<std::string, std::string>;

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw bfhrf::InvalidArgument("expected --key value, got '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  return args;
}

const std::string& need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) {
    throw bfhrf::InvalidArgument("missing --" + key);
  }
  return it->second;
}

int report(const std::string& fault) {
  if (fault.empty()) {
    std::printf("ok\n");
    return 0;
  }
  std::printf("FAIL: %s\n", fault.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rfbench;
  try {
    if (argc < 2) {
      throw bfhrf::InvalidArgument("missing command");
    }
    const std::string cmd = argv[1];
    const Args args = parse(argc, argv);
    const auto seed = [&] {
      return static_cast<std::uint64_t>(
          bfhrf::util::parse_size(need(args, "seed")));
    };
    if (cmd == "gen") {
      const Plan plan = plan_for(need(args, "workload"), seed());
      const std::string dir = need(args, "dir");
      write_inputs(plan, dir, kGenerateThreads);
      if (plan.ref_file.ends_with(".p2v")) {
        write_empty_p2v(plan.reference.shape, dir + "/empty.p2v");
      }
      std::printf("{\"ref\": \"%s\", \"query\": \"%s\", \"r\": %zu, "
                  "\"q\": %zu}\n",
                  plan.ref_file.c_str(), plan.query_file.c_str(),
                  plan.reference.count,
                  plan.query ? plan.query->count : plan.reference.count);
      return 0;
    }
    if (cmd == "check-avg") {
      return report(check_averages(plan_for(need(args, "workload"), seed()),
                                   need(args, "answers")));
    }
    if (cmd == "check-matrix") {
      return report(check_matrix(plan_for(need(args, "workload"), seed()),
                                 need(args, "matrix")));
    }
    if (cmd == "check-serve") {
      return report(
          check_responses(need(args, "responses"), need(args, "bulk")));
    }
    if (cmd == "load") {
      LoadOptions o;
      o.port = static_cast<std::uint16_t>(
          bfhrf::util::parse_size(need(args, "port")));
      o.queries_path = need(args, "queries");
      o.responses_path = need(args, "responses");
      return run_load(o);
    }
    if (cmd == "trace") {
      TraceOptions o;
      o.seed = seed();
      o.seconds = std::stod(need(args, "seconds"));
      o.dir = need(args, "dir");
      o.spans_path = need(args, "spans");
      return run_trace(o);
    }
    throw bfhrf::InvalidArgument("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfbench_tool: %s\n", e.what());
    return 2;
  }
}
