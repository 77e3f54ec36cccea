// Output checks that do not trust the program. Each returns an empty
// string when the output is correct, else a description of the first
// fault found.
#pragma once

#include <cstddef>
#include <string>

#include "inputs.hpp"

namespace rfbench {

/// bfhrf_cli average-RF output ("<index>\t<avg>" per query tree) against
/// the method's properties — 0 <= avg <= 2(n-3) and r·avg an even
/// integer — and against the independent reference for every query.
[[nodiscard]] std::string check_averages(const Plan& plan,
                                         const std::string& answers_path);

/// A PHYLIP RF matrix: square, symmetric, zero diagonal, even entries no
/// larger than 2(n-3); 64 seeded rows recomputed in full.
[[nodiscard]] std::string check_matrix(const Plan& plan,
                                       const std::string& phylip_path);

/// Daemon responses ("<query index>\t<avg>" per request) must each equal
/// the bulk CLI answer for the same query tree.
[[nodiscard]] std::string check_responses(const std::string& responses_path,
                                          const std::string& bulk_path);

}  // namespace rfbench
