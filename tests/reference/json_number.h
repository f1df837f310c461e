// Reference number printer: the JSON writer's shortest-round-trip search as
// it was before it took the starting digit count from std::to_chars — try
// %.1g through %.17g and keep the first that strtod reads back exactly.
// JsonNumberToString (common/json.cc) must print the same bytes
// (tests/test_api_serialization.cc).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace scorpion {
namespace reference {

inline std::string JsonNumberToString(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == 0.0) return std::signbit(v) ? "-0" : "0";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace reference
}  // namespace scorpion
