// Decimal text <-> double for the spec grammars (codec specs and the
// population= sub-grammar): one strict parser and one shortest round-trip
// formatter, so a canonical spec string is stable and every accepted literal
// names exactly one value.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace fedsz {

/// All of `text` as a finite double; nullopt on empty text, trailing
/// characters, or a literal strtod flags as out of range (ERANGE:
/// overflow, or underflow such as 1e-400).
inline std::optional<double> parse_decimal(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size() || !std::isfinite(value))
    return std::nullopt;
  return value;
}

/// Shortest decimal rendering that round-trips through strtod.
inline std::string format_decimal(double value) {
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace fedsz
