#ifndef SCALEIN_UTIL_STRINGS_H_
#define SCALEIN_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace scalein {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, trimming ASCII whitespace from each piece. Empty
/// pieces are kept (so "a,,b" has three pieces).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses `text` as a decimal uint64: one or more ASCII digits, nothing
/// else (no sign, no whitespace). InvalidArgument when empty, on any other
/// character, or when the value exceeds 2^64-1.
Result<uint64_t> ParseU64(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// 64-bit FNV-1a hash, used as the mixing primitive for tuple hashing.
uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed = 0xcbf29ce484222325ULL);

/// Combines two 64-bit hashes (boost::hash_combine-style).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace scalein

#endif  // SCALEIN_UTIL_STRINGS_H_
