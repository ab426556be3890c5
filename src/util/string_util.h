#ifndef CEM_UTIL_STRING_UTIL_H_
#define CEM_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cem {

/// Splits `text` on `delimiter`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// ASCII lower-cases `text`.
std::string ToLower(std::string_view text);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Returns true if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Returns character n-grams of length `n`; if the string is shorter than
/// `n` the whole string is the single gram.
std::vector<std::string> CharNgrams(std::string_view text, size_t n);

}  // namespace cem

#endif  // CEM_UTIL_STRING_UTIL_H_
