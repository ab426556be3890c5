#include "util/string_util.h"

#include <cctype>

namespace cem {

std::vector<std::string> Split(std::string_view text, char delimiter) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::vector<std::string> CharNgrams(std::string_view text, size_t n) {
  std::vector<std::string> out;
  if (text.empty() || n == 0) return out;
  if (text.size() <= n) {
    out.emplace_back(text);
    return out;
  }
  out.reserve(text.size() - n + 1);
  for (size_t i = 0; i + n <= text.size(); ++i) {
    out.emplace_back(text.substr(i, n));
  }
  return out;
}

}  // namespace cem
