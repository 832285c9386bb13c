#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace chase::env {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void reject(const char* name, std::string_view text, const std::string& why,
            const std::string& expected) {
  std::ostringstream os;
  os << name << "=\"" << text << "\": " << why << " (expected " << expected
     << ")";
  throw ConfigError(os.str());
}

long long positive_int(const char* name, const char* text) {
  const char* safe = text == nullptr ? "" : text;
  const long long parsed =
      ranged_int(name, safe, 1,
                 std::numeric_limits<long long>::max());
  return parsed;
}

std::optional<long long> positive_env(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return std::nullopt;
  return positive_int(name, text);
}

std::optional<std::string> text_env(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const std::string_view trimmed = trim(text);
  if (trimmed.empty()) return std::nullopt;
  return std::string(trimmed);
}

std::optional<bool> boolean_env(const char* name) {
  const std::optional<std::string> text = text_env(name);
  if (!text) return std::nullopt;
  const std::string_view v = *text;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  reject(name, v, "not a boolean",
         "0 | 1 | true | false | yes | no | on | off");
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    const std::string_view token =
        text.substr(start, pos == std::string_view::npos ? std::string_view::npos
                                                         : pos - start);
    out.emplace_back(trim(token));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

long long ranged_int(const char* name, std::string_view token, long long lo,
                     long long hi) {
  std::ostringstream range;
  range << "an integer in [" << lo << ", " << hi << "]";
  const std::string expected = range.str();
  const std::string text(trim(token));
  if (text.empty()) reject(name, token, "empty value", expected);
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str()) reject(name, text, "not a number", expected);
  if (*end != '\0') reject(name, text, "trailing junk", expected);
  if (errno == ERANGE) reject(name, text, "out of range", expected);
  if (parsed < lo || parsed > hi) {
    reject(name, text, "outside the accepted range", expected);
  }
  return parsed;
}

}  // namespace chase::env
