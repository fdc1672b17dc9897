#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace ipa::strings {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_trimmed(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto& field : split(s, sep)) {
    const std::string_view t = trim(field);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  }
  return true;
}

std::string replace_all(std::string s, std::string_view from, std::string_view to) {
  if (from.empty()) return s;
  std::string out;
  out.reserve(s.size());
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string::npos) {
      out.append(s, start, std::string::npos);
      return out;
    }
    out.append(s, start, pos - start);
    out.append(to);
    start = pos + from.size();
  }
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) out += format("\\u%04x", c);
        else out.push_back(c);
    }
  }
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KB", "MB", "GB", "TB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return format("%llu B", static_cast<unsigned long long>(bytes));
  return format("%.1f %s", value, kUnits[unit]);
}

std::string human_duration_s(double seconds) {
  if (seconds < 0) return "-";
  if (seconds < 120.0) return format("%.0f s", seconds);
  const auto total = static_cast<std::int64_t>(seconds + 0.5);
  const std::int64_t hours = total / 3600;
  const std::int64_t mins = (total % 3600) / 60;
  const std::int64_t secs = total % 60;
  if (hours > 0) return format("%lld h %02lld min", static_cast<long long>(hours), static_cast<long long>(mins));
  if (secs == 0) return format("%lld min", static_cast<long long>(mins));
  return format("%lld min %lld s", static_cast<long long>(mins), static_cast<long long>(secs));
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  s = trim(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  s = trim(s);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_f64(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 11+; use it directly.
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool parse_bool(std::string_view s, bool& out) {
  const std::string v = to_lower(trim(s));
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    out = false;
    return true;
  }
  return false;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer matcher with backtracking over the last '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace ipa::strings
