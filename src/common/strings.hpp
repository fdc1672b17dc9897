// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ipa::strings {

/// Split `s` on `sep`; empty fields are kept ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Split on `sep`, dropping empty fields and trimming whitespace per field.
std::vector<std::string> split_trimmed(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

std::string to_lower(std::string_view s);
std::string to_upper(std::string_view s);

/// Case-insensitive ASCII equality (HTTP header names etc).
bool iequals(std::string_view a, std::string_view b);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// `text` escaped for a JSON string literal (quotes, backslashes, control
/// characters).
std::string json_escape(std::string_view text);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "3.2 KB", "1.4 MB", ... for byte counts.
std::string human_bytes(std::uint64_t bytes);

/// "78 s", "4 min 19 s", "45 min", "1 h 05 min" in the paper's table style.
std::string human_duration_s(double seconds);

/// Parse helpers returning false on malformed input (no exceptions).
bool parse_i64(std::string_view s, std::int64_t& out);
bool parse_u64(std::string_view s, std::uint64_t& out);
bool parse_f64(std::string_view s, double& out);
bool parse_bool(std::string_view s, bool& out);

/// Glob-style match supporting '*' and '?' (used by catalog queries).
bool glob_match(std::string_view pattern, std::string_view text);

}  // namespace ipa::strings
