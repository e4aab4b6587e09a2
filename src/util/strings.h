// String utilities shared across HistPC modules.
//
// All helpers are allocation-conscious: splitting returns string_views into
// the caller's buffer where lifetimes allow, and joining reserves up front.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace histpc::util {

/// Split `s` on `sep`, returning views into `s`. Empty fields are kept
/// (so "/a//b" split on '/' yields "", "a", "", "b").
std::vector<std::string_view> split_view(std::string_view s, char sep);

/// Split `s` on `sep`, returning owned strings.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Join `parts` with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string join(const std::vector<std::string_view>& parts, std::string_view sep);

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// True if `name` equals `prefix` or begins with `prefix` followed by '/'.
/// This is the path-prefix test used for resource-name containment, so
/// "/Code/a.f" prefixes "/Code/a.f/f1" but not "/Code/a.fx".
bool is_path_prefix(std::string_view prefix, std::string_view name);

/// Similarity in [0,1]: 1 - (Levenshtein distance)/max_len (1.0 for two
/// empty strings); used by the similarity-based auto-mapper.
double name_similarity(std::string_view a, std::string_view b);

/// Format a double with `prec` digits after the decimal point.
std::string fmt_double(double v, int prec = 1);

/// Format a fraction as a percentage string, e.g. 0.935 -> "93.5%".
std::string fmt_percent(double fraction, int prec = 1);

/// Format seconds with a unit scaled to the magnitude: "85ns", "3.142us",
/// "12.70ms", "2.400s". The same function renders quantiles in both the
/// perf-report table and its tests, so a table cell and the --json value
/// it mirrors stay bit-identical (one double, one formatter).
std::string fmt_seconds(double seconds);

}  // namespace histpc::util
