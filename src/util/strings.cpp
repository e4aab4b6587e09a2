#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace histpc::util {

std::vector<std::string_view> split_view(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (auto v : split_view(s, sep)) out.emplace_back(v);
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

namespace {
template <typename Vec>
std::string join_impl(const Vec& parts, std::string_view sep) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size() + sep.size();
  std::string out;
  out.reserve(total);
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}
std::string join(const std::vector<std::string_view>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool is_path_prefix(std::string_view prefix, std::string_view name) {
  if (prefix.empty()) return true;
  if (!starts_with(name, prefix)) return false;
  return name.size() == prefix.size() || name[prefix.size()] == '/';
}

double name_similarity(std::string_view a, std::string_view b) {
  // Levenshtein distance by the classic two-row dynamic program; sizes
  // here are resource-name sized (tens of chars), so quadratic time is
  // fine.
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t longest = b.size();
  if (longest == 0) return 1.0;
  std::vector<std::size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      std::size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return 1.0 - static_cast<double>(prev[a.size()]) / static_cast<double>(longest);
}

std::string fmt_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

std::string fmt_percent(double fraction, int prec) {
  return fmt_double(fraction * 100.0, prec) + "%";
}

std::string fmt_seconds(double seconds) {
  const double mag = seconds < 0 ? -seconds : seconds;
  char buf[64];
  if (mag < 1e-9) {
    // Sub-ns values only arise from division artifacts; show raw seconds.
    std::snprintf(buf, sizeof buf, "%.3gs", seconds);
  } else if (mag < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.0fns", seconds * 1e9);
  } else if (mag < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.3fus", seconds * 1e6);
  } else if (mag < 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", seconds);
  }
  return buf;
}

}  // namespace histpc::util
