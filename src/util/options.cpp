#include "util/options.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace hplx {

namespace {
/// strtol/strtod skip leading whitespace; a value must start with its
/// number, as it must end with it.
bool starts_blank(const std::string& v) {
  return !v.empty() && std::isspace(static_cast<unsigned char>(v.front()));
}
}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    HPLX_CHECK_MSG(arg.rfind("--", 0) == 0,
                   "expected --key=value argument, got `" << arg << "`");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Options::has(const std::string& key) const {
  read_[key] = true;
  return values_.count(key) != 0;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long Options::get_int(const std::string& key, long fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // An empty value leaves `end` on the terminating NUL, so it needs its
  // own test; strtol saturates out-of-range values and says so in errno.
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  const bool out_of_range = errno == ERANGE;
  HPLX_CHECK_MSG(!it->second.empty() && !starts_blank(it->second) &&
                     *end == '\0',
                 "option --" << key << " is not an integer: `" << it->second
                             << "`");
  HPLX_CHECK_MSG(!out_of_range,
                 "option --" << key << " is out of range: " << it->second);
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  HPLX_CHECK_MSG(!it->second.empty() && !starts_blank(it->second) &&
                     *end == '\0',
                 "option --" << key << " is not a number: `" << it->second
                             << "`");
  // strtod spells overflow as inf and also parses `inf` and `nan`; no
  // option is meaningful at either.
  HPLX_CHECK_MSG(std::isfinite(v),
                 "option --" << key << " is not finite: " << it->second);
  return v;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  read_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  HPLX_CHECK_MSG(false, "option --" << key << " is not a boolean: " << v);
  return fallback;
}

std::vector<std::string> Options::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    (void)v;
    if (!read_.count(k)) out.push_back(k);
  }
  return out;
}

}  // namespace hplx
