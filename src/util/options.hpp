#pragma once
/// \file options.hpp
/// \brief Tiny `--key=value` command-line parser used by examples and
/// benchmark harnesses.
///
/// Not a general CLI framework: HPL-style tools take a dozen numeric knobs
/// (N, NB, P, Q, split fraction, ...) and this keeps them uniform across
/// every binary in the repo.

#include <map>
#include <string>
#include <vector>

namespace hplx {

class Options {
 public:
  /// Parse argv. Accepts `--key=value` and bare `--flag` (value "1").
  /// Throws hplx::Error on malformed arguments (anything not starting
  /// with --).
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  /// Numeric getters throw hplx::Error naming the option unless the whole
  /// value is one number: not empty, no leading blank, in range (finite).
  long get_int(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys the caller never read; useful for catching typos in scripts.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
};

}  // namespace hplx
