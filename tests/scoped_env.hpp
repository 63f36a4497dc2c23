#pragma once
/// \file scoped_env.hpp
/// \brief Test helper: unset an environment variable for one scope.

#include <cstdlib>
#include <optional>
#include <string>

namespace hplx {

/// Unsets `name` for the guard's lifetime and restores its old value
/// after, so a test that needs a checker off stays off under a gate sweep
/// that exports the checker's variable for the whole suite.
class ScopedUnsetEnv {
 public:
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
    unsetenv(name);
  }
  ~ScopedUnsetEnv() {
    if (saved_) setenv(name_, saved_->c_str(), 1);
  }
  ScopedUnsetEnv(const ScopedUnsetEnv&) = delete;
  ScopedUnsetEnv& operator=(const ScopedUnsetEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

}  // namespace hplx
