// A flag raised for the lifetime of a scope.
#pragma once

namespace surgeon::support {

/// Raises `flag` for its lifetime, however the scope is left. The watchers'
/// control operations (a checkpoint, a restore, a group rebuild) pump the
/// scheduler; ticks that fire under one see the flag and skip their work
/// instead of starting a second operation under the first.
class FlagScope {
 public:
  explicit FlagScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~FlagScope() { flag_ = false; }
  FlagScope(const FlagScope&) = delete;
  FlagScope& operator=(const FlagScope&) = delete;

 private:
  bool& flag_;
};

}  // namespace surgeon::support
