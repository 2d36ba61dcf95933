// Runtime invariant checking.
//
// DFLP is a research library: invariant violations indicate programming
// errors or malformed inputs, and we prefer a loud, always-on failure with a
// useful message over UB-adjacent asserts that vanish in release builds.
// Checks throw `dflp::CheckError` (derived from std::logic_error) so tests
// can assert on them and applications can contain failures per-experiment.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace dflp {

/// Thrown when a DFLP_CHECK fails. Carries the stringified condition,
/// source location and an optional user message.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail
}  // namespace dflp

/// Always-on invariant check. Usage:
///   DFLP_CHECK(x > 0);
///   DFLP_CHECK_MSG(x > 0, "x=" << x);
#define DFLP_CHECK(cond)                                              \
  do {                                                                \
    if (!(cond))                                                      \
      ::dflp::detail::check_failed(#cond, __FILE__, __LINE__, {});    \
  } while (0)

#define DFLP_CHECK_MSG(cond, stream_expr)                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream dflp_os_;                                    \
      dflp_os_ << stream_expr;                                        \
      ::dflp::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                   dflp_os_.str());                   \
    }                                                                 \
  } while (0)

/// Debug-only invariant check: DFLP_CHECK_MSG in builds without NDEBUG,
/// nothing otherwise (the condition is not evaluated, only type-checked).
/// For preconditions a hot internal path relies on but must not pay for in
/// release builds; external input always goes through DFLP_CHECK.
#ifdef NDEBUG
#define DFLP_DCHECK_MSG(cond, stream_expr) \
  do {                                     \
    (void)sizeof(!(cond));                 \
  } while (0)
#else
#define DFLP_DCHECK_MSG(cond, stream_expr) DFLP_CHECK_MSG(cond, stream_expr)
#endif
