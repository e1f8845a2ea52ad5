// Contract-check macros, active in all build types.
//
// FDQOS_ASSERT guards internal invariants; FDQOS_REQUIRE guards caller-facing
// preconditions (and reads as such at call sites). Both abort with location
// info — in a simulator, continuing past a broken invariant silently corrupts
// every downstream measurement, so failing fast is the safer default.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace fdqos::detail {

[[noreturn]] inline void assert_fail(const char* kind, const char* expr,
                                     const char* file, int line) {
  std::fprintf(stderr, "fdqos: %s failed: %s at %s:%d\n", kind, expr, file, line);
  std::abort();
}

}  // namespace fdqos::detail

#define FDQOS_ASSERT(expr)                                                  \
  do {                                                                      \
    if (!(expr))                                                            \
      ::fdqos::detail::assert_fail("assertion", #expr, __FILE__, __LINE__); \
  } while (0)

#define FDQOS_REQUIRE(expr)                                                    \
  do {                                                                         \
    if (!(expr))                                                               \
      ::fdqos::detail::assert_fail("precondition", #expr, __FILE__, __LINE__); \
  } while (0)

// Debug-only invariant check: compiled out under NDEBUG. For checks on hot
// paths (per-event, per-message) that would be too costly to keep in release
// builds but whose failure means the simulation is already corrupt — e.g. an
// event scheduled behind the simulator's clock.
#ifndef NDEBUG
#define FDQOS_DASSERT(expr) FDQOS_ASSERT(expr)
#else
#define FDQOS_DASSERT(expr) \
  do {                      \
    (void)sizeof(expr);     \
  } while (0)
#endif
