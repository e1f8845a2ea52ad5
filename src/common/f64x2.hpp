// Two doubles side by side, for the ARIMA refit's reduction kernels.
//
// A GCC/Clang vector extension (two SSE2 lanes on x86-64). Each lane is
// ordinary IEEE double arithmetic: a lane of a + b or a * b rounds exactly
// like the scalar expression. So a kernel that gives each independent sum
// its own lane, and adds that lane's terms in the scalar loop's order,
// reproduces the scalar loop bit for bit. Lanes never hold two parts of
// one sum. No FMA is involved as long as the target has none in its
// baseline ISA (x86-64 has not), so the compiler cannot contract a * b + c.
#pragma once

#include <cstring>

namespace fdqos {

using f64x2 = double __attribute__((vector_size(16)));

// Unaligned load of p[0], p[1] into lanes 0, 1.
inline f64x2 load_f64x2(const double* p) {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_f64x2(double* p, f64x2 v) { std::memcpy(p, &v, sizeof v); }

inline f64x2 splat_f64x2(double x) { return f64x2{x, x}; }

}  // namespace fdqos
