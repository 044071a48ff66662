#include "util/vecmath.h"

#include <cmath>

// On GNU/x86-64 this translation unit is compiled with
// -ffast-math -fopenmp-simd (scoped to this file only — see
// src/util/CMakeLists.txt) so the exp and log calls below vectorize
// against libmvec. SMART_VECMATH_CLONES additionally emits an AVX2 clone
// next to the baseline SSE one, dispatched once at load time via ifunc.
// `omp simd` vectorizes at -O2 as well, where GCC's cost model would not
// (it needs a scalar tail and, for out != in, an aliasing check); lane k
// reads only in[k] before writing out[k], so in-place use is safe.

#if defined(SMART_VECMATH_CLONES)
#define SMART_VECMATH_TARGETS __attribute__((target_clones("avx2", "default")))
#define SMART_VECMATH_SIMD _Pragma("omp simd")
#else
#define SMART_VECMATH_TARGETS
#define SMART_VECMATH_SIMD
#endif

namespace smart::util {

SMART_VECMATH_TARGETS
void exp_batch(const double* in, double* out, size_t n) {
  SMART_VECMATH_SIMD
  for (size_t k = 0; k < n; ++k) out[k] = std::exp(in[k]);
}

SMART_VECMATH_TARGETS
void log_batch(const double* in, double* out, size_t n) {
  SMART_VECMATH_SIMD
  for (size_t k = 0; k < n; ++k) out[k] = std::log(in[k]);
}

}  // namespace smart::util
