#pragma once

/// \file vecmath.h
/// Batched elementwise exp and log for hot numeric loops. The GP solver
/// evaluates every log-sum-exp function of a problem at once: one exp over
/// all its terms, one log over the per-function sums and one over the
/// barrier slacks. These helpers expose that work as flat loops the
/// compiler can vectorize against libmvec (glibc's SIMD libm) where
/// available, with a plain scalar build everywhere else.
///
/// The translation unit is compiled with -ffast-math on GNU/x86-64, so
/// callers must pass finite inputs, and positive ones to log_batch; NaN
/// and Inf are not propagated reliably. Results may differ from scalar
/// std::exp / std::log by a few ulp (tests/vecmath_test.cpp bounds it at
/// 4), and a given binary always evaluates deterministically.

#include <cstddef>

namespace smart::util {

/// out[k] = exp(in[k]) for k in [0, n). In-place use (out == in) is allowed.
void exp_batch(const double* in, double* out, size_t n);

/// out[k] = log(in[k]) for k in [0, n); every in[k] must be finite and
/// positive. In-place use (out == in) is allowed.
void log_batch(const double* in, double* out, size_t n);

}  // namespace smart::util
