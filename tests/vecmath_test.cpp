// Unit tests for util/vecmath: the batched exp and log of the GP barrier
// kernel must agree with scalar std::exp / std::log to a few ulp at every
// length (vector body and scalar tail alike) and when used in place.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.h"
#include "util/vecmath.h"

namespace smart::util {
namespace {

constexpr int64_t kMaxUlp = 4;
const size_t kLengths[] = {0, 1, 3, 5, 1027};

/// Distance in units in the last place between two finite doubles.
int64_t ulp_distance(double a, double b) {
  auto ordered = [](double x) {
    int64_t i;
    std::memcpy(&i, &x, sizeof i);
    return i < 0 ? INT64_MIN - i : i;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// Exponents as the kernel feeds them (z - max <= 0, down to deep
/// underflow of the weight) plus positive ones.
std::vector<double> exp_inputs(size_t n) {
  Rng rng(0xe4b0 + n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.chance(0.8) ? rng.uniform(-700.0, 0.0)
                                        : rng.uniform(0.0, 700.0);
  if (n > 0) x[0] = 0.0;  // the largest term of every function
  return x;
}

/// Positive inputs: sums in [1, K], slacks from 1e-12 up, and a spread of
/// magnitudes over the whole normal range.
std::vector<double> log_inputs(size_t n) {
  Rng rng(0x10b0 + n);
  std::vector<double> x(n);
  for (auto& v : x) {
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.3)
      v = rng.uniform(1.0, 64.0);
    else if (r < 0.6)
      v = std::exp(rng.uniform(std::log(1e-12), 0.0));
    else
      v = std::exp(rng.uniform(-700.0, 700.0));
  }
  if (n > 0) x[0] = 1.0;
  return x;
}

TEST(VecmathTest, ExpBatchMatchesStdExp) {
  for (const size_t n : kLengths) {
    const auto in = exp_inputs(n);
    std::vector<double> out(n, -1.0);
    exp_batch(in.data(), out.data(), n);
    for (size_t k = 0; k < n; ++k)
      EXPECT_LE(ulp_distance(out[k], std::exp(in[k])), kMaxUlp)
          << "n " << n << " k " << k << " x " << in[k];
  }
}

TEST(VecmathTest, LogBatchMatchesStdLog) {
  for (const size_t n : kLengths) {
    const auto in = log_inputs(n);
    std::vector<double> out(n, -1.0);
    log_batch(in.data(), out.data(), n);
    for (size_t k = 0; k < n; ++k)
      EXPECT_LE(ulp_distance(out[k], std::log(in[k])), kMaxUlp)
          << "n " << n << " k " << k << " x " << in[k];
  }
}

TEST(VecmathTest, InPlaceMatchesOutOfPlace) {
  for (const size_t n : kLengths) {
    const auto ein = exp_inputs(n);
    std::vector<double> eout(n), einplace = ein;
    exp_batch(ein.data(), eout.data(), n);
    exp_batch(einplace.data(), einplace.data(), n);
    EXPECT_EQ(einplace, eout) << "exp, n " << n;

    const auto lin = log_inputs(n);
    std::vector<double> lout(n), linplace = lin;
    log_batch(lin.data(), lout.data(), n);
    log_batch(linplace.data(), linplace.data(), n);
    EXPECT_EQ(linplace, lout) << "log, n " << n;
  }
}

TEST(VecmathTest, LeavesEntriesPastTheLengthAlone) {
  std::vector<double> buf = {0.0, 0.0, 0.0, 7.0};
  exp_batch(buf.data(), buf.data(), 3);
  EXPECT_EQ(buf, (std::vector<double>{1.0, 1.0, 1.0, 7.0}));
  log_batch(buf.data(), buf.data(), 3);
  EXPECT_EQ(buf, (std::vector<double>{0.0, 0.0, 0.0, 7.0}));
}

}  // namespace
}  // namespace smart::util
