#include "rng/distributions.hpp"

#include <cmath>

#include "support/check.hpp"

namespace plurality::rng {

void detail::zero_bound() {
  plurality::detail::check_failed("bound != 0", __FILE__, __LINE__,
                                  "uniform_below: bound must be positive");
}

std::uint64_t uniform_in(Xoshiro256pp& gen, std::uint64_t lo, std::uint64_t hi) {
  PLURALITY_REQUIRE(lo <= hi, "uniform_in: empty range");
  const std::uint64_t span = hi - lo;
  if (span == ~0ULL) return gen();
  return lo + uniform_below(gen, span + 1);
}

double uniform01(Xoshiro256pp& gen) {
  return gen.next_double();
}

bool bernoulli(Xoshiro256pp& gen, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return gen.next_double() < p;
}

double standard_normal(Xoshiro256pp& gen) {
  // Marsaglia polar method; ~1.27 uniform pairs per normal on average.
  while (true) {
    const double u = 2.0 * gen.next_double() - 1.0;
    const double v = 2.0 * gen.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double standard_exponential(Xoshiro256pp& gen) {
  // -log(1 - U) with U in [0,1) keeps the argument strictly positive.
  return -std::log1p(-gen.next_double());
}

}  // namespace plurality::rng
