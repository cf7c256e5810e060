#include "rng/binomial.hpp"

#include <cmath>

#include "support/check.hpp"

namespace plurality::rng {

namespace {

// Stirling tail delta(k) = log(k!) - [k log k - k + 0.5 log(2 pi k)].
// Exact table for k <= 9, 3-term asymptotic series beyond (error < 1e-14).
double stirling_tail(double k) {
  static constexpr double kTable[] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTable[static_cast<int>(k)];
  const double kp1 = k + 1.0;
  const double kp1sq = kp1 * kp1;
  return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / kp1sq) / kp1sq) / kp1;
}

}  // namespace

std::uint64_t binomial_inversion(Xoshiro256pp& gen, std::uint64_t n, double p) {
  PLURALITY_REQUIRE(p > 0.0 && p <= 0.5, "binomial_inversion requires 0 < p <= 0.5");
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = (static_cast<double>(n) + 1.0) * s;
  const double r0 = std::exp(static_cast<double>(n) * std::log(q));  // q^n
  while (true) {
    double r = r0;
    double u = gen.next_double();
    std::uint64_t x = 0;
    bool overflow = false;
    while (u > r) {
      u -= r;
      ++x;
      if (x > n) {  // accumulated rounding ate the tail mass; retry (rare)
        overflow = true;
        break;
      }
      r *= (a / static_cast<double>(x) - s);
    }
    if (!overflow) return x;
  }
}

std::uint64_t binomial_btrs(Xoshiro256pp& gen, std::uint64_t n, double p) {
  PLURALITY_REQUIRE(p > 0.0 && p <= 0.5, "binomial_btrs requires 0 < p <= 0.5");
  const double nd = static_cast<double>(n);
  PLURALITY_REQUIRE(nd * p >= 10.0, "binomial_btrs requires n*p >= 10");
  const double q = 1.0 - p;
  const double r = p / q;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double m = std::floor((nd + 1.0) * p);

  while (true) {
    const double u = gen.next_double() - 0.5;
    double v = gen.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    // Squeeze: the bulk of the dome is accepted with one comparison.
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kd);
    // Full acceptance test against the exact pmf ratio.
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(m) + stirling_tail(nd - m) - stirling_tail(kd) -
        stirling_tail(nd - kd);
    if (v <= upper) return static_cast<std::uint64_t>(kd);
  }
}

std::uint64_t binomial(Xoshiro256pp& gen, std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Exploit symmetry so the samplers only ever see p <= 1/2.
  if (p > 0.5) return n - binomial(gen, n, 1.0 - p);
  if (static_cast<double>(n) * p <= kInversionThreshold) {
    return binomial_inversion(gen, n, p);
  }
  return binomial_btrs(gen, n, p);
}

double binomial_log_pmf(std::uint64_t n, double p, std::uint64_t x) {
  PLURALITY_REQUIRE(x <= n, "binomial_log_pmf: x > n");
  if (p <= 0.0) return x == 0 ? 0.0 : -INFINITY;
  if (p >= 1.0) return x == n ? 0.0 : -INFINITY;
  const double nd = static_cast<double>(n);
  const double xd = static_cast<double>(x);
  return std::lgamma(nd + 1.0) - std::lgamma(xd + 1.0) - std::lgamma(nd - xd + 1.0) +
         xd * std::log(p) + (nd - xd) * std::log1p(-p);
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t x) {
  const double lp = binomial_log_pmf(n, p, x);
  return std::isinf(lp) ? 0.0 : std::exp(lp);
}

}  // namespace plurality::rng
