// Chi-square goodness-of-fit and homogeneity tests.
//
// These back the statistical assertions the test suite makes about the RNG
// substrate and about the equivalence of the two simulation paths: the
// per-agent (graph clique) and count-based steppers must be draws from the
// same distribution, which we test by binning outcomes and comparing.
#pragma once

#include <cstdint>
#include <span>

namespace plurality::stats {

struct ChiSquareResult {
  double statistic;
  double dof;
  double p_value;
};

/// Observed counts vs expected probabilities (expected probs need not be
/// normalized; bins with expected count below `min_expected` are pooled
/// into their neighbor to keep the asymptotic distribution valid).
ChiSquareResult chi_square_gof(std::span<const std::uint64_t> observed,
                               std::span<const double> expected_probs,
                               double min_expected = 5.0);

/// Two-sample homogeneity test: are two observed count vectors draws from
/// the same (unknown) distribution?
ChiSquareResult chi_square_two_sample(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b,
                                      double min_expected = 5.0);

}  // namespace plurality::stats
