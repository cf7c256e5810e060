#include "rng/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/philox.hpp"
#include "stats/chi_square.hpp"
#include "support/check.hpp"

namespace plurality::rng {
namespace {

TEST(UniformBelow, StaysInRange) {
  Xoshiro256pp gen(1);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_LT(uniform_below(gen, 17), 17u);
  }
}

TEST(UniformBelow, BoundOneIsAlwaysZero) {
  Xoshiro256pp gen(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_below(gen, 1), 0u);
}

TEST(UniformBelow, ZeroBoundThrows) {
  Xoshiro256pp gen(3);
  EXPECT_THROW(uniform_below(gen, 0), CheckError);
}

TEST(UniformBelow, UniformityChiSquare) {
  Xoshiro256pp gen(4);
  const std::uint64_t kBound = 13;
  std::vector<std::uint64_t> counts(kBound, 0);
  const int kSamples = 130000;
  for (int i = 0; i < kSamples; ++i) ++counts[uniform_below(gen, kBound)];
  std::vector<double> expected(kBound, 1.0 / kBound);
  const auto result = stats::chi_square_gof(counts, expected);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(UniformBelow, LargeNonPowerOfTwoBoundIsUnbiased) {
  // Lemire rejection must not bias the high/low halves for bounds near 2^63.
  Xoshiro256pp gen(5);
  const std::uint64_t bound = (1ULL << 63) + 12345;
  int high = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) high += (uniform_below(gen, bound) >= bound / 2);
  EXPECT_NEAR(high, kSamples / 2, 6 * std::sqrt(kSamples) / 2);
}

TEST(UniformBelow, NoModuloBiasAtWorstCaseBound) {
  // The strongest statistical probe of the rejection step. At bound
  // b = 3·2^62, floor(2^64 / b) = 1 and 2^64 mod b = 2^62, so a naive
  // `gen() % b` would hit [0, 2^62) with probability 1/2 instead of the
  // correct 1/3 — a bias so large a few thousand samples expose it. A
  // multiply-shift WITHOUT rejection fails the same way (mass piles onto
  // the low third). Only a correct rejection sampler passes.
  Xoshiro256pp gen(50);
  const std::uint64_t bound = 3ULL << 62;
  const std::uint64_t third = 1ULL << 62;
  int low = 0;
  const int kSamples = 30000;
  for (int i = 0; i < kSamples; ++i) low += (uniform_below(gen, bound) < third);
  const double expected = kSamples / 3.0;
  const double sigma = std::sqrt(kSamples * (1.0 / 3.0) * (2.0 / 3.0));
  EXPECT_NEAR(low, expected, 6 * sigma);
}

TEST(UniformBelow, MatchesLemireReferenceReplay) {
  // Pins the exact algorithm (Lemire 2019, multiply-shift with rejection of
  // the biased fringe), including how many words the rejection loop
  // consumes: an independent replay of the published algorithm against a
  // cloned generator must agree output-for-output. Bounds chosen to cover
  // the no-rejection fast path, heavy-rejection bounds (> 2^63 rejects
  // ~half of all draws), and powers of two.
  const std::uint64_t bounds[] = {2,       3,          5,         1000,
                                  1 << 20, 1ULL << 32, 3ULL << 62, (1ULL << 63) + 1};
  for (const std::uint64_t bound : bounds) {
    Xoshiro256pp tested(60), replay(60);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t x = replay();
      __uint128_t m = static_cast<__uint128_t>(x) * bound;
      auto low = static_cast<std::uint64_t>(m);
      if (low < bound) {
        const std::uint64_t threshold = (0 - bound) % bound;
        while (low < threshold) {
          x = replay();
          m = static_cast<__uint128_t>(x) * bound;
          low = static_cast<std::uint64_t>(m);
        }
      }
      const auto expected = static_cast<std::uint64_t>(m >> 64);
      ASSERT_EQ(uniform_below(tested, bound), expected) << "bound=" << bound << " i=" << i;
      ASSERT_EQ(tested.state(), replay.state()) << "bound=" << bound << " i=" << i;
    }
  }
}

TEST(UniformIn, InclusiveRange) {
  Xoshiro256pp gen(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = uniform_in(gen, 5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(UniformIn, DegenerateRange) {
  Xoshiro256pp gen(7);
  EXPECT_EQ(uniform_in(gen, 9, 9), 9u);
}

TEST(UniformIn, FullRangeDoesNotCrash) {
  Xoshiro256pp gen(8);
  (void)uniform_in(gen, 0, ~0ULL);
}

TEST(UniformIn, EmptyRangeThrows) {
  Xoshiro256pp gen(9);
  EXPECT_THROW(uniform_in(gen, 3, 2), CheckError);
}

TEST(Bernoulli, ExtremesAreDeterministic) {
  Xoshiro256pp gen(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(gen, 0.0));
    EXPECT_TRUE(bernoulli(gen, 1.0));
    EXPECT_FALSE(bernoulli(gen, -0.5));
    EXPECT_TRUE(bernoulli(gen, 1.5));
  }
}

TEST(Bernoulli, RateMatches) {
  Xoshiro256pp gen(11);
  const double p = 0.3;
  const int kSamples = 100000;
  int hits = 0;
  for (int i = 0; i < kSamples; ++i) hits += bernoulli(gen, p);
  // 6 sigma: sqrt(n p (1-p)) ~ 145.
  EXPECT_NEAR(hits, p * kSamples, 6 * 145);
}

TEST(Normal, MomentsMatch) {
  Xoshiro256pp gen(12);
  const int kSamples = 200000;
  double sum = 0, sum_sq = 0, sum_cube = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double z = standard_normal(gen);
    sum += z;
    sum_sq += z * z;
    sum_cube += z * z * z;
  }
  EXPECT_NEAR(sum / kSamples, 0.0, 0.015);
  EXPECT_NEAR(sum_sq / kSamples, 1.0, 0.02);
  EXPECT_NEAR(sum_cube / kSamples, 0.0, 0.08);  // symmetry
}

TEST(Normal, TailFrequencies) {
  Xoshiro256pp gen(13);
  const int kSamples = 200000;
  int beyond2 = 0;
  for (int i = 0; i < kSamples; ++i) beyond2 += (std::fabs(standard_normal(gen)) > 2.0);
  // P(|Z| > 2) = 0.0455.
  EXPECT_NEAR(beyond2 / static_cast<double>(kSamples), 0.0455, 0.004);
}

TEST(Exponential, MeanAndPositivity) {
  Xoshiro256pp gen(14);
  const int kSamples = 200000;
  double sum = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = standard_exponential(gen);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, 1.0, 0.02);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256pp gen(15);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(gen, v.data(), v.size());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, FirstPositionIsUniform) {
  Xoshiro256pp gen(16);
  const int kItems = 5;
  std::vector<std::uint64_t> counts(kItems, 0);
  const int kSamples = 50000;
  for (int s = 0; s < kSamples; ++s) {
    std::vector<int> v = {0, 1, 2, 3, 4};
    shuffle(gen, v.data(), v.size());
    ++counts[v[0]];
  }
  std::vector<double> expected(kItems, 1.0 / kItems);
  const auto result = stats::chi_square_gof(counts, expected);
  EXPECT_GT(result.p_value, 1e-6);
}

/// Shuffles `count` distinct-pattern elements of type T and returns the
/// FNV-1a digest of the result's bytes and the generator's next word.
template <typename T, class Gen>
std::pair<std::uint64_t, std::uint64_t> shuffle_golden(Gen gen, std::size_t count) {
  std::vector<T> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = static_cast<T>(i * 0x9e3779b1ULL);
  shuffle(gen, v.data(), count);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t b = 0; b < count * sizeof(T); ++b) {
    h ^= bytes[b];
    h *= 0x100000001b3ULL;
  }
  return {h, gen()};
}

TEST(Shuffle, GoldenPermutations) {
  // Pins the exact permutation and the generator state shuffle leaves
  // behind, for byte and u32 elements on both engines, at counts below,
  // just past and far past its block of draws. Recorded on the plain
  // one-draw-one-swap Fisher–Yates loop.
  struct Case {
    std::size_t count;
    std::uint64_t xo_u8, xo_u32, xo_next, ph_u8, ph_u32, ph_next;
  };
  const Case cases[] = {
      {10, 0x406c13599db165d0ULL, 0x8caaa7837f6293a4ULL, 0x40d1329955b041fbULL,
       0x6f0accec32677016ULL, 0xdf52fca77c8d7f6cULL, 0x142c10d395dfc3daULL},
      {65, 0xd3267748bd535343ULL, 0xfb34b611d8b3e900ULL, 0xff90f846a72df84fULL,
       0x5555421048c03eb9ULL, 0x775c11f3b86eef60ULL, 0xa4df64222b78b9e8ULL},
      {1000003, 0x8c0f4ec591d52f4cULL, 0xf1c5e821893021afULL, 0x4b6d6a4826b77096ULL,
       0x958b6ef2a92a43b6ULL, 0xb032dc9905bc6833ULL, 0x2b48db4a5c777805ULL},
      {1u << 20, 0xed8a8a9520532f29ULL, 0xb5d9beaf09551e94ULL, 0xd4c2f8f336ab3383ULL,
       0xbe7cdb21ac71710bULL, 0x1478a6e514178f38ULL, 0xf28b67c216064dd9ULL},
  };
  for (const Case& c : cases) {
    const Xoshiro256pp xo(21);
    const PhiloxStream ph(21, 3);
    const auto xo_u8 = shuffle_golden<std::uint8_t>(xo, c.count);
    const auto xo_u32 = shuffle_golden<std::uint32_t>(xo, c.count);
    const auto ph_u8 = shuffle_golden<std::uint8_t>(ph, c.count);
    const auto ph_u32 = shuffle_golden<std::uint32_t>(ph, c.count);
    EXPECT_EQ(xo_u8.first, c.xo_u8) << "xoshiro u8 count=" << c.count;
    EXPECT_EQ(xo_u32.first, c.xo_u32) << "xoshiro u32 count=" << c.count;
    EXPECT_EQ(ph_u8.first, c.ph_u8) << "philox u8 count=" << c.count;
    EXPECT_EQ(ph_u32.first, c.ph_u32) << "philox u32 count=" << c.count;
    for (const auto next : {xo_u8.second, xo_u32.second}) {
      EXPECT_EQ(next, c.xo_next) << "xoshiro count=" << c.count;
    }
    for (const auto next : {ph_u8.second, ph_u32.second}) {
      EXPECT_EQ(next, c.ph_next) << "philox count=" << c.count;
    }
  }
}

TEST(Shuffle, EmptyAndSingleAreNoOps) {
  Xoshiro256pp gen(17);
  std::vector<int> empty;
  shuffle(gen, empty.data(), 0);
  std::vector<int> one = {42};
  shuffle(gen, one.data(), 1);
  EXPECT_EQ(one[0], 42);
}

}  // namespace
}  // namespace plurality::rng
