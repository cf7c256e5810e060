#include "rng/multinomial.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats/chi_square.hpp"
#include "support/check.hpp"

namespace plurality::rng {
namespace {

std::vector<count_t> draw(Xoshiro256pp& gen, count_t n, std::vector<double> probs) {
  std::vector<count_t> out(probs.size(), 0);
  multinomial(gen, n, probs, out);
  return out;
}

TEST(Multinomial, CountsSumToN) {
  Xoshiro256pp gen(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto out = draw(gen, 1000, {0.2, 0.5, 0.25, 0.05});
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), count_t{0}), 1000u);
  }
}

TEST(Multinomial, ZeroNGivesAllZeros) {
  Xoshiro256pp gen(2);
  const auto out = draw(gen, 0, {0.5, 0.5});
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 0u);
}

TEST(Multinomial, SingleCategoryTakesEverything) {
  Xoshiro256pp gen(3);
  const auto out = draw(gen, 77, {1.0});
  EXPECT_EQ(out[0], 77u);
}

TEST(Multinomial, ZeroWeightCategoryNeverSampled) {
  Xoshiro256pp gen(4);
  for (int trial = 0; trial < 500; ++trial) {
    const auto out = draw(gen, 500, {0.5, 0.0, 0.5});
    EXPECT_EQ(out[1], 0u);
  }
}

TEST(Multinomial, DegenerateCategoryTakesAll) {
  Xoshiro256pp gen(5);
  const auto out = draw(gen, 123, {0.0, 1.0, 0.0});
  EXPECT_EQ(out[1], 123u);
}

TEST(Multinomial, UnnormalizedWeightsAreRelative) {
  Xoshiro256pp gen(6);
  const int kTrials = 30000;
  double first = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto out = draw(gen, 10, {2.0, 6.0});  // 25% / 75%
    first += static_cast<double>(out[0]);
  }
  EXPECT_NEAR(first / (10.0 * kTrials), 0.25, 0.005);
}

TEST(Multinomial, MarginalsMatchChiSquare) {
  Xoshiro256pp gen(7);
  const std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  std::vector<std::uint64_t> totals(probs.size(), 0);
  const int kTrials = 500;
  const count_t n = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto out = draw(gen, n, probs);
    for (std::size_t j = 0; j < out.size(); ++j) totals[j] += out[j];
  }
  // Aggregated counts over all trials are Multinomial(n * kTrials, probs).
  const auto result = stats::chi_square_gof(totals, probs);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(Multinomial, ManySmallCategoriesStayExact) {
  Xoshiro256pp gen(8);
  const std::size_t k = 100;
  std::vector<double> probs(k, 1.0 / k);
  std::vector<std::uint64_t> totals(k, 0);
  const int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<count_t> out(k, 0);
    multinomial(gen, 10000, probs, out);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), count_t{0}), 10000u);
    for (std::size_t j = 0; j < k; ++j) totals[j] += out[j];
  }
  const auto result = stats::chi_square_gof(totals, probs);
  EXPECT_GT(result.p_value, 1e-6) << "stat=" << result.statistic;
}

TEST(Multinomial, HugePopulation) {
  Xoshiro256pp gen(9);
  const count_t n = 1'000'000'000'000ULL;  // 1e12 nodes: count-based scaling
  const auto out = draw(gen, n, {0.25, 0.25, 0.5});
  EXPECT_EQ(out[0] + out[1] + out[2], n);
  EXPECT_NEAR(static_cast<double>(out[0]) / static_cast<double>(n), 0.25, 1e-4);
}

TEST(Multinomial, SizeMismatchThrows) {
  Xoshiro256pp gen(10);
  std::vector<double> probs = {0.5, 0.5};
  std::vector<count_t> out(3, 0);
  EXPECT_THROW(multinomial(gen, 10, probs, out), CheckError);
}

TEST(Multinomial, NegativeWeightThrows) {
  Xoshiro256pp gen(11);
  std::vector<double> probs = {0.5, -0.5};
  std::vector<count_t> out(2, 0);
  EXPECT_THROW(multinomial(gen, 10, probs, out), CheckError);
}

TEST(Multinomial, AllZeroWeightsThrow) {
  Xoshiro256pp gen(12);
  std::vector<double> probs = {0.0, 0.0};
  std::vector<count_t> out(2, 0);
  EXPECT_THROW(multinomial(gen, 10, probs, out), CheckError);
}

TEST(Multinomial, TinyNegativeNoiseIsClamped) {
  // Kernel laws can carry -1e-15 noise; the sampler must tolerate it.
  Xoshiro256pp gen(13);
  std::vector<double> probs = {0.6, -1e-15, 0.4};
  std::vector<count_t> out(3, 0);
  multinomial(gen, 1000, probs, out);
  EXPECT_EQ(out[0] + out[1] + out[2], 1000u);
  EXPECT_EQ(out[1], 0u);
}

TEST(Multinomial, AccumulateAddsOnTopAndMatchesStream) {
  // multinomial_accumulate must consume the same RNG stream as the
  // plain draw and add its sample into the running counts.
  const std::vector<double> probs = {0.1, 0.0, 0.3, 0.6, 0.0};
  Xoshiro256pp gen_a(14), gen_b(14);
  MultinomialWorkspace ws;
  std::vector<count_t> plain(probs.size(), 0);
  std::vector<count_t> acc(probs.size(), 7);  // pre-existing mass
  for (int round = 0; round < 50; ++round) {
    multinomial(gen_a, 1000, probs, plain, ws);
    std::vector<count_t> expected = acc;
    multinomial_accumulate(gen_b, 1000, probs, acc, ws);
    for (std::size_t j = 0; j < probs.size(); ++j) {
      EXPECT_EQ(acc[j], expected[j] + plain[j]) << "j=" << j;
    }
    EXPECT_EQ(gen_a.state(), gen_b.state()) << "streams diverged at round " << round;
  }
}

TEST(Multinomial, IndexedSparseMatchesDenseStreamBitwise) {
  // The sparse-law kernel over (state, weight) pairs must draw the same
  // sample from the same stream as the dense kernel over the expanded
  // weight vector — this is the core determinism property that lets the
  // stepper switch kernels per dynamics without changing results.
  const std::size_t k = 300;
  std::vector<double> dense(k, 0.0);
  const std::vector<state_t> states = {3, 117, 214, 299};
  const std::vector<double> weights = {0.25, 0.4, 0.0, 0.35};  // zero entry allowed
  for (std::size_t i = 0; i < states.size(); ++i) dense[states[i]] = weights[i];

  Xoshiro256pp gen_dense(15), gen_sparse(15);
  MultinomialWorkspace ws_dense, ws_sparse;
  std::vector<count_t> out_dense(k, 0), out_sparse(k, 0);
  for (int round = 0; round < 50; ++round) {
    multinomial_accumulate(gen_dense, 100000, dense, out_dense, ws_dense);
    multinomial_accumulate_indexed(gen_sparse, 100000, states, weights, out_sparse,
                                   ws_sparse);
    EXPECT_EQ(out_dense, out_sparse) << "round " << round;
    EXPECT_EQ(gen_dense.state(), gen_sparse.state()) << "streams diverged at " << round;
  }
}

TEST(Multinomial, IndexedRejectsUnsortedStates) {
  Xoshiro256pp gen(16);
  MultinomialWorkspace ws;
  std::vector<count_t> out(10, 0);
  const std::vector<state_t> states = {4, 2};
  const std::vector<double> weights = {0.5, 0.5};
  EXPECT_THROW(multinomial_accumulate_indexed(gen, 10, states, weights, out, ws),
               CheckError);
}

TEST(Multinomial, IndexedRejectsOutOfRangeState) {
  Xoshiro256pp gen(17);
  MultinomialWorkspace ws;
  std::vector<count_t> out(4, 0);
  const std::vector<state_t> states = {1, 9};
  const std::vector<double> weights = {0.5, 0.5};
  EXPECT_THROW(multinomial_accumulate_indexed(gen, 10, states, weights, out, ws),
               CheckError);
}

TEST(Multinomial, WorkspaceReuseAcrossShapesIsClean) {
  // A workspace carried across calls with different k / support shapes
  // must behave exactly like a fresh one (it is pure scratch).
  Xoshiro256pp gen_reused(18), gen_fresh(18);
  MultinomialWorkspace reused;
  const std::vector<std::vector<double>> shapes = {
      {0.5, 0.5}, {0.1, 0.0, 0.2, 0.7}, {1.0}, {0.0, 1.0, 0.0, 0.0, 0.0}};
  for (int round = 0; round < 20; ++round) {
    for (const auto& probs : shapes) {
      std::vector<count_t> out_reused(probs.size(), 0), out_fresh(probs.size(), 0);
      multinomial(gen_reused, 500, probs, out_reused, reused);
      MultinomialWorkspace fresh;
      multinomial(gen_fresh, 500, probs, out_fresh, fresh);
      EXPECT_EQ(out_reused, out_fresh);
    }
  }
}

/// A two-lane batch draws each lane exactly as it draws alone: same
/// counts, same generator state after, on lanes whose chains end at
/// different draws (a long dense law beside a short one).
void expect_batch_matches_alone(bool indexed) {
  const std::size_t k = 40;
  std::vector<double> long_law(k), short_law(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) long_law[j] = 1.0 + static_cast<double>(j % 7);
  const std::vector<state_t> short_states = {2, 9, 30};
  const std::vector<double> short_weights = {0.2, 0.3, 0.5};
  for (std::size_t i = 0; i < short_states.size(); ++i) {
    short_law[short_states[i]] = short_weights[i];
  }
  std::vector<state_t> long_states(k);
  for (std::size_t j = 0; j < k; ++j) long_states[j] = static_cast<state_t>(j);

  Xoshiro256pp gen_a(31), gen_b(32), alone_a(31), alone_b(32);
  MultinomialWorkspace ws_a, ws_b, ws_alone;
  std::vector<count_t> out_a(k, 0), out_b(k, 0), want_a(k, 0), want_b(k, 0);
  for (int round = 0; round < 30; ++round) {
    // Lane B's n is tiny in odd rounds, so its chain ends first there.
    const count_t n_b = round % 2 == 1 ? 3 : 200000;
    if (indexed) {
      const MultinomialLane lanes[] = {
          {&gen_a, 1000000, short_weights, out_a, &ws_a, short_states},
          {&gen_b, n_b, long_law, out_b, &ws_b, long_states}};
      multinomial_accumulate_indexed(std::span<const MultinomialLane>(lanes));
      multinomial_accumulate_indexed(alone_a, 1000000, short_states, short_weights, want_a,
                                     ws_alone);
      multinomial_accumulate_indexed(alone_b, n_b, long_states, long_law, want_b, ws_alone);
    } else {
      const MultinomialLane lanes[] = {{&gen_a, 1000000, short_law, out_a, &ws_a},
                                       {&gen_b, n_b, long_law, out_b, &ws_b}};
      multinomial_accumulate(std::span<const MultinomialLane>(lanes));
      multinomial_accumulate(alone_a, 1000000, short_law, want_a, ws_alone);
      multinomial_accumulate(alone_b, n_b, long_law, want_b, ws_alone);
    }
    ASSERT_EQ(out_a, want_a) << "round " << round;
    ASSERT_EQ(out_b, want_b) << "round " << round;
    ASSERT_EQ(gen_a(), alone_a()) << "lane A stream diverged at round " << round;
    ASSERT_EQ(gen_b(), alone_b()) << "lane B stream diverged at round " << round;
  }
}

TEST(Multinomial, TwoLaneBatchMatchesEachLaneAlone) {
  expect_batch_matches_alone(false);
  expect_batch_matches_alone(true);
}

TEST(Multinomial, BatchTakesOneOrTwoLanes) {
  Xoshiro256pp gen(33);
  MultinomialWorkspace ws;
  std::vector<count_t> out(2, 0);
  const std::vector<double> probs = {0.5, 0.5};
  const MultinomialLane lane{&gen, 10, probs, out, &ws};
  const MultinomialLane three[] = {lane, lane, lane};
  EXPECT_THROW(multinomial_accumulate(std::span<const MultinomialLane>()), CheckError);
  EXPECT_THROW(multinomial_accumulate(std::span<const MultinomialLane>(three)), CheckError);
}

}  // namespace
}  // namespace plurality::rng
