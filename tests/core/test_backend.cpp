// The count-based backend and per-agent stepping (the graph engine's
// strict pipeline on the implicit clique, unshuffled layout): invariants,
// determinism, and agreement in distribution (the central correctness
// property of the whole system).
#include "core/backend.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include <numeric>

#include "core/configuration.hpp"
#include "core/majority.hpp"
#include "core/median.hpp"
#include "core/undecided.hpp"
#include "core/voter.hpp"
#include "graph/agent_graph.hpp"
#include "rng/philox.hpp"
#include "stats/chi_square.hpp"
#include "support/check.hpp"

namespace plurality {
namespace {

TEST(CountBackend, PreservesPopulation) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(1);
  Configuration c({400, 300, 300});
  for (int round = 0; round < 50; ++round) {
    step_count_based(dynamics, c, gen);
    EXPECT_EQ(c.n(), 1000u);
  }
}

TEST(CountBackend, MonochromaticIsFixedPoint) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen(2);
  Configuration c({0, 1000, 0});
  step_count_based(dynamics, c, gen);
  EXPECT_EQ(c.at(1), 1000u);
}

TEST(CountBackend, DeterministicGivenGeneratorState) {
  ThreeMajority dynamics;
  rng::Xoshiro256pp gen_a(7), gen_b(7);
  Configuration a({300, 400, 300}), b({300, 400, 300});
  for (int round = 0; round < 10; ++round) {
    step_count_based(dynamics, a, gen_a);
    step_count_based(dynamics, b, gen_b);
    EXPECT_EQ(a, b);
  }
}

TEST(CountBackend, ConditionalLawPreservesPopulation) {
  UndecidedState dynamics;
  rng::Xoshiro256pp gen(3);
  Configuration c({400, 350, 250, 0});
  for (int round = 0; round < 50; ++round) {
    step_count_based(dynamics, c, gen);
    EXPECT_EQ(c.n(), 1000u);
  }
}

TEST(CountBackend, StepMeanMatchesLemma1) {
  // Average of many one-step transitions from a fixed configuration must
  // match mu_j(c) = n * p_j(c) (Lemma 1) within Monte Carlo error.
  ThreeMajority dynamics;
  const Configuration start({500, 300, 200});
  std::vector<double> law(3);
  dynamics.adoption_law(start.counts_real(), law);

  rng::Xoshiro256pp gen(4);
  const int kTrials = 40000;
  std::vector<double> sums(3, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    step_count_based(dynamics, c, gen);
    for (state_t j = 0; j < 3; ++j) sums[j] += static_cast<double>(c.at(j));
  }
  const double n = static_cast<double>(start.n());
  for (state_t j = 0; j < 3; ++j) {
    const double mu = n * law[j];
    const double sigma = std::sqrt(n * law[j] * (1 - law[j]));
    EXPECT_NEAR(sums[j] / kTrials, mu, 6 * sigma / std::sqrt(kTrials)) << "j=" << j;
  }
}

/// The per-agent clique model over `start`'s population, nodes laid out in
/// state order.
graph::GraphSimulation clique_agents(const Dynamics& dynamics, const Configuration& start,
                                     std::uint64_t seed) {
  return graph::GraphSimulation(dynamics, graph::Topology::complete(start.n()), start, seed,
                                /*shuffle_layout=*/false);
}

TEST(CliqueAgents, LaysOutStartConfiguration) {
  ThreeMajority dynamics;
  graph::GraphSimulation sim = clique_agents(dynamics, Configuration({3, 2, 5}), 1);
  EXPECT_EQ(sim.configuration(), Configuration({3, 2, 5}));
  EXPECT_EQ(sim.states().size(), 10u);
  EXPECT_EQ(sim.round(), 0u);
}

TEST(CliqueAgents, PreservesPopulationAndTracksCounts) {
  ThreeMajority dynamics;
  graph::GraphSimulation sim = clique_agents(dynamics, Configuration({40, 30, 30}), 2);
  for (int round = 0; round < 20; ++round) {
    sim.step();
    EXPECT_EQ(sim.configuration().n(), 100u);
    // Cross-check cached counts against the raw node array.
    std::vector<count_t> manual(3, 0);
    for (state_t s : sim.states()) ++manual[s];
    for (state_t j = 0; j < 3; ++j) EXPECT_EQ(sim.configuration().at(j), manual[j]);
  }
  EXPECT_EQ(sim.round(), 20u);
}

TEST(CliqueAgents, DeterministicForSeed) {
  ThreeMajority dynamics;
  graph::GraphSimulation a = clique_agents(dynamics, Configuration({50, 50}), 99);
  graph::GraphSimulation b = clique_agents(dynamics, Configuration({50, 50}), 99);
  for (int round = 0; round < 10; ++round) {
    a.step();
    b.step();
    EXPECT_EQ(a.configuration(), b.configuration());
  }
}

TEST(CliqueAgents, MonochromaticIsFixedPoint) {
  Voter dynamics;
  graph::GraphSimulation sim = clique_agents(dynamics, Configuration({0, 100}), 3);
  sim.step();
  EXPECT_EQ(sim.configuration().at(1), 100u);
}

TEST(CliqueAgents, UndecidedProtocolRuns) {
  UndecidedState dynamics;
  const Configuration start =
      UndecidedState::extend_with_undecided(Configuration({60, 40}));
  graph::GraphSimulation sim = clique_agents(dynamics, start, 4);
  for (int round = 0; round < 30; ++round) {
    sim.step();
    EXPECT_EQ(sim.configuration().n(), 100u);
  }
}

// The central cross-validation: count stepping and per-agent stepping on
// the clique sample the same one-round transition distribution. We compare
// the plurality count after one round over many independent one-round runs
// via a two-sample chi-square.
class BackendEquivalence : public ::testing::TestWithParam<const Dynamics*> {};

TEST_P(BackendEquivalence, OneRoundDistributionsAgree) {
  const Dynamics& dynamics = *GetParam();
  const state_t colors = 3;
  const Configuration start = [&] {
    Configuration base({90, 60, 50});
    if (dynamics.num_states(colors) > colors) {
      return UndecidedState::extend_with_undecided(base);
    }
    return base;
  }();

  const int kTrials = 4000;
  const count_t n = start.n();
  std::vector<std::uint64_t> count_hist(n + 1, 0), agent_hist(n + 1, 0);
  rng::Xoshiro256pp gen(11);
  for (int t = 0; t < kTrials; ++t) {
    Configuration c = start;
    step_count_based(dynamics, c, gen);
    ++count_hist[c.at(0)];
  }
  for (int t = 0; t < kTrials; ++t) {
    graph::GraphSimulation sim = clique_agents(dynamics, start, 1'000'000 + t);
    sim.step();
    ++agent_hist[sim.configuration().at(0)];
  }
  const auto result = stats::chi_square_two_sample(count_hist, agent_hist);
  EXPECT_GT(result.p_value, 1e-6)
      << dynamics.name() << ": backends disagree, stat=" << result.statistic
      << " dof=" << result.dof;
}

// The generator-engine cross-validation: the identical conditional-binomial
// kernels driven by block-generated Philox uniforms (rng::PhiloxStream, the
// count-based batched mode) must sample the same one-round transition as
// the xoshiro default. Same statistic and test shape as the backend
// equivalence above.
TEST(CountBackendPhilox, OneRoundDistributionsMatchXoshiro) {
  UndecidedState undecided;
  ThreeMajority majority;
  for (const Dynamics* dynamics : {static_cast<const Dynamics*>(&majority),
                                   static_cast<const Dynamics*>(&undecided)}) {
    const Configuration start = [&] {
      Configuration base({90, 60, 50});
      if (dynamics->num_states(3) > 3) {
        return UndecidedState::extend_with_undecided(base);
      }
      return base;
    }();
    const int kTrials = 4000;
    const count_t n = start.n();
    std::vector<std::uint64_t> xoshiro_hist(n + 1, 0), philox_hist(n + 1, 0);
    rng::Xoshiro256pp xgen(21);
    rng::PhiloxStream pgen(22);
    StepWorkspace ws;
    for (int t = 0; t < kTrials; ++t) {
      Configuration c = start;
      step_count_based(*dynamics, c, xgen, ws);
      ++xoshiro_hist[c.at(0)];
    }
    for (int t = 0; t < kTrials; ++t) {
      Configuration c = start;
      step_count_based(*dynamics, c, pgen, ws);
      ++philox_hist[c.at(0)];
    }
    const auto result = stats::chi_square_two_sample(xoshiro_hist, philox_hist);
    EXPECT_GT(result.p_value, 1e-6)
        << dynamics->name() << ": engines disagree, stat=" << result.statistic
        << " dof=" << result.dof;
  }
}

const ThreeMajority kMajority;
const Voter kVoter;
const TwoChoices kTwoChoices;
const MedianDynamics kMedian;
const MedianOwnTwo kMedianOwnTwo;
const UndecidedState kUndecided;

INSTANTIATE_TEST_SUITE_P(AllDynamics, BackendEquivalence,
                         ::testing::Values(&kMajority, &kVoter, &kTwoChoices,
                                           &kMedian, &kMedianOwnTwo, &kUndecided),
                         [](const auto& info) {
                           std::string name = info.param->name();
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace plurality
