#include "rng/multinomial.hpp"

#include <algorithm>

#include "rng/binomial.hpp"
#include "support/check.hpp"

namespace plurality::rng {

namespace {

/// One lane's conditional-binomial chain over its support: draw i takes
/// Bin(remaining, cond[i]) into inout[category[i]] for i < steps, and the
/// last supported category, category[steps], takes what is left.
struct Chain {
  const std::uint32_t* category;
  const double* cond;
  count_t* inout;
  std::size_t steps;
  std::size_t i;
  count_t remaining;

  [[nodiscard]] bool live() const { return i < steps && remaining > 0; }

  void draw(Xoshiro256pp& gen) {
    const count_t x = binomial(gen, remaining, cond[i]);
    inout[category[i]] += x;
    remaining -= x;
    ++i;
  }
};

/// Turns the support's weights into its chain: suffix sums (backward, so
/// the conditionals stay stable where a running remainder would lose
/// precision after many categories), then each conditional w_i / suffix_i,
/// written over its suffix sum. `weight(i)` is the i-th supported weight.
template <class Weight>
Chain make_chain(count_t n, std::size_t nnz, const Weight& weight, std::span<count_t> inout,
                 MultinomialWorkspace& ws) {
  PLURALITY_REQUIRE(nnz > 0, "multinomial: all weights zero");
  double* suffix = ws.suffix.data();
  suffix[nnz] = 0.0;
  for (std::size_t i = nnz; i-- > 0;) suffix[i] = suffix[i + 1] + weight(i);
  for (std::size_t i = 0; i + 1 < nnz; ++i) {
    const double pc = weight(i) / suffix[i];
    suffix[i] = pc > 1.0 ? 1.0 : pc;
  }
  return Chain{ws.support.data(), suffix, inout.data(), nnz - 1, 0, n};
}

/// Dense law: gathers the positive-weight support in one forward O(k)
/// scan. Dropping zero-weight categories leaves every conditional
/// probability bitwise unchanged (the dense backward suffix recurrence
/// only ever adds 0.0 at those indices) and skips only binomial calls at
/// p == 0, which consume no randomness — so this is stream-identical to
/// the dense loop.
Chain dense_chain(count_t n, std::span<const double> probs, std::span<count_t> inout,
                  MultinomialWorkspace& ws) {
  const std::size_t k = probs.size();
  PLURALITY_REQUIRE(inout.size() == k, "multinomial: out size mismatch");
  PLURALITY_REQUIRE(k >= 1, "multinomial: need at least one category");
  if (ws.support.size() < k) ws.support.resize(k);
  if (ws.suffix.size() < k + 1) ws.suffix.resize(k + 1);
  std::uint32_t* support = ws.support.data();
  std::size_t nnz = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const double w = probs[j];
    if (w > 0.0) {
      support[nnz++] = static_cast<std::uint32_t>(j);
    } else {
      PLURALITY_REQUIRE(w > -1e-9, "multinomial: negative weight " << w << " at " << j);
    }
  }
  return make_chain(
      n, nnz, [&](std::size_t i) { return probs[support[i]]; }, inout, ws);
}

/// Sparse law: compacts away zero-weight pairs (callers may emit them; the
/// dense kernel skips the matching categories the same way).
Chain indexed_chain(count_t n, std::span<const state_t> states,
                    std::span<const double> weights, std::span<count_t> inout,
                    MultinomialWorkspace& ws) {
  const std::size_t m = states.size();
  PLURALITY_REQUIRE(weights.size() == m, "multinomial: states/weights size mismatch");
  PLURALITY_REQUIRE(m >= 1, "multinomial: need at least one category");
  if (ws.support.size() < m) ws.support.resize(m);
  if (ws.weights.size() < m) ws.weights.resize(m);
  if (ws.suffix.size() < m + 1) ws.suffix.resize(m + 1);
  std::uint32_t* support = ws.support.data();
  double* compact = ws.weights.data();
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double w = weights[i];
    PLURALITY_REQUIRE(states[i] < inout.size(),
                      "multinomial: category " << states[i] << " out of range");
    PLURALITY_REQUIRE(i == 0 || states[i] > states[i - 1],
                      "multinomial: states must be strictly ascending");
    if (w > 0.0) {
      support[nnz] = states[i];
      compact[nnz] = w;
      ++nnz;
    } else {
      PLURALITY_REQUIRE(w > -1e-9, "multinomial: negative weight " << w << " at " << i);
    }
  }
  return make_chain(
      n, nnz, [&](std::size_t i) { return compact[i]; }, inout, ws);
}

/// Runs each lane's chain to its end. Two lanes alternate draws while both
/// are live, so the core overlaps their dependent chains; each lane still
/// draws in its own order from its own generator.
void run_chains(std::span<const MultinomialLane> lanes, Chain* chains) {
  if (lanes.size() == 2) {
    Chain& a = chains[0];
    Chain& b = chains[1];
    Xoshiro256pp& gen_a = *lanes[0].gen;
    Xoshiro256pp& gen_b = *lanes[1].gen;
    while (a.live() && b.live()) {
      a.draw(gen_a);
      b.draw(gen_b);
    }
  }
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Chain& c = chains[l];
    while (c.live()) c.draw(*lanes[l].gen);
    // The last supported category takes whatever mass is left. In the
    // dense loop this happens either via its pc == 1.0 draw (no
    // randomness) or via the final-category assignment, so the streams
    // agree here too.
    c.inout[c.category[c.steps]] += c.remaining;
  }
}

void require_batch(std::span<const MultinomialLane> lanes) {
  PLURALITY_REQUIRE(!lanes.empty() && lanes.size() <= kMaxLanes,
                    "multinomial: a batch takes 1 to " << kMaxLanes << " lanes, got "
                                                       << lanes.size());
}

}  // namespace

void multinomial_accumulate(std::span<const MultinomialLane> lanes) {
  require_batch(lanes);
  Chain chains[kMaxLanes];
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const MultinomialLane& lane = lanes[l];
    chains[l] = dense_chain(lane.n, lane.weights, lane.inout, *lane.ws);
  }
  run_chains(lanes, chains);
}

void multinomial_accumulate_indexed(std::span<const MultinomialLane> lanes) {
  require_batch(lanes);
  Chain chains[kMaxLanes];
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const MultinomialLane& lane = lanes[l];
    chains[l] = indexed_chain(lane.n, lane.states, lane.weights, lane.inout, *lane.ws);
  }
  run_chains(lanes, chains);
}

void multinomial(Xoshiro256pp& gen, count_t n, std::span<const double> probs,
                 std::span<count_t> out, MultinomialWorkspace& ws) {
  std::fill(out.begin(), out.end(), count_t{0});
  multinomial_accumulate(gen, n, probs, out, ws);
}

void multinomial(Xoshiro256pp& gen, count_t n, std::span<const double> probs,
                 std::span<count_t> out) {
  MultinomialWorkspace ws;
  multinomial(gen, n, probs, out, ws);
}

}  // namespace plurality::rng
