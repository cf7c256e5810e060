#include "core/hplurality.hpp"

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "support/check.hpp"

namespace plurality {

namespace {

/// C(n, r) saturating at uint64 max.
std::uint64_t binom_saturating(std::uint64_t n, std::uint64_t r) {
  if (r > n) return 0;
  r = std::min(r, n - r);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= r; ++i) {
    const std::uint64_t numer = n - r + i;
    if (result > ~0ULL / numer) return ~0ULL;  // would overflow
    result = result * numer / i;  // exact: product of i consecutive ints is divisible by i!
  }
  return result;
}

/// Depth-first enumeration of sample compositions. At each leaf the sample
/// histogram (m_0..m_{k-1}, sum h) occurs with multinomial probability
///   h! / prod(m_j!) * prod(share_j ^ m_j),
/// and credits its probability equally to the argmax colors.
class LawEnumerator {
 public:
  LawEnumerator(std::span<const double> shares, unsigned h, std::span<double> out)
      : shares_(shares), out_(out), histogram_(shares.size(), 0) {
    log_factorial_.resize(h + 1, 0.0);
    for (unsigned i = 2; i <= h; ++i) {
      log_factorial_[i] = log_factorial_[i - 1] + std::log(static_cast<double>(i));
    }
    for (double& p : out_) p = 0.0;
    recurse(0, h, log_factorial_[h]);
  }

 private:
  void recurse(std::size_t color, unsigned remaining, double log_weight) {
    if (color + 1 == shares_.size()) {
      histogram_[color] = remaining;
      double lw = log_weight - log_factorial_[remaining];
      if (remaining > 0) {
        if (shares_[color] <= 0.0) return;  // impossible leaf
        lw += remaining * std::log(shares_[color]);
      }
      credit(std::exp(lw));
      return;
    }
    // m = 0 keeps the weight untouched.
    histogram_[color] = 0;
    recurse(color + 1, remaining, log_weight);
    if (shares_[color] <= 0.0) return;
    const double log_share = std::log(shares_[color]);
    for (unsigned m = 1; m <= remaining; ++m) {
      histogram_[color] = m;
      recurse(color + 1, remaining - m,
              log_weight - log_factorial_[m] + m * log_share);
    }
    histogram_[color] = 0;
  }

  void credit(double probability) {
    unsigned best = 0;
    for (unsigned m : histogram_) best = std::max(best, m);
    if (best == 0) return;
    unsigned ties = 0;
    for (unsigned m : histogram_) ties += (m == best);
    const double share = probability / ties;
    for (std::size_t j = 0; j < histogram_.size(); ++j) {
      if (histogram_[j] == best) out_[j] += share;
    }
  }

  std::span<const double> shares_;
  std::span<double> out_;
  std::vector<unsigned> histogram_;
  std::vector<double> log_factorial_;
};

}  // namespace

HPlurality::HPlurality(unsigned h, std::uint64_t law_term_budget)
    : h_(h), law_term_budget_(law_term_budget) {
  PLURALITY_REQUIRE(h >= 1, "h-plurality: h must be at least 1");
}

std::string HPlurality::name() const { return std::to_string(h_) + "-plurality"; }

std::uint64_t HPlurality::exact_law_cost(state_t k) const {
  return binom_saturating(static_cast<std::uint64_t>(h_) + k - 1, h_);
}

bool HPlurality::has_exact_law(state_t states) const {
  return exact_law_cost(states) <= law_term_budget_;
}

void HPlurality::adoption_law(std::span<const double> counts, std::span<double> out) const {
  PLURALITY_REQUIRE(counts.size() == out.size(), "h-plurality law: size mismatch");
  PLURALITY_REQUIRE(has_exact_law(static_cast<state_t>(counts.size())),
                    "h-plurality exact law too expensive for k="
                        << counts.size() << ", h=" << h_ << " ("
                        << exact_law_cost(static_cast<state_t>(counts.size()))
                        << " terms); use the graph backend, which steps it per agent on the clique");
  double n = 0.0;
  for (double c : counts) {
    PLURALITY_REQUIRE(c >= 0.0, "h-plurality law: negative count");
    n += c;
  }
  PLURALITY_REQUIRE(n > 0.0, "h-plurality law: empty configuration");
  std::vector<double> shares(counts.size());
  for (std::size_t j = 0; j < counts.size(); ++j) shares[j] = counts[j] / n;
  LawEnumerator(shares, h_, out);
}

state_t HPlurality::apply_rule(state_t own, std::span<const state_t> sampled,
                               state_t states, rng::Xoshiro256pp& gen) const {
  (void)own;
  (void)states;
  PLURALITY_CHECK(sampled.size() == h_);
  // Count occurrences among at most h distinct colors with a flat scan —
  // h is small, so this beats a hash map and never allocates beyond h slots.
  state_t distinct[64];
  unsigned counts[64];
  PLURALITY_CHECK_MSG(h_ <= 64, "h-plurality rule supports h <= 64");
  unsigned num_distinct = 0;
  for (state_t s : sampled) {
    bool found = false;
    for (unsigned i = 0; i < num_distinct; ++i) {
      if (distinct[i] == s) {
        ++counts[i];
        found = true;
        break;
      }
    }
    if (!found) {
      distinct[num_distinct] = s;
      counts[num_distinct] = 1;
      ++num_distinct;
    }
  }
  unsigned best = 0;
  for (unsigned i = 0; i < num_distinct; ++i) best = std::max(best, counts[i]);
  unsigned ties = 0;
  for (unsigned i = 0; i < num_distinct; ++i) ties += (counts[i] == best);
  // Uniform tie-breaking among the tied plurality colors.
  std::uint64_t pick = ties == 1 ? 0 : rng::uniform_below(gen, ties);
  for (unsigned i = 0; i < num_distinct; ++i) {
    if (counts[i] == best) {
      if (pick == 0) return distinct[i];
      --pick;
    }
  }
  PLURALITY_CHECK_MSG(false, "h-plurality rule: unreachable");
  return sampled[0];
}

}  // namespace plurality
