// E12 — ablation: the RNG substrate (google-benchmark).
//
// Measures the primitives the count-based simulator is built from, in
// particular the binomial sampler's two regimes around the
// kInversionThreshold crossover (the design knob DESIGN.md calls out).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "rng/binomial.hpp"
#include "rng/discrete.hpp"
#include "rng/distributions.hpp"
#include "rng/multinomial.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro.hpp"

namespace plurality::rng {
namespace {

void BM_XoshiroNext(benchmark::State& state) {
  Xoshiro256pp gen(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen());
}
BENCHMARK(BM_XoshiroNext);

void BM_XoshiroNextDouble(benchmark::State& state) {
  Xoshiro256pp gen(2);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next_double());
}
BENCHMARK(BM_XoshiroNextDouble);

void BM_UniformBelow(benchmark::State& state) {
  Xoshiro256pp gen(3);
  const auto bound = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(uniform_below(gen, bound));
}
BENCHMARK(BM_UniformBelow)->Arg(10)->Arg(1000000007);

void BM_StandardNormal(benchmark::State& state) {
  Xoshiro256pp gen(4);
  for (auto _ : state) benchmark::DoNotOptimize(standard_normal(gen));
}
BENCHMARK(BM_StandardNormal);

void BM_BinomialByMean(benchmark::State& state) {
  // np sweep across the inversion/BTRS threshold (14): n = 1e9 fixed,
  // p chosen for the target mean.
  Xoshiro256pp gen(5);
  const std::uint64_t n = 1'000'000'000;
  const double mean = static_cast<double>(state.range(0));
  const double p = mean / static_cast<double>(n);
  for (auto _ : state) benchmark::DoNotOptimize(binomial(gen, n, p));
  state.SetLabel(mean <= kInversionThreshold ? "inversion" : "btrs");
}
BENCHMARK(BM_BinomialByMean)->Arg(1)->Arg(5)->Arg(14)->Arg(15)->Arg(100)->Arg(100000);

void BM_BinomialInversionAtThreshold(benchmark::State& state) {
  Xoshiro256pp gen(6);
  const std::uint64_t n = 1'000'000;
  const double p = static_cast<double>(state.range(0)) / static_cast<double>(n);
  for (auto _ : state) benchmark::DoNotOptimize(binomial_inversion(gen, n, p));
}
BENCHMARK(BM_BinomialInversionAtThreshold)->Arg(10)->Arg(14)->Arg(30)->Arg(100);

void BM_BinomialBtrsAtThreshold(benchmark::State& state) {
  Xoshiro256pp gen(7);
  const std::uint64_t n = 1'000'000;
  const double p = static_cast<double>(state.range(0)) / static_cast<double>(n);
  for (auto _ : state) benchmark::DoNotOptimize(binomial_btrs(gen, n, p));
}
BENCHMARK(BM_BinomialBtrsAtThreshold)->Arg(10)->Arg(14)->Arg(30)->Arg(100);

void BM_Multinomial(benchmark::State& state) {
  Xoshiro256pp gen(8);
  const auto k = static_cast<std::size_t>(state.range(0));
  const count_t n = 1'000'000'000;
  std::vector<double> probs(k, 1.0 / static_cast<double>(k));
  std::vector<count_t> out(k);
  for (auto _ : state) {
    multinomial(gen, n, probs, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Multinomial)->Arg(2)->Arg(8)->Arg(64)->Arg(1024);

void BM_BinomialChains(benchmark::State& state) {
  // range(0) independent conditional-binomial chains, interleaved draw by
  // draw, over a uniform 512-category law at n = 1e9 (a multinomial's
  // draws: each draw's n is the previous remainder). One chain is bound
  // by its own latency; interleaved chains overlap on the core. Read
  // 1e9 / items_per_second as ns per draw.
  const auto chains = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCategories = 512;
  std::vector<Xoshiro256pp> gens;
  for (std::size_t c = 0; c < chains; ++c) gens.emplace_back(100 + c);
  std::vector<double> cond(kCategories - 1);
  for (std::size_t i = 0; i + 1 < kCategories; ++i) {
    cond[i] = 1.0 / static_cast<double>(kCategories - i);
  }
  std::vector<count_t> remaining(chains);
  std::int64_t draws = 0;
  for (auto _ : state) {
    std::fill(remaining.begin(), remaining.end(), count_t{1'000'000'000});
    for (const double p : cond) {
      for (std::size_t c = 0; c < chains; ++c) {
        remaining[c] -= binomial(gens[c], remaining[c], p);
      }
    }
    benchmark::DoNotOptimize(remaining.data());
    draws += static_cast<std::int64_t>(chains * cond.size());
  }
  state.SetItemsProcessed(draws);
}
BENCHMARK(BM_BinomialChains)->Arg(1)->Arg(2)->Arg(4);

void BM_AliasSample(benchmark::State& state) {
  Xoshiro256pp gen(9);
  const auto k = static_cast<std::size_t>(state.range(0));
  const AliasTable table(zipf_weights(k, 1.0));
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(gen));
}
BENCHMARK(BM_AliasSample)->Arg(8)->Arg(1024);

void BM_StreamDerivation(benchmark::State& state) {
  StreamFactory factory(10);
  std::uint64_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(factory.stream(i++)());
}
BENCHMARK(BM_StreamDerivation);

}  // namespace
}  // namespace plurality::rng

BENCHMARK_MAIN();
