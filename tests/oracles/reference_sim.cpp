// Frozen pre-refactor implementation — see reference_sim.hpp. This is the
// seed tree's GraphSimulation verbatim (only the class name and the graph
// type it reads changed); the determinism suite depends on every RNG draw
// here staying put.
#include "oracles/reference_sim.hpp"

#include <array>

#include "rng/distributions.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::graph {

ReferenceGraphSimulation::ReferenceGraphSimulation(const Dynamics& dynamics,
                                                   const AgentGraph& graph,
                                                   const Configuration& start,
                                                   std::uint64_t seed,
                                                   bool shuffle_layout)
    : dynamics_(dynamics), graph_(graph), config_(start), streams_(seed) {
  PLURALITY_REQUIRE(start.n() == graph.num_nodes(),
                    "ReferenceGraphSimulation: configuration has " << start.n()
                        << " nodes but topology has " << graph.num_nodes());
  PLURALITY_REQUIRE(!graph.is_implicit(),
                    "ReferenceGraphSimulation: implicit topologies store no rows");
  PLURALITY_REQUIRE(graph.is_complete() || graph.min_degree() >= 1,
                    "ReferenceGraphSimulation: isolated vertices cannot sample");
  nodes_.reserve(start.n());
  for (state_t j = 0; j < start.k(); ++j) {
    nodes_.insert(nodes_.end(), start.at(j), j);
  }
  if (shuffle_layout) {
    rng::Xoshiro256pp gen = streams_.stream(~0ULL);  // reserved layout stream
    rng::shuffle(gen, nodes_.data(), nodes_.size());
  }
  scratch_.resize(nodes_.size());
}

void ReferenceGraphSimulation::step() {
  const std::size_t n = nodes_.size();
  const state_t k = config_.k();
  const unsigned arity = dynamics_.sample_arity();
  PLURALITY_CHECK_MSG(arity <= 64, "graph backend supports sample arity <= 64");
  const bool complete = graph_.is_complete();

  const std::size_t chunk_size = (n + kChunks - 1) / kChunks;
  std::array<std::vector<count_t>, kChunks> partial_counts;

#if defined(PLURALITY_HAVE_OPENMP)
#pragma omp parallel for schedule(static)
#endif
  for (unsigned chunk = 0; chunk < kChunks; ++chunk) {
    const std::size_t lo = static_cast<std::size_t>(chunk) * chunk_size;
    const std::size_t hi = std::min(n, lo + chunk_size);
    std::vector<count_t> local(k, 0);
    if (lo < hi) {
      rng::Xoshiro256pp gen = streams_.stream(round_ * kChunks + chunk);
      state_t sample[64];
      for (std::size_t i = lo; i < hi; ++i) {
        if (complete) {
          for (unsigned s = 0; s < arity; ++s) {
            sample[s] = nodes_[rng::uniform_below(gen, n)];
          }
        } else {
          const auto neigh = graph_.neighbors_of(i);
          for (unsigned s = 0; s < arity; ++s) {
            sample[s] = nodes_[neigh[rng::uniform_below(gen, neigh.size())]];
          }
        }
        const state_t next = dynamics_.apply_rule(
            nodes_[i], std::span<const state_t>(sample, arity), k, gen);
        scratch_[i] = next;
        ++local[next];
      }
    }
    partial_counts[chunk] = std::move(local);
  }

  nodes_.swap(scratch_);
  Configuration next = Configuration::zeros(k);
  for (const auto& local : partial_counts) {
    if (local.empty()) continue;
    for (state_t j = 0; j < k; ++j) next.set(j, next.at(j) + local[j]);
  }
  config_ = std::move(next);
  ++round_;
}

round_t ReferenceGraphSimulation::run_to_consensus(round_t max_rounds) {
  const state_t num_colors = dynamics_.num_colors(config_.k());
  for (round_t r = 1; r <= max_rounds; ++r) {
    step();
    if (config_.color_consensus(num_colors)) return r;
  }
  return max_rounds;
}

}  // namespace plurality::graph
