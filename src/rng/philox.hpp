// Philox4x32 — Salmon, Moraes, Dror & Shaw's counter-based RNG ("Parallel
// random numbers: as easy as 1, 2, 3", SC 2011; the Random123 reference
// algorithm). Unlike xoshiro's sequential state walk, Philox is a pure
// function (counter, key) -> 128 random bits: any word of the stream can be
// produced in any order, by any thread, with no shared state and no
// jump-ahead bookkeeping. That property is what the batched graph engine
// needs — randomness addressed by (seed, round, node, draw) is trivially
// thread-count- and batch-size-invariant — and it makes the generation loop
// embarrassingly parallel, i.e. SIMD-friendly.
//
// Two round counts are used in this library:
//   * kRounds (10) — the Random123 default, pinned here by the published
//     known-answer vectors (tests/rng/test_philox.cpp). PhiloxStream and
//     every quality-paramount consumer use it.
//   * kCrushRounds (7) — the minimum round count reported Crush-resistant
//     (passes TestU01 BigCrush) in Salmon et al., Table 2; 8, 9, 10 only
//     add safety margin. The graph engine's batched sampler uses 7: its
//     per-word cost is on the critical path of every node update, and the
//     statistical battery (tests/graph/test_graph_kernels.cpp) empirically
//     pins each batched kernel's adoption law on top of the BigCrush
//     pedigree. R is a compile-time parameter, so both variants share one
//     implementation and both are KAT-pinned.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace plurality::rng {

class Philox4x32 {
 public:
  /// Random123 default round count (known-answer pinned).
  static constexpr unsigned kRounds = 10;
  /// Crush-resistant minimum per Salmon et al. (2011), Table 2.
  static constexpr unsigned kCrushRounds = 7;

  /// 64-bit key, split into the two 32-bit Philox key words.
  struct Key {
    std::uint32_t k0;
    std::uint32_t k1;
  };

  /// One 128-bit output block (v[0..3] in the reference output order).
  struct Block {
    std::array<std::uint32_t, 4> v;
  };

  /// The bijection: R rounds over counter (c0,c1,c2,c3) under `key`.
  /// Multipliers/Weyl constants are the published Philox4x32 constants.
  template <unsigned R = kRounds>
  static Block block(std::uint32_t c0, std::uint32_t c1, std::uint32_t c2,
                     std::uint32_t c3, Key key) {
    std::uint32_t k0 = key.k0, k1 = key.k1;
    for (unsigned r = 0; r < R; ++r) {
      const std::uint64_t p0 = std::uint64_t{0xD2511F53u} * c0;
      const std::uint64_t p1 = std::uint64_t{0xCD9E8D57u} * c2;
      const std::uint32_t n0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ k0;
      const std::uint32_t n1 = static_cast<std::uint32_t>(p1);
      const std::uint32_t n2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ k1;
      const std::uint32_t n3 = static_cast<std::uint32_t>(p0);
      c0 = n0;
      c1 = n1;
      c2 = n2;
      c3 = n3;
      k0 += 0x9E3779B9u;  // golden-ratio Weyl increment
      k1 += 0xBB67AE85u;  // sqrt(3)-1 Weyl increment
    }
    return Block{{c0, c1, c2, c3}};
  }

  /// Derives a Philox key from a 64-bit seed via SplitMix64 avalanche (the
  /// same mixer StreamFactory trusts for stream derivation); `tag` separates
  /// independent key domains of one seed.
  static Key key_from_seed(std::uint64_t seed, std::uint64_t tag = 0);

  /// The canonical u64-word stream of a (key, domain) pair:
  ///
  ///   word w  =  v[2*(w%2)]  |  v[2*(w%2)+1] << 32   of   block(w/2)
  ///
  /// with counter (c0,c1) = 64-bit block index and (c2,c3) = 64-bit
  /// `domain` (the graph engine passes the round number; PhiloxStream passes
  /// its stream constant). Every consumer of Philox words in this library —
  /// scalar or SIMD — reproduces exactly this indexing, so any two
  /// implementations of a consumer are bitwise comparable.
  template <unsigned R = kRounds>
  static std::uint64_t word(Key key, std::uint64_t domain, std::uint64_t w) {
    const std::uint64_t blk = w >> 1;
    const Block b = block<R>(static_cast<std::uint32_t>(blk),
                             static_cast<std::uint32_t>(blk >> 32),
                             static_cast<std::uint32_t>(domain),
                             static_cast<std::uint32_t>(domain >> 32), key);
    const unsigned half = static_cast<unsigned>(w & 1) * 2;
    return static_cast<std::uint64_t>(b.v[half]) |
           (static_cast<std::uint64_t>(b.v[half + 1]) << 32);
  }

  /// Fills out[0..count) with words [word_lo, word_lo + count) of the
  /// (key, domain) stream. Scalar reference implementation; the batched
  /// engine's SIMD generators are pinned bitwise against it.
  template <unsigned R = kRounds>
  static void fill_words(Key key, std::uint64_t domain, std::uint64_t word_lo,
                         std::size_t count, std::uint64_t* out);
};

/// Sequential buffered generator over the Philox word stream — the
/// counter-based sibling of Xoshiro256pp, exposing the same generator
/// interface (operator(), next_double, min/max), so the header-defined
/// samplers (uniform_below, shuffle) run on it too. No stepper draws from
/// it; it is the stream the benchmark times per word, and its word
/// sequence is pinned by tests/rng/test_philox.cpp.
///
/// Words are produced in blocks of kBufferWords by one flat fill loop; the
/// buffer is a fixed in-object array, so the stream allocates nothing,
/// ever.
class PhiloxStream {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kBufferWords = 256;

  /// Counter-domain word of every PhiloxStream (separates the sequential
  /// stream from round-addressed consumers sharing a seed). Public so tests
  /// can pin the stream to its documented word sequence.
  static constexpr std::uint64_t kStreamDomain = 0x53545245414d3634ULL;  // "STREAM64"

  /// `tag` selects one of 2^64 independent streams of the seed (matching
  /// StreamFactory's role for xoshiro streams).
  explicit PhiloxStream(std::uint64_t seed, std::uint64_t tag = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    if (pos_ == kBufferWords) refill();
    return buffer_[pos_++];
  }

  /// Uniform double in [0, 1) with 53 random bits (same construction as
  /// Xoshiro256pp::next_double).
  double next_double() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Total words consumed so far (test/diagnostic hook).
  [[nodiscard]] std::uint64_t words_consumed() const {
    return next_word_ - (kBufferWords - pos_);
  }

 private:
  void refill();

  std::array<std::uint64_t, kBufferWords> buffer_;
  std::size_t pos_;
  std::uint64_t next_word_;  // first word of the NEXT refill
  Philox4x32::Key key_;
  std::uint64_t domain_;
};

}  // namespace plurality::rng
