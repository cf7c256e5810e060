// AVX-512 kernel table of the batched pipeline. Compiled with
// -mavx512f/dq/bw/vl (CMake adds the flags only when the compiler supports
// them; the whole file additionally self-guards on the macros so a build
// without the flags produces an empty TU). Never entered unless
// simd::detect() saw the ISA at runtime.
//
// BITWISE CONTRACT: every function here must reproduce the scalar pipeline
// exactly — the same Philox words (Philox4x32::fill_words<kSamplerRounds>
// order), the same bounded-bias conversion (kernels_batched::scale_word),
// the same rule algebra. tests/graph/test_graph_batched.cpp pins the engine
// with SIMD on vs off; any lane-order slip fails loudly.
//
// Philox layout in registers: one "pair" is two zmm of eight 64-bit lanes —
// A holds (c1:c0) and B holds (c3:c2) of blocks b..b+7, so after R rounds A
// IS u64 words {2b, 2b+2, ...} (v0 | v1<<32) and B the matching odd words
// (v2 | v3<<32); one interleave emits 16 stream-ordered words. The per-round
// math stays in 64-bit lanes: vpmuludq gives hi:lo of the 32x32 product in
// one instruction, and a ternlog merges the three-way XOR.
#include "graph/batched_simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__)

#include <immintrin.h>

#include "graph/batched_simd_common.hpp"
#include "graph/kernels_batched.hpp"

namespace plurality::graph::simd {
namespace {

namespace kb = graph::kernels_batched;
constexpr unsigned kR = kb::kSamplerRounds;

constexpr std::uint64_t kM0 = 0xD2511F53ULL;
constexpr std::uint64_t kM1 = 0xCD9E8D57ULL;
constexpr std::uint32_t kW0 = 0x9E3779B9u;
constexpr std::uint32_t kW1 = 0xBB67AE85u;

struct Pair {
  __m512i a;  // words 2b, 2b+2, ... (after emit ordering)
  __m512i b;
};

/// R rounds over blocks blk..blk+7 of (key, domain).
inline Pair philox_pair(std::uint64_t blk, std::uint64_t domain, rng::Philox4x32::Key key) {
  const __m512i m0 = _mm512_set1_epi64(static_cast<long long>(kM0));
  const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(kM1));
  __m512i a = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(blk)),
                               _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  __m512i b = _mm512_set1_epi64(static_cast<long long>(domain));
  std::uint32_t k0 = key.k0, k1 = key.k1;
  for (unsigned r = 0; r < kR; ++r) {
    const __m512i key0 = _mm512_set1_epi64(static_cast<long long>(std::uint64_t{k0}));
    const __m512i key1 = _mm512_set1_epi64(static_cast<long long>(std::uint64_t{k1}));
    const __m512i p0 = _mm512_mul_epu32(m0, a);  // hi0:lo0 of M0 * c0
    const __m512i p1 = _mm512_mul_epu32(m1, b);  // hi1:lo1 of M1 * c2
    // A' = (lo1 << 32) | (hi1 ^ c1 ^ k0);  B' = (lo0 << 32) | (hi0 ^ c3 ^ k1)
    const __m512i na = _mm512_or_si512(
        _mm512_slli_epi64(p1, 32),
        _mm512_ternarylogic_epi64(_mm512_srli_epi64(p1, 32), _mm512_srli_epi64(a, 32),
                                  key0, 0x96));
    const __m512i nb = _mm512_or_si512(
        _mm512_slli_epi64(p0, 32),
        _mm512_ternarylogic_epi64(_mm512_srli_epi64(p0, 32), _mm512_srli_epi64(b, 32),
                                  key1, 0x96));
    a = na;
    b = nb;
    k0 += kW0;
    k1 += kW1;
  }
  return Pair{a, b};
}

/// Reorders a pair into stream order: out lanes = words 2b..2b+15 of the
/// stream (A lane t = word 2(b+t), B lane t = word 2(b+t)+1).
inline void emit_pair(const Pair& p, __m512i& words_lo, __m512i& words_hi) {
  const __m512i u0 = _mm512_unpacklo_epi64(p.a, p.b);  // A0 B0 A2 B2 A4 B4 A6 B6
  const __m512i u1 = _mm512_unpackhi_epi64(p.a, p.b);  // A1 B1 A3 B3 A5 B5 A7 B7
  const __m512i v0 = _mm512_shuffle_i64x2(u0, u1, 0x44);  // A0 B0 A2 B2 | A1 B1 A3 B3
  const __m512i v1 = _mm512_shuffle_i64x2(u0, u1, 0xEE);  // A4 B4 A6 B6 | A5 B5 A7 B7
  const __m512i ord = _mm512_setr_epi64(0, 1, 4, 5, 2, 3, 6, 7);
  words_lo = _mm512_permutexvar_epi64(ord, v0);  // words 2b .. 2b+7
  words_hi = _mm512_permutexvar_epi64(ord, v1);  // words 2b+8 .. 2b+15
}

void fill_words_avx512(rng::Philox4x32::Key key, std::uint64_t domain,
                       std::uint64_t word_lo, std::size_t count, std::uint64_t* out) {
  std::size_t w = 0;
  // Scalar head up to an even word boundary.
  if (count > 0 && (word_lo & 1) != 0) {
    out[w++] = rng::Philox4x32::word<kR>(key, domain, word_lo);
  }
  // 16 words per pair.
  for (; w + 16 <= count; w += 16) {
    const Pair p = philox_pair((word_lo + w) >> 1, domain, key);
    __m512i lo, hi;
    emit_pair(p, lo, hi);
    _mm512_storeu_si512(reinterpret_cast<__m512i*>(out + w), lo);
    _mm512_storeu_si512(reinterpret_cast<__m512i*>(out + w + 8), hi);
  }
  // Scalar tail.
  if (w < count) {
    rng::Philox4x32::fill_words<kR>(key, domain, word_lo + w, count - w, out + w);
  }
}

/// (word * bound) >> 64 for two word zmms (16 u64 lanes total) -> 16 u32
/// indices. bound < 2^32.
inline __m512i scale16(const __m512i& wlo, const __m512i& whi, const __m512i& bound64) {
  const __m512i lo0 = _mm512_mul_epu32(wlo, bound64);
  const __m512i hi0 = _mm512_mul_epu32(_mm512_srli_epi64(wlo, 32), bound64);
  const __m512i idx0 =
      _mm512_srli_epi64(_mm512_add_epi64(hi0, _mm512_srli_epi64(lo0, 32)), 32);
  const __m512i lo1 = _mm512_mul_epu32(whi, bound64);
  const __m512i hi1 = _mm512_mul_epu32(_mm512_srli_epi64(whi, 32), bound64);
  const __m512i idx1 =
      _mm512_srli_epi64(_mm512_add_epi64(hi1, _mm512_srli_epi64(lo1, 32)), 32);
  return _mm512_inserti64x4(_mm512_castsi256_si512(_mm512_cvtepi64_epi32(idx0)),
                            _mm512_cvtepi64_epi32(idx1), 1);
}

/// Generates the 16 u32 indices of sample plane `s` for nodes
/// [node0, node0+16) (node0 such that the plane's words start block-even).
inline __m512i plane_indices(const FusedArgs& args, unsigned s, std::uint64_t node0) {
  const std::uint64_t w0 = static_cast<std::uint64_t>(s) * args.n_pad + node0;
  const Pair p = philox_pair(w0 >> 1, args.round, args.key);
  __m512i wlo, whi;
  emit_pair(p, wlo, whi);
  const __m512i bound64 = _mm512_set1_epi64(static_cast<long long>(args.bound));
  return scale16(wlo, whi, bound64);
}

/// Gathers the sampled states (u32-widened) for 16 indices: through the
/// neighbor row on regular graphs, directly on the complete graph. The
/// byte states are padded (GraphStepWorkspace::prepare) so the u32 loads at
/// nodes8 + id stay in bounds.
template <bool Complete>
inline __m512i gather16(const FusedArgs& args, const __m512i& idx, std::uint64_t node0) {
  const __m512i ff = _mm512_set1_epi32(0xff);
  __m512i target;
  if constexpr (Complete) {
    target = idx;
  } else {
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m512i node =
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(node0)), lane);
    const __m512i addr = _mm512_add_epi32(
        _mm512_mullo_epi32(node, _mm512_set1_epi32(static_cast<int>(args.bound))), idx);
    target = _mm512_i32gather_epi32(addr, reinterpret_cast<const int*>(args.neighbors), 4);
  }
  return _mm512_and_si512(
      _mm512_i32gather_epi32(target, reinterpret_cast<const int*>(args.nodes8), 1), ff);
}

template <class Tag, bool Complete>
void fused_kernel(const FusedArgs& args) {
  std::uint64_t i = args.base;
  const std::uint64_t end = args.base + args.count;
  // Scalar head until the word index (== node index in plane 0) is 16-aligned;
  // n_pad is 64-aligned so every plane is then pair-aligned simultaneously.
  while (i < end && (i & 15) != 0) fused_scalar_node<Tag>(args, i++);
  for (; i + 16 <= end; i += 16) {
    __m512i next;
    if constexpr (std::is_same_v<Tag, MajorityTag>) {
      const __m512i a = gather16<Complete>(args, plane_indices(args, 0, i), i);
      const __m512i b = gather16<Complete>(args, plane_indices(args, 1, i), i);
      const __m512i c = gather16<Complete>(args, plane_indices(args, 2, i), i);
      // select((b == c) & (a != b), b, a)
      const __mmask16 take_b =
          _mm512_cmpeq_epi32_mask(b, c) & _mm512_cmpneq_epi32_mask(a, b);
      next = _mm512_mask_blend_epi32(take_b, a, b);
    } else if constexpr (std::is_same_v<Tag, VoterTag>) {
      next = gather16<Complete>(args, plane_indices(args, 0, i), i);
    } else {
      const __m512i seen = gather16<Complete>(args, plane_indices(args, 0, i), i);
      const __m512i own = _mm512_cvtepu8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(args.nodes8 + i)));
      const __m512i undecided = _mm512_set1_epi32(static_cast<int>(args.states - 1));
      const __mmask16 keep = _mm512_cmpeq_epi32_mask(seen, own) |
                             _mm512_cmpeq_epi32_mask(seen, undecided);
      const __m512i colored = _mm512_mask_blend_epi32(keep, undecided, own);
      const __mmask16 isund = _mm512_cmpeq_epi32_mask(own, undecided);
      next = _mm512_mask_blend_epi32(isund, colored, seen);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(args.out8 + i), _mm512_cvtepi32_epi8(next));
  }
  while (i < end) fused_scalar_node<Tag>(args, i++);
}

void count_u8_avx512(const std::uint8_t* data, std::size_t lo, std::size_t hi, state_t k,
                     count_t* local) {
  for (state_t j = 0; j < k; ++j) {
    const __m512i needle = _mm512_set1_epi8(static_cast<char>(j));
    count_t c = 0;
    std::size_t i = lo;
    for (; i + 64 <= hi; i += 64) {
      const __m512i v = _mm512_loadu_si512(reinterpret_cast<const __m512i*>(data + i));
      c += static_cast<count_t>(__builtin_popcountll(
          static_cast<std::uint64_t>(_mm512_cmpeq_epi8_mask(v, needle))));
    }
    for (; i < hi; ++i) c += (data[i] == static_cast<std::uint8_t>(j));
    local[j] += c;
  }
}

const Ops kAvx512Ops = {
    "avx512",
    &fill_words_avx512,
    &fused_kernel<MajorityTag, false>,
    &fused_kernel<VoterTag, false>,
    &fused_kernel<UndecidedTag, false>,
    &fused_kernel<MajorityTag, true>,
    &fused_kernel<VoterTag, true>,
    &fused_kernel<UndecidedTag, true>,
    &count_u8_avx512,
};

}  // namespace

const Ops* avx512_ops() { return &kAvx512Ops; }

}  // namespace plurality::graph::simd

#endif  // AVX512 macros
