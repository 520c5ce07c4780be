#include "util/simd_kernels.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUBCOVER_SIMD_X86 1
#include <immintrin.h>
#else
#define SUBCOVER_SIMD_X86 0
#endif

namespace subcover::simd {

// ---- scalar backend: the reference semantics --------------------------------
// Every vector backend below is pinned byte-identical to these loops by
// tests/util/simd_kernels_test.cc; keep them boring.

namespace scalar {

void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}

void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n, std::uint32_t floor,
                           std::uint32_t* out) {
  std::uint32_t m = ~std::uint32_t{0};
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t r = rank[i];
    if (r >= floor) m = std::min(m, r);
    out[i] = m;
  }
}

std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n, std::uint64_t key) {
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 0) {
    const std::size_t half = len >> 1;
    if (keys[lo + half] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo;
}

std::size_t lower_bound_kv_u64(const std::uint64_t* words, std::size_t first, std::size_t last,
                               std::uint64_t key) {
  std::size_t lo = first;
  std::size_t len = last - first;
  while (len > 0) {
    const std::size_t half = len >> 1;
    if (words[2 * (lo + half)] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo;
}

std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin, std::size_t n,
                          std::uint64_t key) {
  for (std::size_t i = begin; i < n; ++i) {
    if (v[i] >= key) return i;
  }
  return n;
}

std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n, u128 key) {
  for (std::size_t i = begin; i < n; ++i) {
    if (v[i] >= key) return i;
  }
  return n;
}

void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi, std::size_t n,
                        std::uint64_t qlo, std::uint64_t qhi, std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(qlo <= lo[i] && hi[i] <= qhi ? 1 : 0);
  }
}

std::size_t head_rank_scan_u64(const std::uint64_t* extent, const std::uint64_t* lo,
                               std::size_t n) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (extent[i] > extent[best] || (extent[i] == extent[best] && lo[i] < lo[best])) best = i;
  }
  return best;
}

std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n, std::uint64_t cube_cells,
                               std::uint64_t* run_lo, std::uint64_t* run_hi) {
  std::size_t m = 0;
  run_lo[0] = lo[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (lo[i] - lo[i - 1] != cube_cells) {
      run_hi[m] = lo[i - 1] + (cube_cells - 1);
      run_lo[++m] = lo[i];
    }
  }
  run_hi[m] = lo[n - 1] + (cube_cells - 1);
  return m + 1;
}

}  // namespace scalar

#if SUBCOVER_SIMD_X86

// ---- SSE4.2 backend ---------------------------------------------------------
// Two u64 lanes (four u32 lanes) per step. SSE4.2 is the floor tier because
// _mm_cmpgt_epi64 — the unsigned-compare building block after the sign flip —
// arrived with it.

namespace sse42 {

#define SUBCOVER_TGT __attribute__((target("sse4.2")))

namespace {

// Unsigned u64 compare via the sign-flip trick: flipping the top bit maps
// unsigned order onto the signed compare the ISA provides.
SUBCOVER_TGT inline __m128i sign64() {
  return _mm_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
}
SUBCOVER_TGT inline __m128i cmpgt_u64(__m128i a, __m128i b) {
  const __m128i s = sign64();
  return _mm_cmpgt_epi64(_mm_xor_si128(a, s), _mm_xor_si128(b, s));
}
SUBCOVER_TGT inline __m128i min_u64v(__m128i a, __m128i b) {
  return _mm_blendv_epi8(a, b, cmpgt_u64(a, b));
}
SUBCOVER_TGT inline __m128i max_u64v(__m128i a, __m128i b) {
  return _mm_blendv_epi8(b, a, cmpgt_u64(a, b));
}
SUBCOVER_TGT inline std::uint64_t lane0(__m128i v) {
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}
SUBCOVER_TGT inline std::uint64_t lane1(__m128i v) {
  return static_cast<std::uint64_t>(_mm_extract_epi64(v, 1));
}
SUBCOVER_TGT inline __m128i loadu(const std::uint64_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
SUBCOVER_TGT inline __m128i loadu32(const std::uint32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Largest lane (0 if empty): the head scan's first pass.
SUBCOVER_TGT std::uint64_t max_u64(const std::uint64_t* v, std::size_t n) {
  std::size_t i = 0;
  __m128i acc = _mm_setzero_si128();
  for (; i + 2 <= n; i += 2) acc = max_u64v(acc, loadu(v + i));
  std::uint64_t m = std::max(lane0(acc), lane1(acc));
  for (; i < n; ++i) m = std::max(m, v[i]);
  return m;
}

}  // namespace

SUBCOVER_TGT void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_sub_epi64(loadu(a + i), loadu(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

SUBCOVER_TGT void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n,
                                        std::uint32_t floor, std::uint32_t* out) {
  // Right to left: scalar over the unaligned tail so the vector body sees
  // whole 4-lane blocks, then in-register suffix minima per block.
  std::uint32_t m = ~std::uint32_t{0};
  std::size_t i = n;
  const std::size_t aligned = n & ~std::size_t{3};
  while (i > aligned) {
    --i;
    const std::uint32_t r = rank[i];
    if (r >= floor) m = std::min(m, r);
    out[i] = m;
  }
  const __m128i s32 = _mm_set1_epi32(static_cast<int>(0x80000000U));
  const __m128i floor_x = _mm_set1_epi32(static_cast<int>(floor ^ 0x80000000U));
  const __m128i maxv = _mm_set1_epi32(-1);
  __m128i carry = _mm_set1_epi32(static_cast<int>(m));
  while (i >= 4) {
    i -= 4;
    __m128i x = loadu32(rank + i);
    // Lanes below the floor act as +infinity (they are already-answered
    // head ranks, see the scalar reference).
    const __m128i below = _mm_cmpgt_epi32(floor_x, _mm_xor_si128(x, s32));
    x = _mm_blendv_epi8(x, maxv, below);
    // In-block suffix minima: shift later lanes over earlier ones, filling
    // vacated lanes with +infinity (a plain byte shift fills with zeros,
    // which would poison the minimum).
    __m128i s1 = _mm_srli_si128(x, 4);
    s1 = _mm_blend_epi16(s1, maxv, 0xC0);
    x = _mm_min_epu32(x, s1);
    __m128i s2 = _mm_srli_si128(x, 8);
    s2 = _mm_blend_epi16(s2, maxv, 0xF0);
    x = _mm_min_epu32(x, s2);
    x = _mm_min_epu32(x, carry);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), x);
    carry = _mm_shuffle_epi32(x, 0x00);
  }
}

SUBCOVER_TGT std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n,
                                         std::uint64_t key) {
  // Binary phase down to a small window, then a branch-free count of lanes
  // below the key: in a sorted window that count IS the partition offset.
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 16) {
    const std::size_t half = len >> 1;
    if (keys[lo + half] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  const __m128i key_b = _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  std::size_t lt = 0;
  for (; i + 2 <= len; i += 2) {
    const int mm = _mm_movemask_epi8(cmpgt_u64(key_b, loadu(keys + lo + i)));
    lt += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mm))) / 8;
  }
  for (; i < len; ++i) lt += keys[lo + i] < key ? 1 : 0;
  return lo + lt;
}

SUBCOVER_TGT std::size_t lower_bound_kv_u64(const std::uint64_t* words, std::size_t first,
                                            std::size_t last, std::uint64_t key) {
  std::size_t lo = first;
  std::size_t len = last - first;
  while (len > 16) {
    const std::size_t half = len >> 1;
    if (words[2 * (lo + half)] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  const __m128i key_b = _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  std::size_t lt = 0;
  for (; i + 2 <= len; i += 2) {
    // Two {key, payload} pairs per pair of loads; unpacklo gathers the keys
    // (lane order is irrelevant to a population count).
    const __m128i a = loadu(words + 2 * (lo + i));
    const __m128i b = loadu(words + 2 * (lo + i) + 2);
    const __m128i k = _mm_unpacklo_epi64(a, b);
    const int mm = _mm_movemask_epi8(cmpgt_u64(key_b, k));
    lt += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mm))) / 8;
  }
  for (; i < len; ++i) lt += words[2 * (lo + i)] < key ? 1 : 0;
  return lo + lt;
}

SUBCOVER_TGT std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin, std::size_t n,
                                       std::uint64_t key) {
  const __m128i key_b = _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = begin;
  for (; i + 2 <= n; i += 2) {
    const unsigned lt = static_cast<unsigned>(_mm_movemask_epi8(cmpgt_u64(key_b, loadu(v + i))));
    const unsigned ge = ~lt & 0xFFFFU;
    if (ge != 0) return i + static_cast<std::size_t>(std::countr_zero(ge)) / 8;
  }
  for (; i < n; ++i) {
    if (v[i] >= key) return i;
  }
  return n;
}

std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n, u128 key) {
  // One u128 already fills a 128-bit register; the two-lane win only exists
  // at AVX2 width, so this tier keeps the scalar compare.
  return scalar::first_geq_u128(v, begin, n, key);
}

SUBCOVER_TGT void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi,
                                     std::size_t n, std::uint64_t qlo, std::uint64_t qhi,
                                     std::uint8_t* out) {
  const __m128i qlo_b = _mm_set1_epi64x(static_cast<long long>(qlo));
  const __m128i qhi_b = _mm_set1_epi64x(static_cast<long long>(qhi));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i bad =
        _mm_or_si128(cmpgt_u64(qlo_b, loadu(lo + i)), cmpgt_u64(loadu(hi + i), qhi_b));
    const unsigned mm = static_cast<unsigned>(_mm_movemask_epi8(bad));
    out[i] = static_cast<std::uint8_t>(((mm >> 0) & 1U) ^ 1U);
    out[i + 1] = static_cast<std::uint8_t>(((mm >> 8) & 1U) ^ 1U);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(qlo <= lo[i] && hi[i] <= qhi ? 1 : 0);
  }
}

SUBCOVER_TGT std::size_t head_rank_scan_u64(const std::uint64_t* extent, const std::uint64_t* lo,
                                            std::size_t n) {
  // Three branch-free passes: the max extent, the min lo among its holders,
  // then the first index carrying both. Ties resolve exactly as the scalar
  // keep-first loop (the first (max extent, min lo) lane is the answer).
  const std::uint64_t m = max_u64(extent, n);
  const __m128i m_b = _mm_set1_epi64x(static_cast<long long>(m));
  const __m128i maxv = _mm_set1_epi64x(-1);
  __m128i acc = maxv;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i eq = _mm_cmpeq_epi64(loadu(extent + i), m_b);
    acc = min_u64v(acc, _mm_blendv_epi8(maxv, loadu(lo + i), eq));
  }
  std::uint64_t minlo = std::min(lane0(acc), lane1(acc));
  for (; i < n; ++i) {
    if (extent[i] == m) minlo = std::min(minlo, lo[i]);
  }
  const __m128i minlo_b = _mm_set1_epi64x(static_cast<long long>(minlo));
  for (i = 0; i + 2 <= n; i += 2) {
    const __m128i both = _mm_and_si128(_mm_cmpeq_epi64(loadu(extent + i), m_b),
                                       _mm_cmpeq_epi64(loadu(lo + i), minlo_b));
    const unsigned mm = static_cast<unsigned>(_mm_movemask_epi8(both));
    if (mm != 0) return i + static_cast<std::size_t>(std::countr_zero(mm)) / 8;
  }
  for (; i < n; ++i) {
    if (extent[i] == m && lo[i] == minlo) return i;
  }
  return 0;  // unreachable: the (m, minlo) lane exists by construction
}

SUBCOVER_TGT std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n,
                                            std::uint64_t cube_cells, std::uint64_t* run_lo,
                                            std::uint64_t* run_hi) {
  const __m128i cube_b = _mm_set1_epi64x(static_cast<long long>(cube_cells));
  std::size_t m = 0;
  run_lo[0] = lo[0];
  std::size_t i = 1;
  while (i + 2 <= n) {
    // Clustered frontiers chain for long stretches: skip whole blocks whose
    // pairwise gaps all equal the cube size, fall back per-lane otherwise.
    const __m128i d = _mm_sub_epi64(loadu(lo + i), loadu(lo + i - 1));
    const unsigned mm = static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi64(d, cube_b)));
    if (mm == 0xFFFFU) {
      i += 2;
      continue;
    }
    for (const std::size_t end = i + 2; i < end; ++i) {
      if (lo[i] - lo[i - 1] != cube_cells) {
        run_hi[m] = lo[i - 1] + (cube_cells - 1);
        run_lo[++m] = lo[i];
      }
    }
  }
  for (; i < n; ++i) {
    if (lo[i] - lo[i - 1] != cube_cells) {
      run_hi[m] = lo[i - 1] + (cube_cells - 1);
      run_lo[++m] = lo[i];
    }
  }
  run_hi[m] = lo[n - 1] + (cube_cells - 1);
  return m + 1;
}

#undef SUBCOVER_TGT

}  // namespace sse42

// ---- AVX2 backend -----------------------------------------------------------
// Four u64 lanes (eight u32 lanes) per step; same sign-flip compares, plus
// lane-crossing permutes for the suffix scan.

namespace avx2 {

#define SUBCOVER_TGT __attribute__((target("avx2")))

namespace {

SUBCOVER_TGT inline __m256i sign64() {
  return _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
}
SUBCOVER_TGT inline __m256i cmpgt_u64(__m256i a, __m256i b) {
  const __m256i s = sign64();
  return _mm256_cmpgt_epi64(_mm256_xor_si256(a, s), _mm256_xor_si256(b, s));
}
SUBCOVER_TGT inline __m256i min_u64v(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, cmpgt_u64(a, b));
}
SUBCOVER_TGT inline __m256i max_u64v(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, cmpgt_u64(a, b));
}
SUBCOVER_TGT inline __m256i loadu(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
SUBCOVER_TGT inline __m256i loadu32(const std::uint32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
SUBCOVER_TGT inline std::uint64_t hmin(__m256i v) {
  alignas(32) std::uint64_t w[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(w), v);
  return std::min(std::min(w[0], w[1]), std::min(w[2], w[3]));
}
SUBCOVER_TGT inline std::uint64_t hmax(__m256i v) {
  alignas(32) std::uint64_t w[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(w), v);
  return std::max(std::max(w[0], w[1]), std::max(w[2], w[3]));
}

// Largest lane (0 if empty): the head scan's first pass.
SUBCOVER_TGT std::uint64_t max_u64(const std::uint64_t* v, std::size_t n) {
  std::size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) acc = max_u64v(acc, loadu(v + i));
  std::uint64_t m = hmax(acc);
  for (; i < n; ++i) m = std::max(m, v[i]);
  return m;
}

}  // namespace

SUBCOVER_TGT void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi64(loadu(a + i), loadu(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

SUBCOVER_TGT void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n,
                                        std::uint32_t floor, std::uint32_t* out) {
  std::uint32_t m = ~std::uint32_t{0};
  std::size_t i = n;
  const std::size_t aligned = n & ~std::size_t{7};
  while (i > aligned) {
    --i;
    const std::uint32_t r = rank[i];
    if (r >= floor) m = std::min(m, r);
    out[i] = m;
  }
  const __m256i s32 = _mm256_set1_epi32(static_cast<int>(0x80000000U));
  const __m256i floor_x = _mm256_set1_epi32(static_cast<int>(floor ^ 0x80000000U));
  const __m256i maxv = _mm256_set1_epi32(-1);
  // Lane-crossing right shifts by 1/2/4 u32 lanes; vacated lanes refilled
  // with +infinity through the blend masks.
  const __m256i idx1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 7);
  const __m256i idx2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 7, 7);
  const __m256i idx4 = _mm256_setr_epi32(4, 5, 6, 7, 7, 7, 7, 7);
  __m256i carry = _mm256_set1_epi32(static_cast<int>(m));
  while (i >= 8) {
    i -= 8;
    __m256i x = loadu32(rank + i);
    const __m256i below = _mm256_cmpgt_epi32(floor_x, _mm256_xor_si256(x, s32));
    x = _mm256_blendv_epi8(x, maxv, below);
    x = _mm256_min_epu32(x, _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, idx1), maxv, 0x80));
    x = _mm256_min_epu32(x, _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, idx2), maxv, 0xC0));
    x = _mm256_min_epu32(x, _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, idx4), maxv, 0xF0));
    x = _mm256_min_epu32(x, carry);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), x);
    carry = _mm256_permutevar8x32_epi32(x, _mm256_setzero_si256());  // broadcast lane 0
  }
}

SUBCOVER_TGT std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n,
                                         std::uint64_t key) {
  std::size_t lo = 0;
  std::size_t len = n;
  while (len > 32) {
    const std::size_t half = len >> 1;
    if (keys[lo + half] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  const __m256i key_b = _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  std::size_t lt = 0;
  for (; i + 4 <= len; i += 4) {
    const int mm = _mm256_movemask_epi8(cmpgt_u64(key_b, loadu(keys + lo + i)));
    lt += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mm))) / 8;
  }
  for (; i < len; ++i) lt += keys[lo + i] < key ? 1 : 0;
  return lo + lt;
}

SUBCOVER_TGT std::size_t lower_bound_kv_u64(const std::uint64_t* words, std::size_t first,
                                            std::size_t last, std::uint64_t key) {
  std::size_t lo = first;
  std::size_t len = last - first;
  while (len > 32) {
    const std::size_t half = len >> 1;
    if (words[2 * (lo + half)] < key) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  const __m256i key_b = _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  std::size_t lt = 0;
  for (; i + 4 <= len; i += 4) {
    // Four {key, payload} pairs per pair of loads; unpacklo gathers the keys
    // (lane order is irrelevant to a population count).
    const __m256i a = loadu(words + 2 * (lo + i));
    const __m256i b = loadu(words + 2 * (lo + i) + 4);
    const __m256i k = _mm256_unpacklo_epi64(a, b);
    const int mm = _mm256_movemask_epi8(cmpgt_u64(key_b, k));
    lt += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mm))) / 8;
  }
  for (; i < len; ++i) lt += words[2 * (lo + i)] < key ? 1 : 0;
  return lo + lt;
}

SUBCOVER_TGT std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin, std::size_t n,
                                       std::uint64_t key) {
  const __m256i key_b = _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = begin;
  for (; i + 4 <= n; i += 4) {
    const unsigned lt = static_cast<unsigned>(_mm256_movemask_epi8(cmpgt_u64(key_b, loadu(v + i))));
    const unsigned ge = ~lt;
    if (ge != 0) return i + static_cast<std::size_t>(std::countr_zero(ge)) / 8;
  }
  for (; i < n; ++i) {
    if (v[i] >= key) return i;
  }
  return n;
}

SUBCOVER_TGT std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n,
                                        u128 key) {
  // Two u128 lanes per 256-bit load: [lo0, hi0, lo1, hi1]. The pairwise
  // compare broadcasts each lane's high/low word across its pair, so one
  // (gt_hi | (eq_hi & ge_lo)) evaluates both endpoints at once.
  const std::uint64_t klo = static_cast<std::uint64_t>(key);
  const std::uint64_t khi = static_cast<std::uint64_t>(key >> 64);
  const __m256i klo_b = _mm256_set1_epi64x(static_cast<long long>(klo));
  const __m256i khi_b = _mm256_set1_epi64x(static_cast<long long>(khi));
  std::size_t i = begin;
  for (; i + 2 <= n; i += 2) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i his = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 1, 1));
    const __m256i los = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 2, 0, 0));
    const __m256i gt_hi = cmpgt_u64(his, khi_b);
    const __m256i eq_hi = _mm256_cmpeq_epi64(his, khi_b);
    const __m256i lt_lo = cmpgt_u64(klo_b, los);
    const __m256i geq =
        _mm256_or_si256(gt_hi, _mm256_andnot_si256(lt_lo, eq_hi));
    const unsigned mm = static_cast<unsigned>(_mm256_movemask_epi8(geq));
    if ((mm & 0x1U) != 0) return i;
    if ((mm & 0x10000U) != 0) return i + 1;
  }
  for (; i < n; ++i) {
    if (v[i] >= key) return i;
  }
  return n;
}

SUBCOVER_TGT void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi,
                                     std::size_t n, std::uint64_t qlo, std::uint64_t qhi,
                                     std::uint8_t* out) {
  const __m256i qlo_b = _mm256_set1_epi64x(static_cast<long long>(qlo));
  const __m256i qhi_b = _mm256_set1_epi64x(static_cast<long long>(qhi));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i bad =
        _mm256_or_si256(cmpgt_u64(qlo_b, loadu(lo + i)), cmpgt_u64(loadu(hi + i), qhi_b));
    const unsigned mm = static_cast<unsigned>(_mm256_movemask_epi8(bad));
    out[i] = static_cast<std::uint8_t>(((mm >> 0) & 1U) ^ 1U);
    out[i + 1] = static_cast<std::uint8_t>(((mm >> 8) & 1U) ^ 1U);
    out[i + 2] = static_cast<std::uint8_t>(((mm >> 16) & 1U) ^ 1U);
    out[i + 3] = static_cast<std::uint8_t>(((mm >> 24) & 1U) ^ 1U);
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(qlo <= lo[i] && hi[i] <= qhi ? 1 : 0);
  }
}

SUBCOVER_TGT std::size_t head_rank_scan_u64(const std::uint64_t* extent, const std::uint64_t* lo,
                                            std::size_t n) {
  const std::uint64_t m = max_u64(extent, n);
  const __m256i m_b = _mm256_set1_epi64x(static_cast<long long>(m));
  const __m256i maxv = _mm256_set1_epi64x(-1);
  __m256i acc = maxv;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i eq = _mm256_cmpeq_epi64(loadu(extent + i), m_b);
    acc = min_u64v(acc, _mm256_blendv_epi8(maxv, loadu(lo + i), eq));
  }
  std::uint64_t minlo = hmin(acc);
  for (; i < n; ++i) {
    if (extent[i] == m) minlo = std::min(minlo, lo[i]);
  }
  const __m256i minlo_b = _mm256_set1_epi64x(static_cast<long long>(minlo));
  for (i = 0; i + 4 <= n; i += 4) {
    const __m256i both = _mm256_and_si256(_mm256_cmpeq_epi64(loadu(extent + i), m_b),
                                          _mm256_cmpeq_epi64(loadu(lo + i), minlo_b));
    const unsigned mm = static_cast<unsigned>(_mm256_movemask_epi8(both));
    if (mm != 0) return i + static_cast<std::size_t>(std::countr_zero(mm)) / 8;
  }
  for (; i < n; ++i) {
    if (extent[i] == m && lo[i] == minlo) return i;
  }
  return 0;  // unreachable: the (m, minlo) lane exists by construction
}

SUBCOVER_TGT std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n,
                                            std::uint64_t cube_cells, std::uint64_t* run_lo,
                                            std::uint64_t* run_hi) {
  const __m256i cube_b = _mm256_set1_epi64x(static_cast<long long>(cube_cells));
  std::size_t m = 0;
  run_lo[0] = lo[0];
  std::size_t i = 1;
  while (i + 4 <= n) {
    const __m256i d = _mm256_sub_epi64(loadu(lo + i), loadu(lo + i - 1));
    const unsigned mm =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi64(d, cube_b)));
    if (mm == 0xFFFFFFFFU) {
      i += 4;  // the whole block chains onto the open run
      continue;
    }
    for (const std::size_t end = i + 4; i < end; ++i) {
      if (lo[i] - lo[i - 1] != cube_cells) {
        run_hi[m] = lo[i - 1] + (cube_cells - 1);
        run_lo[++m] = lo[i];
      }
    }
  }
  for (; i < n; ++i) {
    if (lo[i] - lo[i - 1] != cube_cells) {
      run_hi[m] = lo[i - 1] + (cube_cells - 1);
      run_lo[++m] = lo[i];
    }
  }
  run_hi[m] = lo[n - 1] + (cube_cells - 1);
  return m + 1;
}

#undef SUBCOVER_TGT

}  // namespace avx2

#else  // !SUBCOVER_SIMD_X86

// Non-x86 builds: the vector backends forward to scalar so call sites,
// tests and benches compile unchanged (dispatch never selects them — the
// CPUID probe reports scalar).

#define SUBCOVER_FWD_BACKEND(ns)                                                               \
  namespace ns {                                                                               \
  void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,             \
               std::size_t n) {                                                                \
    scalar::sub_u64(a, b, out, n);                                                             \
  }                                                                                            \
  void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n, std::uint32_t floor,    \
                             std::uint32_t* out) {                                             \
    scalar::suffix_min_masked_u32(rank, n, floor, out);                                        \
  }                                                                                            \
  std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n, std::uint64_t key) {   \
    return scalar::lower_bound_u64(keys, n, key);                                              \
  }                                                                                            \
  std::size_t lower_bound_kv_u64(const std::uint64_t* words, std::size_t first,                \
                                 std::size_t last, std::uint64_t key) {                        \
    return scalar::lower_bound_kv_u64(words, first, last, key);                                \
  }                                                                                            \
  std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin, std::size_t n,          \
                            std::uint64_t key) {                                               \
    return scalar::first_geq_u64(v, begin, n, key);                                            \
  }                                                                                            \
  std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n, u128 key) {      \
    return scalar::first_geq_u128(v, begin, n, key);                                           \
  }                                                                                            \
  void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi, std::size_t n,     \
                          std::uint64_t qlo, std::uint64_t qhi, std::uint8_t* out) {           \
    scalar::contained_mask_u64(lo, hi, n, qlo, qhi, out);                                      \
  }                                                                                            \
  std::size_t head_rank_scan_u64(const std::uint64_t* extent, const std::uint64_t* lo,         \
                                 std::size_t n) {                                              \
    return scalar::head_rank_scan_u64(extent, lo, n);                                          \
  }                                                                                            \
  std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n,                       \
                                 std::uint64_t cube_cells, std::uint64_t* run_lo,              \
                                 std::uint64_t* run_hi) {                                      \
    return scalar::coalesce_cubes_u64(lo, n, cube_cells, run_lo, run_hi);                      \
  }                                                                                            \
  }

SUBCOVER_FWD_BACKEND(sse42)
SUBCOVER_FWD_BACKEND(avx2)

#undef SUBCOVER_FWD_BACKEND

#endif  // SUBCOVER_SIMD_X86

}  // namespace subcover::simd
