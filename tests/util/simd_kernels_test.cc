// Property tests pinning every SIMD kernel backend byte-identical to the
// scalar reference (util/simd_kernels.h's exactness contract).
//
// Each kernel is driven over an adversarial input family — empty columns,
// a single lane, odd lengths hitting every tail remainder of both vector
// widths (n mod 4 for the 2-lane SSE tier, n mod 8 for the u32 lanes),
// duplicate keys, all-equal columns, and random columns with planted
// structure — and all three backends must return the same bytes. On a
// non-AVX2 (or non-x86) host the vector backends forward to scalar, so the
// assertions stay meaningful everywhere and the dispatch entry points are
// covered by construction.

#include "util/simd_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/cpu_features.h"
#include "util/random.h"

namespace subcover {
namespace {

using simd_u64 = std::vector<std::uint64_t>;

// Lengths covering every vector-width modulus: 0..17 hits n mod 4 and n mod 8
// at every phase plus multi-block bodies; the larger sizes exercise long
// vector runs with tails.
const std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257};

simd_u64 random_column(rng& r, std::size_t n, std::uint64_t span) {
  simd_u64 v(n);
  for (auto& x : v) x = span == 0 ? r.next() : r.uniform(0, span);
  return v;
}

TEST(SimdKernels, SubMatchesScalar) {
  rng r(3);
  for (const std::size_t n : kLengths) {
    simd_u64 a = random_column(r, n, 0);
    simd_u64 b = random_column(r, n, 0);
    simd_u64 x(n), y(n), z(n);
    simd::scalar::sub_u64(a.data(), b.data(), x.data(), n);
    simd::sse42::sub_u64(a.data(), b.data(), y.data(), n);
    simd::avx2::sub_u64(a.data(), b.data(), z.data(), n);
    EXPECT_EQ(x, y);
    EXPECT_EQ(x, z);
  }
}

TEST(SimdKernels, SuffixMinMaskedMatchesScalarAtEveryFloor) {
  rng r(4);
  for (const std::size_t n : kLengths) {
    std::vector<std::uint32_t> rank(n);
    for (auto& x : rank) x = static_cast<std::uint32_t>(r.uniform(0, n + 4));
    // All-equal ranks are a worst case for the masking blend.
    std::vector<std::uint32_t> equal(n, 7);
    for (const auto* col : {&rank, &equal}) {
      for (const std::uint32_t floor :
           {std::uint32_t{0}, std::uint32_t{1}, std::uint32_t{3},
            static_cast<std::uint32_t>(n), ~std::uint32_t{0}}) {
        std::vector<std::uint32_t> a(n), b(n), c(n);
        simd::scalar::suffix_min_masked_u32(col->data(), n, floor, a.data());
        simd::sse42::suffix_min_masked_u32(col->data(), n, floor, b.data());
        simd::avx2::suffix_min_masked_u32(col->data(), n, floor, c.data());
        EXPECT_EQ(a, b) << "n=" << n << " floor=" << floor;
        EXPECT_EQ(a, c) << "n=" << n << " floor=" << floor;
      }
    }
  }
}

TEST(SimdKernels, LowerBoundMatchesStdOnDuplicateHeavyColumns) {
  rng r(5);
  for (const std::size_t n : kLengths) {
    // span 7 forces long duplicate runs; span 0 gives distinct keys.
    for (const std::uint64_t span : {std::uint64_t{7}, std::uint64_t{0}}) {
      simd_u64 keys = random_column(r, n, span);
      std::sort(keys.begin(), keys.end());
      simd_u64 probes = {0, 1, ~std::uint64_t{0}};
      if (n > 0) {
        probes.push_back(keys.front());
        probes.push_back(keys.back());
        probes.push_back(keys[n / 2]);
        probes.push_back(keys[n / 2] + 1);
      }
      for (const std::uint64_t key : probes) {
        const auto expect = static_cast<std::size_t>(
            std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
        EXPECT_EQ(simd::scalar::lower_bound_u64(keys.data(), n, key), expect);
        EXPECT_EQ(simd::sse42::lower_bound_u64(keys.data(), n, key), expect);
        EXPECT_EQ(simd::avx2::lower_bound_u64(keys.data(), n, key), expect);
      }
    }
  }
}

TEST(SimdKernels, LowerBoundKvMatchesPairwiseReference) {
  rng r(6);
  for (const std::size_t n : kLengths) {
    // Interleaved {key, payload} pairs sorted by key, duplicate-heavy.
    simd_u64 keys = random_column(r, n, 5);
    std::sort(keys.begin(), keys.end());
    simd_u64 words(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      words[2 * i] = keys[i];
      words[2 * i + 1] = r.next();  // payloads must never affect the bound
    }
    for (std::uint64_t key = 0; key <= 6; ++key) {
      const auto expect = static_cast<std::size_t>(
          std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
      EXPECT_EQ(simd::scalar::lower_bound_kv_u64(words.data(), 0, n, key), expect);
      EXPECT_EQ(simd::sse42::lower_bound_kv_u64(words.data(), 0, n, key), expect);
      EXPECT_EQ(simd::avx2::lower_bound_kv_u64(words.data(), 0, n, key), expect);
      // Windowed form: the answer clamps to the window like std::lower_bound
      // over [first, last).
      if (n >= 4) {
        const auto win = static_cast<std::size_t>(
            std::lower_bound(keys.begin() + 1, keys.end() - 1, key) - keys.begin());
        EXPECT_EQ(simd::lower_bound_kv_u64(words.data(), 1, n - 1, key), win);
      }
    }
  }
}

TEST(SimdKernels, FirstGeqU64MatchesScalarOnUnsortedColumns) {
  rng r(7);
  for (const std::size_t n : kLengths) {
    simd_u64 v = random_column(r, n, 15);  // duplicates + no ordering
    for (const std::uint64_t key : {std::uint64_t{0}, std::uint64_t{8}, std::uint64_t{15},
                                    std::uint64_t{16}, ~std::uint64_t{0}}) {
      for (std::size_t begin = 0; begin <= n; begin += n > 6 ? 3 : 1) {
        const std::size_t expect = simd::scalar::first_geq_u64(v.data(), begin, n, key);
        EXPECT_EQ(simd::sse42::first_geq_u64(v.data(), begin, n, key), expect);
        EXPECT_EQ(simd::avx2::first_geq_u64(v.data(), begin, n, key), expect);
      }
    }
  }
}

TEST(SimdKernels, FirstGeqU128ComparesBothWords) {
  rng r(8);
  for (const std::size_t n : kLengths) {
    std::vector<u128> v(n);
    for (auto& x : v) {
      // Low span on both words so high-word ties force the low-word compare.
      x = (u128(r.uniform(0, 3)) << 64) | r.uniform(0, 3);
    }
    std::vector<u128> probes = {0, 1, (u128(1) << 64) | 2, (u128(2) << 64),
                                (u128(3) << 64) | 3, ~u128(0)};
    for (const u128 key : probes) {
      for (std::size_t begin = 0; begin <= n; begin += n > 6 ? 3 : 1) {
        const std::size_t expect = simd::scalar::first_geq_u128(v.data(), begin, n, key);
        EXPECT_EQ(simd::sse42::first_geq_u128(v.data(), begin, n, key), expect);
        EXPECT_EQ(simd::avx2::first_geq_u128(v.data(), begin, n, key), expect);
      }
    }
  }
}

TEST(SimdKernels, ContainedMaskMatchesScalar) {
  rng r(9);
  for (const std::size_t n : kLengths) {
    simd_u64 lo(n), hi(n);
    for (std::size_t i = 0; i < n; ++i) {
      lo[i] = r.uniform(0, 100);
      hi[i] = lo[i] + r.uniform(0, 20);
    }
    for (const auto& [qlo, qhi] :
         {std::pair<std::uint64_t, std::uint64_t>{0, ~std::uint64_t{0}},
          {10, 90},
          {50, 50},
          {90, 10}}) {  // inverted query: nothing contained
      std::vector<std::uint8_t> a(n), b(n), c(n);
      simd::scalar::contained_mask_u64(lo.data(), hi.data(), n, qlo, qhi, a.data());
      simd::sse42::contained_mask_u64(lo.data(), hi.data(), n, qlo, qhi, b.data());
      simd::avx2::contained_mask_u64(lo.data(), hi.data(), n, qlo, qhi, c.data());
      EXPECT_EQ(a, b);
      EXPECT_EQ(a, c);
    }
  }
}

TEST(SimdKernels, HeadRankScanAgreesWithProbeOrderArgbest) {
  rng r(10);
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // the kernel requires n > 0
    // Few distinct extents force extent ties decided by lo; distinct lows
    // mirror the merged frontier's invariant, but duplicate lows are also
    // exercised (keep-first tie-break must still agree).
    for (const bool dup_lo : {false, true}) {
      simd_u64 ext(n), lo(n);
      for (std::size_t i = 0; i < n; ++i) {
        ext[i] = r.uniform(0, 2);
        lo[i] = dup_lo ? r.uniform(0, 2) : i * 1000 + r.uniform(0, 999);
      }
      const std::size_t expect = simd::scalar::head_rank_scan_u64(ext.data(), lo.data(), n);
      EXPECT_EQ(simd::sse42::head_rank_scan_u64(ext.data(), lo.data(), n), expect);
      EXPECT_EQ(simd::avx2::head_rank_scan_u64(ext.data(), lo.data(), n), expect);
      // Cross-check the reference against the literal probes_before loop.
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (ext[i] > ext[best] || (ext[i] == ext[best] && lo[i] < lo[best])) best = i;
      }
      EXPECT_EQ(expect, best);
    }
  }
}

TEST(SimdKernels, CoalesceCubesMatchesScalarOnClusteredAndScatteredLows) {
  rng r(11);
  const std::uint64_t cube = 16;
  for (const std::size_t n : kLengths) {
    if (n == 0) continue;  // the kernel requires n > 0
    for (const double adjacency : {0.0, 0.5, 1.0}) {
      simd_u64 lo(n);
      std::uint64_t next = 0;
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = next;
        // Either chain (gap == cube) or jump — aligned either way.
        next += r.bernoulli(adjacency) ? cube : cube * (2 + r.uniform(0, 3));
      }
      simd_u64 alo(n), ahi(n), blo(n), bhi(n), clo(n), chi(n);
      const std::size_t am = simd::scalar::coalesce_cubes_u64(lo.data(), n, cube, alo.data(), ahi.data());
      const std::size_t bm = simd::sse42::coalesce_cubes_u64(lo.data(), n, cube, blo.data(), bhi.data());
      const std::size_t cm = simd::avx2::coalesce_cubes_u64(lo.data(), n, cube, clo.data(), chi.data());
      ASSERT_EQ(am, bm);
      ASSERT_EQ(am, cm);
      for (std::size_t i = 0; i < am; ++i) {
        EXPECT_EQ(alo[i], blo[i]);
        EXPECT_EQ(ahi[i], bhi[i]);
        EXPECT_EQ(alo[i], clo[i]);
        EXPECT_EQ(ahi[i], chi[i]);
      }
      // Reference semantics: runs partition the cubes, ends are cube ends.
      std::uint64_t covered = 0;
      for (std::size_t i = 0; i < am; ++i) {
        ASSERT_LE(alo[i], ahi[i]);
        covered += (ahi[i] - alo[i] + 1) / cube;
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(SimdKernels, DispatchReportsAConsistentLevel) {
  const cpu_features_t& f = cpu_features();
  // force_scalar (the env hatch) must pin everything scalar.
  if (f.force_scalar) {
    EXPECT_EQ(f.simd, simd_level::scalar);
    EXPECT_FALSE(f.bmi2);
  }
  EXPECT_STREQ(simd_level_name(simd_level::scalar), "scalar");
  EXPECT_STREQ(simd_level_name(simd_level::sse42), "sse4.2");
  EXPECT_STREQ(simd_level_name(simd_level::avx2), "avx2");
}

}  // namespace
}  // namespace subcover
