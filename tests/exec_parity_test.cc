// Execution parity tier: the dispatched SIMD kernel table vs the scalar
// reference, and 1 vs T threads for FleetView's rollups, must produce
// *bitwise-identical* results. The kernel tests compare every entry
// of kern::ActiveKernels() with kern::ScalarKernels() directly, with
// NaN, +/-inf, -0.0 and a denormal in every vector lane; the rollup
// tests compare thread counts (BandsOf, DiffHistory, rankings) and
// the sort-based band reference. Comparisons use bit patterns (not
// ==) so NaN-carrying outputs are pinned too. The TSan CI job runs
// this binary: the threaded rollups here are the concurrency coverage
// for common/task_pool.
//
// Build note: -DASAP_DISABLE_SIMD=ON (and a CPU without AVX2/NEON)
// makes kern::ActiveKernels() the scalar table; the kernel tests then
// compare scalar against scalar and still must hold.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/exec_policy.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "core/kernels.h"
#include "core/series_context.h"
#include "stream/fleet_view.h"
#include "stream/sharded_engine.h"
#include "stream/source.h"
#include "ts/generators.h"

namespace asap {
namespace {

using stream::FleetPercentileBands;
using stream::FleetSample;
using stream::FleetView;
using stream::SampledSeries;

// Bit-pattern equality: distinguishes -0.0 from 0.0 and treats equal
// NaN payloads as equal (== would not).
bool BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

::testing::AssertionResult BitEqVec(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEq(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> NoisySeasonal(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  return gen::Add(gen::Sine(n, 48.0, 2.0), gen::WhiteNoise(&rng, n, 0.5));
}

ExecPolicy Threads(size_t t) {
  ExecPolicy policy;
  policy.threads = t;
  return policy;
}

// --- Kernel tables: the active table against the scalar reference ----------

const double kInf = std::numeric_limits<double>::infinity();

// The values every vector lane must handle like the scalar path does.
// NaN comes last so the first four alone give a NaN-free mix.
const double kSpecials[] = {kInf, -kInf, -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::quiet_NaN()};

// `len` values in [-3, 3). With `specials` > 0, every third value is
// one of the first `specials` entries of kSpecials, each used for four
// consecutive slots (i = 3k, special k / 4), so special j sits in
// lanes 0..3 (3k mod 4) at i in [12j, 12j + 12): all of them land in
// every lane once len >= 12 * specials.
std::vector<double> LaneData(size_t len, uint64_t seed, size_t specials) {
  Pcg32 rng(seed);
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = 6.0 * rng.NextDouble() - 3.0;
    if (specials > 0 && i % 3 == 0) {
      v[i] = kSpecials[(i / 3 / 4) % specials];
    }
  }
  return v;
}

// score_segment of both tables over [begin, end) for begin = 1..5 and
// every end within 5 of begin or of m = n - w + 1 (n = prefix.size()
// - 1). The means are fixed small constants: the kernels take them as
// inputs, and the centred values they are subtracted from sit near 0.
void ExpectScoreSegmentParity(const std::vector<double>& prefix, size_t w,
                              const std::string& label) {
  const kern::KernelTable& simd = kern::ActiveKernels();
  const kern::KernelTable& scalar = kern::ScalarKernels();
  const size_t n = prefix.size() - 1;
  const size_t m = n - w + 1;
  const double inv_w = 1.0 / static_cast<double>(w);
  const double mean_u = 1e-3;
  const double mean_d = -1e-4;
  for (size_t begin = 1; begin <= 5 && begin <= m; ++begin) {
    for (size_t end = begin; end <= m; ++end) {
      if (end > begin + 5 && end + 5 < m) {
        end = m - 5;  // skip to the ends near m
      }
      const kern::MomentPartials a = scalar.score_segment(
          prefix.data(), w, inv_w, mean_u, mean_d, begin, end);
      const kern::MomentPartials b = simd.score_segment(
          prefix.data(), w, inv_w, mean_u, mean_d, begin, end);
      EXPECT_TRUE(BitEq(a.s2, b.s2) && BitEq(a.s4, b.s4) &&
                  BitEq(a.sd2, b.sd2))
          << label << " w=" << w << " [" << begin << ", " << end << "): "
          << a.s2 << "/" << a.s4 << "/" << a.sd2 << " vs " << b.s2 << "/"
          << b.s4 << "/" << b.sd2;
    }
  }
}

TEST(KernelParityTest, ScoreSegmentMatchesScalarBitwise) {
  // n = 100000 and 300 are the series and windows ScoreWindow runs on
  // in the chunked and single-chunk regimes; 8-11 and 67 put every
  // begin/end lane phase next to both boundaries.
  for (size_t n : {size_t{8}, size_t{9}, size_t{10}, size_t{11}, size_t{67},
                   size_t{300}, size_t{100000}}) {
    SeriesContext ctx(NoisySeasonal(n, 7));
    const std::vector<double> prefix(ctx.prefix(), ctx.prefix() + n + 1);
    for (size_t w : {size_t{1}, size_t{2}, size_t{7}, size_t{96}, n / 3}) {
      if (w >= 1 && w <= n) {
        ExpectScoreSegmentParity(prefix, w, "n=" + std::to_string(n));
      }
    }
  }
  // Specials in the prefix array itself: with begins 1..5 each one
  // reaches every lane as u_i and as u_{i-1}.
  std::vector<double> prefix = NoisySeasonal(68, 8);
  for (size_t k = 0; k < 5; ++k) {
    prefix[11 + 12 * k] = kSpecials[(k + 4) % 5];  // NaN first
  }
  for (size_t w : {size_t{1}, size_t{2}, size_t{7}, size_t{22}}) {
    ExpectScoreSegmentParity(prefix, w, "specials");
  }
}

TEST(KernelParityTest, AbsDeltaMatchesScalarBitwise) {
  const kern::KernelTable& simd = kern::ActiveKernels();
  const kern::KernelTable& scalar = kern::ScalarKernels();
  for (size_t specials : {size_t{0}, size_t{4}, size_t{5}}) {
    for (size_t len = 0; len <= 67; ++len) {
      const std::vector<double> newer = LaneData(len, 100 + len, specials);
      // The older side carries its specials one slot later.
      std::vector<double> older = LaneData(len + 1, 200 + len, specials);
      older.erase(older.begin());
      std::vector<double> da(len), db(len);
      const kern::AbsDeltaPartials a =
          scalar.abs_delta(newer.data(), older.data(), len, da.data());
      const kern::AbsDeltaPartials b =
          simd.abs_delta(newer.data(), older.data(), len, db.data());
      EXPECT_TRUE(BitEq(a.sum_abs, b.sum_abs))
          << "len=" << len << " specials=" << specials;
      EXPECT_TRUE(BitEq(a.max_abs, b.max_abs))
          << "len=" << len << " specials=" << specials;
      EXPECT_TRUE(BitEqVec(da, db))
          << "len=" << len << " specials=" << specials;
    }
  }
}

TEST(KernelParityTest, ColumnMinMaxAndBucketizeMatchScalarBitwise) {
  const kern::KernelTable& simd = kern::ActiveKernels();
  const kern::KernelTable& scalar = kern::ScalarKernels();
  for (size_t specials : {size_t{0}, size_t{4}, size_t{5}}) {
    for (size_t len = 0; len <= 67; ++len) {
      const std::vector<double> col = LaneData(len, 300 + len, specials);
      const kern::ColumnMinMax a = scalar.column_minmax(col.data(), len);
      const kern::ColumnMinMax b = simd.column_minmax(col.data(), len);
      EXPECT_TRUE(BitEq(a.min_v, b.min_v) && BitEq(a.max_v, b.max_v))
          << "len=" << len << " specials=" << specials;
      EXPECT_EQ(a.has_nan, b.has_nan)
          << "len=" << len << " specials=" << specials;
      EXPECT_EQ(a.has_nan, specials == 5 && len > 48);

      // BandsOf's scales for the [-3, 3) range at each histogram size
      // it picks (16 to 256 buckets, (buckets - 1) / range), and the
      // infinite scale of a denormal-range column.
      for (const double scale : {15.0 / 6.0, 31.0 / 6.0, 63.0 / 6.0,
                                 127.0 / 6.0, 255.0 / 6.0, kInf}) {
        std::vector<unsigned char> ba(len), bb(len);
        std::vector<unsigned int> ha(256, 0), hb(256, 0);
        scalar.bucketize(col.data(), len, -3.0, scale, ba.data(), ha.data());
        simd.bucketize(col.data(), len, -3.0, scale, bb.data(), hb.data());
        EXPECT_EQ(ba, bb) << "len=" << len << " scale=" << scale;
        EXPECT_EQ(ha, hb) << "len=" << len << " scale=" << scale;
      }
    }
  }
}

TEST(KernelParityTest, Gather4MatchesScalarBitwise) {
  const kern::KernelTable& simd = kern::ActiveKernels();
  const kern::KernelTable& scalar = kern::ScalarKernels();
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < 67; ++r) {
    rows.push_back(LaneData(9, 400 + r, 5));
    rows.back()[r % 9] = kSpecials[r % 5];
  }
  std::vector<const double*> bases;
  for (const std::vector<double>& row : rows) {
    bases.push_back(row.data());
  }
  for (size_t count = 0; count <= 67; ++count) {
    for (size_t offset = 0; offset <= 5; ++offset) {
      std::vector<double> a(4 * count), b(4 * count);
      scalar.gather4(bases.data(), offset, count, a.data(), a.data() + count,
                     a.data() + 2 * count, a.data() + 3 * count);
      simd.gather4(bases.data(), offset, count, b.data(), b.data() + count,
                   b.data() + 2 * count, b.data() + 3 * count);
      EXPECT_TRUE(BitEqVec(a, b)) << "count=" << count << " offset=" << offset;
    }
  }
}

// --- Fleet rollups over synthetic samples -----------------------------------

// Builds a sample member whose "frame" is just the given series (the
// rollups only read frame->series/window/refreshes).
SampledSeries Member(const std::string& name, std::vector<double> series) {
  static std::vector<std::unique_ptr<std::string>>* names =
      new std::vector<std::unique_ptr<std::string>>();
  names->push_back(std::make_unique<std::string>(name));
  auto frame = std::make_shared<StreamingAsap::Frame>();
  frame->series = std::move(series);
  frame->window = 3;
  frame->refreshes = 1;
  SampledSeries member;
  member.name = *names->back();
  member.id = static_cast<stream::SeriesId>(names->size() - 1);
  member.frame = std::move(frame);
  return member;
}

// The PR 5 rollup, verbatim: per-position gather + std::sort + linear
// interpolation between closest order statistics. BandsOf must match
// it bitwise on NaN-free samples.
FleetPercentileBands ReferenceBands(const FleetSample& sample) {
  FleetPercentileBands bands;
  bands.skipped_unpublished = sample.skipped_unpublished;
  size_t positions = static_cast<size_t>(-1);
  for (const SampledSeries& member : sample.series) {
    positions = std::min(positions, member.frame->series.size());
  }
  if (sample.series.empty() || positions == 0) {
    bands.series = sample.series.size();
    return bands;
  }
  bands.positions = positions;
  bands.series = sample.series.size();
  bands.p50.resize(positions);
  bands.p90.resize(positions);
  bands.p99.resize(positions);
  std::vector<double> column(sample.series.size());
  const auto percentile = [](const std::vector<double>& sorted, double p) {
    if (sorted.size() == 1) {
      return sorted[0];
    }
    const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  for (size_t j = 0; j < positions; ++j) {
    for (size_t s = 0; s < sample.series.size(); ++s) {
      const std::vector<double>& series = sample.series[s].frame->series;
      column[s] = series[series.size() - positions + j];
    }
    std::sort(column.begin(), column.end());
    bands.p50[j] = percentile(column, 50.0);
    bands.p90[j] = percentile(column, 90.0);
    bands.p99[j] = percentile(column, 99.0);
  }
  return bands;
}

FleetSample SyntheticFleet(size_t members, size_t positions, uint64_t seed) {
  FleetSample sample;
  for (size_t s = 0; s < members; ++s) {
    // Ragged lengths: alignment must pick the newest common panes.
    sample.series.push_back(Member(
        "host-" + std::to_string(s),
        NoisySeasonal(positions + s % 5, seed + s)));
  }
  return sample;
}

void ExpectBandsBitEq(const FleetPercentileBands& a,
                      const FleetPercentileBands& b) {
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.series, b.series);
  EXPECT_TRUE(BitEqVec(a.p50, b.p50));
  EXPECT_TRUE(BitEqVec(a.p90, b.p90));
  EXPECT_TRUE(BitEqVec(a.p99, b.p99));
}

TEST(BandsParityTest, MatchesSortBasedReferenceBitwise) {
  // Fleet sizes straddle the small-n rank inversions (p90's upper
  // order statistic above p99's lower one) and the 4-wide gather tail,
  // and sit on both sides of every histogram size the selection picks
  // (the power of two >= members, 16 to 256 buckets).
  for (size_t members :
       {size_t{1}, size_t{2}, size_t{3}, size_t{10}, size_t{12}, size_t{37},
        size_t{256}, size_t{15}, size_t{16}, size_t{17}, size_t{31},
        size_t{32}, size_t{33}, size_t{63}, size_t{64}, size_t{65},
        size_t{127}, size_t{128}, size_t{129}, size_t{255}, size_t{257},
        size_t{1000}}) {
    for (size_t positions : {size_t{1}, size_t{2}, size_t{5}, size_t{103}}) {
      SCOPED_TRACE("members=" + std::to_string(members) +
                   " positions=" + std::to_string(positions));
      const FleetSample sample = SyntheticFleet(members, positions, 1000);
      const FleetPercentileBands ref = ReferenceBands(sample);
      ExpectBandsBitEq(ref, FleetView::BandsOf(sample));
      ExpectBandsBitEq(ref, FleetView::BandsOf(sample, Threads(4)));
    }
  }
}

// A sample whose column j holds value(j, s) at member s: each member's
// series is one row of the column matrix.
FleetSample ColumnFleet(size_t members, size_t positions,
                        const std::function<double(size_t, size_t)>& value) {
  FleetSample sample;
  for (size_t s = 0; s < members; ++s) {
    std::vector<double> series(positions);
    for (size_t j = 0; j < positions; ++j) {
      series[j] = value(j, s);
    }
    sample.series.push_back(
        Member("col-" + std::to_string(s), std::move(series)));
  }
  return sample;
}

TEST(BandsParityTest, AdversarialColumnsMatchReferenceBitwise) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  struct Case {
    const char* label;
    // value(j, s, members) of column j at member s.
    std::function<double(size_t, size_t, size_t)> value;
  };
  const Case cases[] = {
      // Nearly every member in one bucket: one outlier per column,
      // below the rest on even columns and above on odd ones.
      {"all-equal-but-one",
       [](size_t j, size_t s, size_t n) {
         return s != (7 * j) % n ? 2.5 : (j % 2 == 0 ? -40.0 : 40.0);
       }},
      // Three distinct values, repeated in column-dependent shares.
      {"three-values",
       [](size_t j, size_t s, size_t) {
         const double kThree[] = {-1.0, 0.25, 7.0};
         return kThree[(s * s + j) % 3];
       }},
      // Zeros of both signs, with 0-3 members at +1 and 0-2 at -1:
      // the order statistics fall on zeros of either sign.
      {"signed-zeros",
       [](size_t j, size_t s, size_t) {
         if (s < j % 4) {
           return 1.0;
         }
         if (s >= 4 && s < 4 + j % 3) {
           return -1.0;
         }
         return ((s * 2654435761u + j) >> 4) % 2 == 0 ? 0.0 : -0.0;
       }},
      // Infinities of both signs among finite members: the range, and
      // with it the bucket scale's denominator, is infinite.
      {"infinities",
       [](size_t j, size_t s, size_t) {
         if ((s + j) % 5 == 0) {
           return kInf;
         }
         if (j % 3 == 0 && (s + j) % 7 == 0) {
           return -kInf;
         }
         return static_cast<double>((37 * s + 11 * j) % 101) * 0.1 - 5.0;
       }},
      // A denormal range: (buckets - 1) / range overflows to +inf.
      {"denormal-range",
       [denorm](size_t j, size_t s, size_t) {
         return static_cast<double>((5 * s + j) % 7) * denorm;
       }},
      // A 1e-307 range: 15 / range is finite, but 31 / range and
      // wider scales overflow, so the large column takes 256 buckets.
      {"scale-overflow-edge",
       [](size_t j, size_t s, size_t) {
         return static_cast<double>((3 * s + j) % 6) * 2e-308;
       }},
  };
  for (const Case& c : cases) {
    for (size_t members : {size_t{13}, size_t{300}}) {
      SCOPED_TRACE(std::string(c.label) +
                   " members=" + std::to_string(members));
      const FleetSample sample =
          ColumnFleet(members, 9, [&](size_t j, size_t s) {
            return c.value(j, s, members);
          });
      const FleetPercentileBands ref = ReferenceBands(sample);
      ExpectBandsBitEq(ref, FleetView::BandsOf(sample, Threads(1)));
      ExpectBandsBitEq(ref, FleetView::BandsOf(sample, Threads(4)));
    }
  }
}

TEST(BandsParityTest, PoliciesAgreeBitwiseIncludingEdgeColumns) {
  FleetSample sample = SyntheticFleet(19, 64, 5000);
  // Constant member: every column gets one repeated value.
  sample.series.push_back(Member("const", std::vector<double>(64, 4.25)));
  // Denormal-range member: bucket scale overflows to +inf.
  std::vector<double> tiny(64);
  for (size_t i = 0; i < 64; ++i) {
    tiny[i] = static_cast<double>(i % 7) * 5e-324;
  }
  sample.series.push_back(Member("denormal", std::move(tiny)));
  // Infinite member: bucket scale collapses to 0.
  std::vector<double> wide = NoisySeasonal(64, 5010);
  wide[0] = std::numeric_limits<double>::infinity();
  wide[63] = -std::numeric_limits<double>::infinity();
  sample.series.push_back(Member("inf", std::move(wide)));
  // NaN member: those columns take the total-order fallback.
  std::vector<double> poisoned = NoisySeasonal(64, 5020);
  poisoned[5] = std::numeric_limits<double>::quiet_NaN();
  poisoned[63] = std::numeric_limits<double>::quiet_NaN();
  sample.series.push_back(Member("nan", std::move(poisoned)));

  const FleetPercentileBands base = FleetView::BandsOf(sample, Threads(1));
  for (const ExecPolicy& policy : {Threads(4), Threads(16)}) {
    ExpectBandsBitEq(base, FleetView::BandsOf(sample, policy));
  }
  // NaN-free positions must still match the sort-based reference.
  const FleetPercentileBands ref = ReferenceBands(sample);
  for (size_t j = 0; j < base.positions; ++j) {
    if (j == 5 || j == 63) {
      continue;  // the poisoned columns (reference sort is unspecified)
    }
    EXPECT_TRUE(BitEq(ref.p50[j], base.p50[j])) << j;
    EXPECT_TRUE(BitEq(ref.p90[j], base.p90[j])) << j;
    EXPECT_TRUE(BitEq(ref.p99[j], base.p99[j])) << j;
  }
}

TEST(BandsParityTest, ShortAndEmptySamplesAcrossPolicies) {
  // Single member, single position; and a sample with a zero-length
  // frame (positions == 0).
  FleetSample one;
  one.series.push_back(Member("solo", {2.5}));
  ExpectBandsBitEq(FleetView::BandsOf(one),
                   FleetView::BandsOf(one, Threads(8)));
  EXPECT_EQ(FleetView::BandsOf(one, Threads(8)).positions, 1u);

  FleetSample with_empty = SyntheticFleet(3, 8, 42);
  with_empty.series.push_back(Member("empty", {}));
  const FleetPercentileBands bands =
      FleetView::BandsOf(with_empty, Threads(8));
  EXPECT_EQ(bands.positions, 0u);
  EXPECT_EQ(bands.series, 4u);
}

TEST(RollupParityTest, RankingsAggregatesAndAnomalyCountsAgree) {
  const FleetSample sample = SyntheticFleet(23, 400, 9000);
  const auto base_rank = FleetView::TopKByRoughnessOf(sample, 10);
  const auto par_rank =
      FleetView::TopKByRoughnessOf(sample, 10, Threads(4));
  ASSERT_EQ(base_rank.ranks.size(), par_rank.ranks.size());
  for (size_t i = 0; i < base_rank.ranks.size(); ++i) {
    EXPECT_EQ(base_rank.ranks[i].name, par_rank.ranks[i].name);
    EXPECT_TRUE(BitEq(base_rank.ranks[i].roughness,
                      par_rank.ranks[i].roughness));
  }

  const auto base_counts = FleetView::AnomalyCountsOf(sample, {});
  const auto par_counts =
      FleetView::AnomalyCountsOf(sample, {}, Threads(4));
  EXPECT_EQ(base_counts.series, par_counts.series);
  EXPECT_EQ(base_counts.series_alerting, par_counts.series_alerting);
  EXPECT_EQ(base_counts.alerts, par_counts.alerts);
  EXPECT_EQ(base_counts.skipped_short, par_counts.skipped_short);
}

// The same members over fresh copies of their frames, so the next
// rollup computes every frame summary again.
FleetSample FreshCopies(const FleetSample& sample) {
  FleetSample copy = sample;
  for (SampledSeries& member : copy.series) {
    member.frame = std::make_shared<const StreamingAsap::Frame>(*member.frame);
  }
  return copy;
}

TEST(RollupParityTest, FreshFrameSummariesAgreeAcrossThreadCounts) {
  // Each thread count computes the frame summaries itself, on its own
  // fresh copies (the case above reads summaries its first call left).
  FleetSample sample = SyntheticFleet(23, 400, 9100);
  std::vector<double> spiky = NoisySeasonal(400, 9200);
  for (size_t i = 350; i < 360; ++i) {
    spiky[i] += 20.0;
  }
  sample.series.push_back(Member("spiky", std::move(spiky)));
  std::vector<double> poisoned = NoisySeasonal(400, 9300);
  poisoned[17] = std::numeric_limits<double>::quiet_NaN();
  sample.series.push_back(Member("nan", std::move(poisoned)));
  sample.series.push_back(Member("flat", std::vector<double>(400, 1.0)));
  sample.series.push_back(Member("short", NoisySeasonal(5, 9400)));

  const stream::AlertOptions option_sets[] = {{3.0, 3}, {2.0, 1}, {0.5, 5}};
  const FleetSample base_copy = FreshCopies(sample);
  const auto base_rank = FleetView::TopKByRoughnessOf(base_copy, 100);
  for (const ExecPolicy& policy : {Threads(4), Threads(16)}) {
    const FleetSample copy = FreshCopies(sample);
    const auto rank = FleetView::TopKByRoughnessOf(copy, 100, policy);
    ASSERT_EQ(rank.ranks.size(), base_rank.ranks.size());
    for (size_t i = 0; i < rank.ranks.size(); ++i) {
      EXPECT_EQ(rank.ranks[i].name, base_rank.ranks[i].name);
      EXPECT_TRUE(
          BitEq(rank.ranks[i].roughness, base_rank.ranks[i].roughness));
    }
    for (const stream::AlertOptions& options : option_sets) {
      const FleetSample cold = FreshCopies(sample);
      const auto want = FleetView::AnomalyCountsOf(base_copy, options);
      const auto got = FleetView::AnomalyCountsOf(cold, options, policy);
      EXPECT_EQ(got.series, want.series);
      EXPECT_EQ(got.series_alerting, want.series_alerting);
      EXPECT_EQ(got.alerts, want.alerts);
      EXPECT_EQ(got.skipped_short, want.skipped_short);
    }
  }
}

// --- Rankings with NaN keys -------------------------------------------------

// Ranks are finite keys in descending order, then NaN keys in name
// order.
template <typename Row, typename Key>
void ExpectNanLastRanking(const std::vector<Row>& ranks, Key key,
                          const std::string& what) {
  size_t first_nan = ranks.size();
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (std::isnan(key(ranks[i]))) {
      first_nan = std::min(first_nan, i);
    } else {
      EXPECT_EQ(first_nan, ranks.size()) << what << ": a number after NaN";
    }
    if (i > 0 && i < first_nan) {
      EXPECT_GT(key(ranks[i - 1]), key(ranks[i])) << what << " rank " << i;
    }
    if (i > first_nan) {
      EXPECT_LT(ranks[i - 1].name, ranks[i].name) << what << " rank " << i;
    }
  }
}

TEST(RankingOrderTest, NanRoughnessRanksLastAtEveryThreadCount) {
  // Each sample hides NaN frames among 40 members; with operator> as
  // the sort key they used to scramble the finite members' order.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Pcg32 rng(700 + seed);
    FleetSample sample;
    const size_t nan_at = rng.NextBounded(40);
    const size_t nan_too = rng.NextBounded(40);
    for (size_t s = 0; s < 40; ++s) {
      // Names out of sample order, so name ties cannot hide a misorder.
      std::vector<double> series = NoisySeasonal(100, 7000 + 40 * seed + s);
      if (s == nan_at || s == nan_too) {
        series[rng.NextBounded(100)] = std::numeric_limits<double>::quiet_NaN();
      }
      sample.series.push_back(
          Member("m-" + std::to_string((s * 17) % 40), std::move(series)));
    }
    const std::string what = "seed " + std::to_string(seed);
    const auto base = FleetView::TopKByRoughnessOf(sample, 40, Threads(1));
    ASSERT_EQ(base.ranks.size(), 40u);
    ExpectNanLastRanking(
        base.ranks, [](const stream::SeriesRank& r) { return r.roughness; },
        what);
    EXPECT_TRUE(std::isnan(base.ranks.back().roughness)) << what;
    for (const ExecPolicy& policy : {Threads(4), Threads(16)}) {
      const auto other = FleetView::TopKByRoughnessOf(FreshCopies(sample), 40,
                                                      policy);
      ASSERT_EQ(other.ranks.size(), base.ranks.size()) << what;
      for (size_t i = 0; i < base.ranks.size(); ++i) {
        EXPECT_EQ(other.ranks[i].name, base.ranks[i].name) << what;
      }
    }
  }
}

TEST(RankingOrderTest, NanChangeRanksLastAtEveryThreadCount) {
  // Series whose newest frames hold a NaN diff to NaN (mean |delta|);
  // they share their input, so their max |delta| ties and they order
  // by name.
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  options.snapshot_ring_frames = 4;
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(options, engine_options).ValueOrDie();
  stream::InterleavingMultiSource source(engine.catalog());
  std::vector<double> poisoned = NoisySeasonal(3000, 8100);
  poisoned[2000] = std::numeric_limits<double>::quiet_NaN();
  for (size_t i = 0; i < 16; ++i) {
    const std::string name = "host-" + std::to_string((i * 7) % 16);
    source.AddVector(name,
                     i % 5 == 2 ? poisoned : NoisySeasonal(3000, 8000 + i));
  }
  engine.RunToCompletion(&source);

  const FleetView plain(&engine, Threads(1));
  const auto base = plain.TopKByChange(16, 2);
  ASSERT_EQ(base.ranks.size(), 16u);
  ExpectNanLastRanking(
      base.ranks,
      [](const stream::SeriesChange& r) { return r.mean_abs_delta; },
      "TopKByChange");
  EXPECT_TRUE(std::isnan(base.ranks.back().mean_abs_delta));
  for (const ExecPolicy& policy : {Threads(4), Threads(16)}) {
    const FleetView threaded(&engine, policy);
    const auto other = threaded.TopKByChange(16, 2);
    ASSERT_EQ(other.ranks.size(), base.ranks.size());
    for (size_t i = 0; i < base.ranks.size(); ++i) {
      EXPECT_EQ(other.ranks[i].name, base.ranks[i].name) << i;
    }
  }
}

// --- Rollups through a live engine ------------------------------------------

TEST(EngineParityTest, PolicyViewMatchesDefaultViewOnSettledEngine) {
  StreamingOptions options;
  options.resolution = 100;
  options.visible_points = 2000;
  options.refresh_every_points = 250;
  options.snapshot_ring_frames = 4;
  stream::ShardedEngineOptions engine_options;
  engine_options.shards = 2;
  stream::ShardedEngine engine =
      stream::ShardedEngine::Create(options, engine_options).ValueOrDie();
  stream::InterleavingMultiSource source(engine.catalog());
  for (size_t i = 0; i < 12; ++i) {
    source.AddVector("host-" + std::to_string(i),
                     NoisySeasonal(3000, 400 + i));
  }
  engine.RunToCompletion(&source);

  const FleetView plain(&engine);
  const FleetView threaded(&engine, Threads(4));

  const stream::SeriesSelector all = stream::SeriesSelector::All();
  ExpectBandsBitEq(
      FleetView::BandsOf(plain.Sample(all), plain.exec_policy()),
      FleetView::BandsOf(threaded.Sample(all), threaded.exec_policy()));

  const auto diff_a = plain.DiffHistory("host-3", 2);
  const auto diff_b = threaded.DiffHistory("host-3", 2);
  ASSERT_TRUE(diff_a.known);
  ASSERT_TRUE(diff_b.known);
  EXPECT_EQ(diff_a.frames_apart, diff_b.frames_apart);
  EXPECT_TRUE(BitEqVec(diff_a.delta, diff_b.delta));
  EXPECT_TRUE(BitEq(diff_a.mean_abs_delta, diff_b.mean_abs_delta));
  EXPECT_TRUE(BitEq(diff_a.max_abs_delta, diff_b.max_abs_delta));

  const auto change_a = plain.TopKByChange(5, 2);
  const auto change_b = threaded.TopKByChange(5, 2);
  ASSERT_EQ(change_a.ranks.size(), change_b.ranks.size());
  for (size_t i = 0; i < change_a.ranks.size(); ++i) {
    EXPECT_EQ(change_a.ranks[i].name, change_b.ranks[i].name);
    EXPECT_TRUE(BitEq(change_a.ranks[i].mean_abs_delta,
                      change_b.ranks[i].mean_abs_delta));
  }
}

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) {
    h.store(0);
  }
  TaskPool::Global().ParallelFor(kCount, 8, [&](size_t i) {
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(TaskPoolTest, NestedParallelForFallsBackInlineWithoutDeadlock) {
  constexpr size_t kOuter = 32;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) {
    h.store(0);
  }
  TaskPool::Global().ParallelFor(kOuter, 4, [&](size_t o) {
    // The pool is busy with the outer job, so this must run inline.
    TaskPool::Global().ParallelFor(kInner, 4, [&](size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (size_t i = 0; i < kOuter * kInner; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(TaskPoolTest, ConcurrentParallelForsFromManyThreadsComplete) {
  constexpr size_t kThreads = 8;
  constexpr size_t kCount = 2000;
  std::vector<std::thread> threads;
  std::atomic<size_t> total{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TaskPool::Global().ParallelFor(kCount, 4, [&](size_t) {
        total.fetch_add(1);
      });
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(total.load(), kThreads * kCount);
}

#if defined(__linux__)
// A helper woken onto the caller's own CPU only takes turns with the
// caller, which halves a two-thread fan-out. The caller is pinned to
// each allowed CPU in turn while busy threads occupy the others, which
// leaves the kernel no idle CPU to place a woken helper on; every
// index a helper ran must still have run on another CPU than the
// caller's.
TEST(TaskPoolTest, HelpersNeverRunOnTheCallersCpu) {
  // Start the pool while this thread may still run on any CPU.
  ASSERT_GE(TaskPool::Global().worker_count(), 1u);
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original)) {
      cpus.push_back(c);
    }
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> busy;
  for (size_t k = 1; k < cpus.size(); ++k) {
    busy.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  constexpr size_t kCount = 64;
  const std::thread::id caller = std::this_thread::get_id();
  size_t helped = 0;
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      ADD_FAILURE() << "cannot pin the caller to CPU " << cpu;
      break;  // the busy threads must still be joined
    }
    std::vector<int> ran_on(kCount, -1);
    std::vector<std::thread::id> ran_by(kCount);
    TaskPool::Global().ParallelFor(kCount, 2, [&](size_t i) {
      // Long enough (~13 ms a job) for a woken helper to join.
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(200);
      while (std::chrono::steady_clock::now() < until) {
      }
      ran_on[i] = sched_getcpu();
      ran_by[i] = std::this_thread::get_id();
    });
    for (size_t i = 0; i < kCount; ++i) {
      if (ran_by[i] != caller) {
        ++helped;
        EXPECT_NE(ran_on[i], cpu) << "index " << i;
      }
    }
  }
  stop.store(true);
  for (std::thread& t : busy) {
    t.join();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  if (cpus.size() > 1) {
    EXPECT_GT(helped, 0u);
  }
}
#endif

TEST(TaskPoolTest, ZeroAndOneCountsAndPolicyResolution) {
  TaskPool::Global().ParallelFor(0, 8, [&](size_t) { FAIL(); });
  std::atomic<int> hits{0};
  TaskPool::Global().ParallelFor(1, 8, [&](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 1);
  EXPECT_GE(TaskPool::Global().worker_count(), 1u);
  EXPECT_GE(ExecPolicy{}.ResolveThreads(), 1u);
  ExecPolicy all;
  all.threads = 0;  // 0 = all hardware threads
  EXPECT_GE(all.ResolveThreads(), 1u);
}

TEST(KernelTableTest, DispatchIsConsistentWithBuildConfiguration) {
  const kern::KernelTable& scalar = kern::ScalarKernels();
  EXPECT_STREQ(scalar.name, "scalar");
  const kern::KernelTable& active = kern::ActiveKernels();
  if (!kern::SimdAvailable()) {
    EXPECT_STREQ(active.name, scalar.name);
  }
  // Chunk layout is a pure function of the element count.
  EXPECT_EQ(kern::ChunksFor(0), 0u);
  EXPECT_EQ(kern::ChunksFor(100), 1u);
  EXPECT_GT(kern::ChunksFor(1u << 20), 1u);
  const size_t total = 1000003, chunks = kern::ChunksFor(total);
  EXPECT_EQ(kern::ChunkBound(total, chunks, 0), 0u);
  EXPECT_EQ(kern::ChunkBound(total, chunks, chunks), total);
  for (size_t c = 0; c < chunks; ++c) {
    EXPECT_LE(kern::ChunkBound(total, chunks, c),
              kern::ChunkBound(total, chunks, c + 1));
  }
}

}  // namespace
}  // namespace asap
