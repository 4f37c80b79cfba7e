#include "telemetry/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace capgpu::telemetry {
namespace {

/// Nearest-rank sample quantile, matching the sketch's rank convention.
double exact_quantile(std::vector<double> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank];
}

/// Seeded latency-shaped sample: lognormal body with a uniform tail, the
/// kind of mixture the per-stage request sketches actually see.
std::vector<double> latency_sample(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double body = std::exp(-4.0 + 1.2 * rng.normal());
    const double tail = (i % 97 == 0) ? rng.uniform() * 0.5 : 0.0;
    v.push_back(body + tail);
  }
  return v;
}

TEST(QuantileSketch, QuantilesWithinRelativeErrorBound) {
  const QuantileSketchSpec spec{0.01, 1e-6};
  QuantileSketch s(spec);
  std::vector<double> sample = latency_sample(7, 20000);
  for (double x : sample) s.observe(x);
  std::sort(sample.begin(), sample.end());
  // Quantization adds 2^-14 on top of alpha; 1e-3 slack covers both.
  const double bound = spec.relative_error + 1e-3;
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = exact_quantile(sample, q);
    const double est = s.quantile(q);
    EXPECT_NEAR(est, exact, bound * exact) << "q=" << q;
  }
}

TEST(QuantileSketch, UniformDistributionBound) {
  QuantileSketch s;
  Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) sample.push_back(0.001 + rng.uniform());
  for (double x : sample) s.observe(x);
  std::sort(sample.begin(), sample.end());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
    const double exact = exact_quantile(sample, q);
    EXPECT_NEAR(s.quantile(q), exact, 0.011 * exact) << "q=" << q;
  }
}

TEST(QuantileSketch, CountSumMinMaxTracking) {
  QuantileSketch s;
  s.observe(0.25);
  s.observe(0.5);
  s.observe_many(2.0, 3);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), 6.75);
  EXPECT_DOUBLE_EQ(s.min(), 0.25);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(QuantileSketch, EmptySketchReportsZeros) {
  const QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_EQ(s.bucket_count(), 0u);
}

TEST(QuantileSketch, SubMinTrackableCollapsesToZero) {
  QuantileSketch s;
  s.observe(-1.0);  // clamps
  s.observe(0.0);
  s.observe(1e-9);  // below min_trackable
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

TEST(QuantileSketch, MergeMatchesSingleSketchExactly) {
  // Bucket counts are integers, so a merge of per-chunk sketches must
  // reproduce the single-sketch quantiles exactly — the property the
  // parallel runner's deterministic merge relies on.
  const std::vector<double> sample = latency_sample(23, 8000);
  QuantileSketch whole;
  for (double x : sample) whole.observe(x);

  QuantileSketch merged;
  const std::size_t chunks = 8;
  const std::size_t per = sample.size() / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    QuantileSketch part;
    const std::size_t end = (c + 1 == chunks) ? sample.size() : (c + 1) * per;
    for (std::size_t i = c * per; i < end; ++i) part.observe(sample[i]);
    merged.merge_from(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  // Sums accumulate in a different order; equality is only up to rounding.
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * whole.sum());
  for (double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeEmptyIsANoOp) {
  QuantileSketch s;
  s.observe(1.0);
  const QuantileSketch empty;
  s.merge_from(empty);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(QuantileSketch, MergeSpecMismatchThrows) {
  QuantileSketch a(QuantileSketchSpec{0.01, 1e-6});
  const QuantileSketch b(QuantileSketchSpec{0.02, 1e-6});
  EXPECT_THROW(a.merge_from(b), InvalidArgument);
}

TEST(QuantileSketch, InvalidQuantileThrows) {
  const QuantileSketch s;
  EXPECT_THROW((void)s.quantile(-0.1), InvalidArgument);
  EXPECT_THROW((void)s.quantile(1.1), InvalidArgument);
}

TEST(QuantileSketch, InvalidSpecThrows) {
  EXPECT_THROW(QuantileSketch(QuantileSketchSpec{0.0, 1e-6}),
               InvalidArgument);
  EXPECT_THROW(QuantileSketch(QuantileSketchSpec{1.0, 1e-6}),
               InvalidArgument);
  EXPECT_THROW(QuantileSketch(QuantileSketchSpec{0.01, 0.0}),
               InvalidArgument);
}

TEST(QuantileSketch, ObserveSpanMatchesElementwiseObserve) {
  const std::vector<double> sample = latency_sample(31, 500);
  QuantileSketch spanwise;
  QuantileSketch elementwise;
  const double span_sum = spanwise.observe_span(sample.data(), sample.size());
  double exact_sum = 0.0;
  for (double x : sample) {
    elementwise.observe(x);
    exact_sum += x;
  }
  EXPECT_EQ(spanwise.count(), elementwise.count());
  // The span path accumulates quantized values (14 mantissa bits kept):
  // totals and extrema agree within 2^-14 relative.
  const double qtol = std::pow(2.0, -14);
  EXPECT_NEAR(span_sum, exact_sum, qtol * exact_sum);
  EXPECT_NEAR(spanwise.sum(), exact_sum, qtol * exact_sum);
  EXPECT_NEAR(spanwise.min(), elementwise.min(), qtol * elementwise.min());
  EXPECT_NEAR(spanwise.max(), elementwise.max(), qtol * elementwise.max());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(spanwise.quantile(q), elementwise.quantile(q));
  }
}

TEST(QuantileSketch, SpanClampsNegativesAndZeros) {
  const double v[] = {-0.5, 0.0, 1e-9, 0.125};
  QuantileSketch s;
  const double sum = s.observe_span(v, 4);
  EXPECT_EQ(s.count(), 4u);
  // 0.125 survives the mask exactly; the 1e-9 still contributes to the
  // sum even though it collapses into the zero bucket.
  EXPECT_NEAR(sum, 0.125, 1e-8);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.125);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);  // three of four collapse to zero
}

TEST(QuantileSketch, ApplyRecordReplaysSpanExactly) {
  const std::vector<double> sample = latency_sample(41, 64);
  SpanRecord rec;
  QuantileSketch recorder;
  recorder.observe_span_record(sample.data(), sample.size(), rec);

  // Replaying k times must equal observing the span k times: the record is
  // built from the quantized values, so both paths see identical inputs.
  const std::uint64_t k = 3;
  QuantileSketch replayed;
  replayed.apply_record(rec, k);
  QuantileSketch observed;
  for (std::uint64_t i = 0; i < k; ++i) {
    observed.observe_span(sample.data(), sample.size());
  }
  EXPECT_EQ(replayed.count(), observed.count());
  EXPECT_DOUBLE_EQ(replayed.min(), observed.min());
  EXPECT_DOUBLE_EQ(replayed.max(), observed.max());
  EXPECT_NEAR(replayed.sum(), observed.sum(), 1e-12 * observed.sum());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(replayed.quantile(q), observed.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, ApplyRecordZeroTimesIsANoOp) {
  const double v[] = {0.5};
  SpanRecord rec;
  QuantileSketch recorder;
  recorder.observe_span_record(v, 1, rec);
  QuantileSketch s;
  s.apply_record(rec, 0);
  EXPECT_EQ(s.count(), 0u);
}

/// The value a span element contributes: its quantized clamped bits.
double quantized(double x) {
  return std::bit_cast<double>(QuantileSketch::quantized_bits(x));
}

/// Quantile at every rank. Equal vectors mean equal zero counts and equal
/// counts in every bucket (bucket values are strictly increasing in key).
std::vector<double> every_rank(const QuantileSketch& s) {
  if (s.count() < 2) return {s.quantile(0.0)};
  std::vector<double> out;
  const double last = static_cast<double>(s.count() - 1);
  for (std::uint64_t r = 0; r < s.count(); ++r) {
    out.push_back(s.quantile(static_cast<double>(r) / last));
  }
  return out;
}

/// A latency span salted with every key path: negatives, zeros, values
/// under each spec's min_trackable, values under the key table's first
/// binade (2^-20) but still tracked by a small min_trackable, and values
/// past its last binade (2^12), all of which take the log fallback.
std::vector<double> mixed_span(std::uint64_t seed) {
  std::vector<double> v = latency_sample(seed, 240);
  const double specials[] = {-0.25, 0.0,    5e-9,   5e-8,   3e-7,
                             -1e-3, 6000.0, 1.5e5,  4095.9, 1.01e-6};
  for (std::size_t i = 0; i < v.size(); i += 12) {
    v[i] = specials[(i / 12) % std::size(specials)];
  }
  return v;
}

/// The default spec, the table with a min_trackable under its first
/// binade, and a spec without a table.
const QuantileSketchSpec kSpanSpecs[] = {
    QuantileSketchSpec{}, QuantileSketchSpec{0.01, 1e-7},
    QuantileSketchSpec{0.05, 1e-8}};

TEST(QuantileSketch, OnePassSpanRecordMatchesQuantizedObserve) {
  const std::vector<double> span = mixed_span(53);
  for (const QuantileSketchSpec& spec : kSpanSpecs) {
    SCOPED_TRACE(spec.relative_error);
    SCOPED_TRACE(spec.min_trackable);
    QuantileSketch spanwise(spec);
    SpanRecord rec;
    const double sum =
        spanwise.observe_span_record(span.data(), span.size(), rec);
    QuantileSketch elementwise(spec);
    std::size_t table_keys = 0;
    std::size_t log_keys = 0;
    for (const double x : span) {
      elementwise.observe(quantized(x));
      if (quantized(x) >= spec.min_trackable) {
        ++(elementwise.key_from_table(quantized(x)) ? table_keys : log_keys);
      }
    }
    if (spec.relative_error == QuantileSketchSpec{}.relative_error) {
      EXPECT_GT(table_keys, 0u);
    }
    EXPECT_GT(log_keys, 0u);

    ASSERT_EQ(rec.n, span.size());
    ASSERT_EQ(rec.quant.size(), span.size());
    for (std::size_t i = 0; i < span.size(); ++i) {
      EXPECT_EQ(rec.quant[i], QuantileSketch::quantized_bits(span[i]));
    }
    // Same values added in the same order: the sums agree bit for bit.
    EXPECT_EQ(sum, elementwise.sum());
    EXPECT_EQ(rec.quant_sum, sum);
    EXPECT_EQ(spanwise.sum(), elementwise.sum());
    EXPECT_EQ(spanwise.count(), elementwise.count());
    EXPECT_EQ(spanwise.min(), elementwise.min());
    EXPECT_EQ(spanwise.max(), elementwise.max());
    EXPECT_EQ(spanwise.bucket_count(), elementwise.bucket_count());
    EXPECT_EQ(every_rank(spanwise), every_rank(elementwise));
  }
}

TEST(QuantileSketch, ApplyRecordEqualsFurtherObservations) {
  const std::vector<double> span = mixed_span(59);
  constexpr std::uint64_t k = 5;
  for (const QuantileSketchSpec& spec : kSpanSpecs) {
    SCOPED_TRACE(spec.relative_error);
    SCOPED_TRACE(spec.min_trackable);
    // On the recording sketch (every key already allocated) and on one
    // holding a single mid-range value, which the replay must grow below
    // and above.
    QuantileSketch recorder(spec);
    SpanRecord rec;
    recorder.observe_span_record(span.data(), span.size(), rec);
    QuantileSketch seeded(spec);
    seeded.observe(0.5);

    QuantileSketch observed_after_record(spec);
    for (const double x : span) observed_after_record.observe(quantized(x));
    QuantileSketch observed_after_seed(spec);
    observed_after_seed.observe(0.5);
    for (std::uint64_t r = 0; r < k; ++r) {
      for (const double x : span) {
        observed_after_record.observe(quantized(x));
        observed_after_seed.observe(quantized(x));
      }
    }
    recorder.apply_record(rec, k);
    seeded.apply_record(rec, k);

    for (const auto& [replayed, observed] :
         {std::pair{&recorder, &observed_after_record},
          std::pair{&seeded, &observed_after_seed}}) {
      EXPECT_EQ(replayed->count(), observed->count());
      EXPECT_EQ(replayed->min(), observed->min());
      EXPECT_EQ(replayed->max(), observed->max());
      // k * quant_sum rounds differently from k repeated additions.
      EXPECT_NEAR(replayed->sum(), observed->sum(), 1e-12 * observed->sum());
      EXPECT_EQ(replayed->bucket_count(), observed->bucket_count());
      EXPECT_EQ(every_rank(*replayed), every_rank(*observed));
    }
  }
}

TEST(QuantileSketch, QuantizedBitsStableAcrossUlpJiggle) {
  // Durations from subtracting large sim times jiggle at the ULP level;
  // the fingerprint comparison must not see that.
  const double a = (1000.25 + 0.125) - 1000.25;
  const double b = 0.125;
  EXPECT_EQ(QuantileSketch::quantized_bits(a),
            QuantileSketch::quantized_bits(b));
  EXPECT_EQ(QuantileSketch::quantized_bits(-1.0),
            QuantileSketch::quantized_bits(0.0));
  EXPECT_NE(QuantileSketch::quantized_bits(0.125),
            QuantileSketch::quantized_bits(0.25));
}

/// The quantized value with 14-bit mantissa `m` in binade 2^e.
double quantized_value(int e, std::uint64_t m) {
  const auto biased = static_cast<std::uint64_t>(e + 1023);
  return std::bit_cast<double>((biased << 52) |
                               (m << QuantileSketch::kQuantBits));
}

constexpr std::uint64_t kMantissas = std::uint64_t{1}
                                     << (52 - QuantileSketch::kQuantBits);

TEST(QuantileSketchKeys, TableMatchesLogFormulaForEveryQuantizedValue) {
  const QuantileSketch s;
  std::size_t off_table = 0;
  std::size_t mismatches = 0;
  for (int e = QuantileSketch::kKeyTableMinExp;
       e <= QuantileSketch::kKeyTableMaxExp; ++e) {
    for (std::uint64_t m = 0; m < kMantissas; ++m) {
      const double x = quantized_value(e, m);
      if (!s.key_from_table(x)) ++off_table;
      if (s.bucket_key(x) != s.bucket_key_by_log(x)) ++mismatches;
    }
  }
  EXPECT_EQ(off_table, 0u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(QuantileSketchKeys, FallbackOutsideTheTableMatchesLogFormula) {
  const QuantileSketch s;
  std::size_t on_table = 0;
  std::size_t mismatches = 0;
  // The binades just outside the table.
  for (const int e : {QuantileSketch::kKeyTableMinExp - 1,
                      QuantileSketch::kKeyTableMaxExp + 1}) {
    for (std::uint64_t m = 0; m < kMantissas; ++m) {
      const double x = quantized_value(e, m);
      if (s.key_from_table(x)) ++on_table;
      if (s.bucket_key(x) != s.bucket_key_by_log(x)) ++mismatches;
    }
  }
  // Unquantized values inside the covered binades.
  for (const double x : {1e-3, 0.1, 0.3, 1.7, 100.1}) {
    if (s.key_from_table(x)) ++on_table;
    if (s.bucket_key(x) != s.bucket_key_by_log(x)) ++mismatches;
  }
  // A non-default spec never reads the table, and its keys differ.
  const QuantileSketch coarse(QuantileSketchSpec{0.05, 1e-6});
  std::size_t differs = 0;
  for (int e = QuantileSketch::kKeyTableMinExp;
       e <= QuantileSketch::kKeyTableMaxExp; ++e) {
    for (std::uint64_t m = 0; m < kMantissas; m += 97) {
      const double x = quantized_value(e, m);
      if (coarse.key_from_table(x)) ++on_table;
      if (coarse.bucket_key(x) != coarse.bucket_key_by_log(x)) ++mismatches;
      if (coarse.bucket_key(x) != s.bucket_key(x)) ++differs;
    }
  }
  EXPECT_EQ(on_table, 0u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(differs, 0u);
}

}  // namespace
}  // namespace capgpu::telemetry
