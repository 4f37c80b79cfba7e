// Mergeable streaming quantile sketch with a bounded relative error
// (DDSketch-style: Masson, Rim & Lee, VLDB'19).
//
// Values map to geometrically spaced buckets: bucket i covers
// (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so any quantile
// estimate is within relative error alpha of the true sample quantile, at
// O(log(max/min)) memory and O(1) per observation — no samples stored.
//
// Sketches merge by adding bucket counts, which is associative and
// commutative over integer counts; merging per-scenario sketches in
// scenario order therefore reproduces the sequential run's state exactly
// (runner::ScenarioRunner determinism contract). Benches use sketches for
// per-stage request-latency quantiles (p50/p95/p99/p99.9) where a
// log-linear histogram's fixed decade layout would be too coarse at the
// tail.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace capgpu::telemetry {

/// Sketch accuracy configuration.
struct QuantileSketchSpec {
  /// Relative error bound alpha: quantile(q) is within a factor
  /// [1-alpha, 1+alpha] of the true sample quantile.
  double relative_error{0.01};
  /// Observations below this magnitude collapse into the zero bucket and
  /// report as 0.0 (latencies below a microsecond are noise here).
  double min_trackable{1e-6};
};

/// Replayable summary of one observed span: the quantized values (the
/// span's fingerprint) plus the count/sum/extrema the span produced.
/// Produced by QuantileSketch::observe_span_record; a caller that sees the
/// same quantized values again can re-apply the span via apply_record
/// instead of re-observing every element — the workload pipeline uses this
/// to defer steady-state attribution to one replay per flush. Bucket keys
/// are re-derived from the quantized values on replay, so sketch bucket
/// growth between record and replay is harmless.
struct SpanRecord {
  std::vector<std::uint64_t> quant;
  std::uint64_t n{0};
  std::uint64_t zeros{0};
  /// Sum of the quantized clamped values (what observe_span returns).
  double quant_sum{0.0};
  /// Min/max over the span's non-zero quantized values (+/-inf when none).
  double qmin{0.0};
  double qmax{0.0};
};

/// The sketch. Tracks non-negative values (negatives clamp into the zero
/// bucket). Thread-compatible like the rest of the telemetry layer.
class QuantileSketch {
 public:
  explicit QuantileSketch(QuantileSketchSpec spec = {});

  void observe(double x) noexcept { observe_many(x, 1); }
  /// Bulk observation: `n` samples of the same value, one bucket update.
  /// The pipeline uses this for per-batch stages where every image in the
  /// batch shares one latency (GPU execution).
  void observe_many(double x, std::uint64_t n) noexcept {
    if (n == 0 || std::isnan(x)) return;
    if (!(x > 0.0)) x = 0.0;
    count_ += n;
    sum_ += x * static_cast<double>(n);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    if (x < spec_.min_trackable) {
      zero_count_ += n;
      return;
    }
    // Quantize to 14 mantissa bits (2^-14 ~ 6e-5 relative, well inside any
    // sensible alpha): every double sharing the quantized bits lands in one
    // bucket, which keeps the key a table lookup.
    const int key = bucket_key(
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) & kQuantMask));
    grow_to(key);
    buckets_[static_cast<std::size_t>(key - offset_)] += n;
  }

  /// Bulk observation of `n` contiguous values. Values must be finite;
  /// negatives clamp to the zero bucket. Returns the sum of the quantized
  /// clamped values (within 2^-14 relative of the exact sum, far inside the
  /// sketch's error bound) so callers keeping a running total do not
  /// re-traverse the span.
  double observe_span(const double* v, std::size_t n) noexcept {
    return observe_span_record(v, n, span_scratch_);
  }

  /// observe_span that additionally fills `rec` with the span's fingerprint
  /// and totals, in the same single pass over the span. A caller whose next
  /// span's quantized values (compare via quantized_bits) equal rec.quant
  /// can skip re-observation and call apply_record(rec, 1) instead.
  double observe_span_record(const double* v, std::size_t n,
                             SpanRecord& rec) noexcept;

  /// Re-applies a span record `k` more times (k * rec.n observations), as
  /// if the recorded span had been observed k additional times: O(rec.n),
  /// independent of k. Valid on any sketch with the same spec as the
  /// recording one.
  void apply_record(const SpanRecord& rec, std::uint64_t k) noexcept;

  /// Quantized bit pattern of a clamped span value — the unit of span
  /// fingerprint comparison against SpanRecord::quant.
  [[nodiscard]] static std::uint64_t quantized_bits(double x) noexcept {
    const double c = x > 0.0 ? x : 0.0;
    return std::bit_cast<std::uint64_t>(c) & kQuantMask;
  }

  /// Estimate of the q-quantile (q in [0, 1]), within the configured
  /// relative error of the true sample quantile. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Smallest / largest observed value; 0 when empty.
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] const QuantileSketchSpec& spec() const { return spec_; }
  /// Buckets currently allocated (memory diagnostic).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// Adds another sketch's observations; both must share one spec.
  void merge_from(const QuantileSketch& other);

  /// Mantissa bits dropped by the quantization (keeps the top 14).
  static constexpr unsigned kQuantBits = 38;
  /// Binades (binary exponents) the bucket-key table covers: 2^-20 holds
  /// the default min_trackable, 2^11 s is past any simulated latency.
  static constexpr int kKeyTableMinExp = -20;
  static constexpr int kKeyTableMaxExp = 11;

  /// Bucket of a tracked value x (x >= min_trackable):
  /// ceil(log(x) / log(gamma) - 1e-9). For the default relative error and
  /// a quantized x in the covered binades this is one lookup in an exact
  /// per-binade table, filled once per process from the same formula;
  /// anything else evaluates the formula.
  [[nodiscard]] int bucket_key(double x) const noexcept;
  /// The formula bucket_key must reproduce (always evaluates log()).
  [[nodiscard]] int bucket_key_by_log(double x) const noexcept;
  /// Whether bucket_key(x) reads the table.
  [[nodiscard]] bool key_from_table(double x) const noexcept;

 private:
  static constexpr std::uint64_t kQuantMask =
      ~((std::uint64_t{1} << kQuantBits) - 1);

  [[nodiscard]] double bucket_value(int key) const noexcept;
  void grow_to(int key) noexcept;
  /// Count, sum, zero count and extrema of `k` replays of a span (every
  /// span statistic except the per-key bucket counts).
  void add_span_totals(const SpanRecord& rec, std::uint64_t k) noexcept;

  /// The dense bucket array and its key range [lo, hi], cached in locals by
  /// the span loops; a key outside it grows the array and re-reads the view.
  struct BucketView {
    std::uint64_t* base;
    int lo;
    int hi;
  };
  [[nodiscard]] BucketView bucket_view() noexcept {
    return {buckets_.data(), offset_,
            offset_ + static_cast<int>(buckets_.size()) - 1};
  }

  QuantileSketchSpec spec_;
  double gamma_{0.0};
  double inv_log_gamma_{0.0};
  /// The spec's relative error is the one the key table was built for.
  bool key_table_{false};
  /// Dense bucket counts; buckets_[i] holds key = offset_ + i.
  std::vector<std::uint64_t> buckets_;
  int offset_{0};
  /// Reused record for plain observe_span calls.
  SpanRecord span_scratch_;
  std::uint64_t zero_count_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  /// +/-inf identity elements keep every update path a plain compare; the
  /// accessors report 0 while the sketch is empty.
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// The quantiles every summary export reports, highest-resolution tail
/// last. Shared by the Prometheus exporter and the SLO report writer.
inline constexpr double kSummaryQuantiles[] = {0.5, 0.95, 0.99, 0.999};
inline constexpr std::size_t kSummaryQuantileCount = 4;

}  // namespace capgpu::telemetry
