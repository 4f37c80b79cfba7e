#include "telemetry/sketch.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace capgpu::telemetry {
namespace {

double gamma_of(double relative_error) {
  return (1.0 + relative_error) / (1.0 - relative_error);
}

// Bucket i covers (gamma^(i-1), gamma^i]: ceil of the log-gamma index.
int log_key(double x, double inv_log_gamma) {
  return static_cast<int>(std::ceil(std::log(x) * inv_log_gamma - 1e-9));
}

constexpr double kTableRelativeError = QuantileSketchSpec{}.relative_error;
constexpr unsigned kMantissaBits = 52 - QuantileSketch::kQuantBits;
constexpr std::uint32_t kBinades =
    QuantileSketch::kKeyTableMaxExp - QuantileSketch::kKeyTableMinExp + 1;

/// Biased exponent of the table's first binade.
constexpr std::uint64_t kFirstBiasedExp = 1023 + QuantileSketch::kKeyTableMinExp;

/// Table row of a double's binade; the unsigned wrap sends zero,
/// negatives, NaN and every binade outside the table to >= kBinades.
std::uint64_t binade_row(std::uint64_t bits) {
  return (bits >> 52) - kFirstBiasedExp;
}

/// Bucket keys of every quantized value in the covered binades for the
/// default relative error: key = base[row] + offset[row][mantissa]. A
/// binade spans log(2)/log(gamma) ~ 35 keys, so offsets fit a byte and the
/// table is 512 KiB. Built on first use (a function-local static: once per
/// process, thread-safe) and read-only afterwards.
struct KeyTable {
  std::array<int, kBinades> base{};
  std::vector<std::uint8_t> offset;

  /// Whether the double with these bits is a quantized value in the table.
  static bool covers(std::uint64_t bits) {
    constexpr std::uint64_t kDropped =
        (std::uint64_t{1} << QuantileSketch::kQuantBits) - 1;
    return binade_row(bits) < kBinades && (bits & kDropped) == 0;
  }
  /// Key of a covered value.
  [[nodiscard]] int key(std::uint64_t bits) const {
    const std::uint64_t row = binade_row(bits);
    const std::uint64_t m = (bits >> QuantileSketch::kQuantBits) &
                            ((std::uint64_t{1} << kMantissaBits) - 1);
    return base[row] + offset[(row << kMantissaBits) | m];
  }

  KeyTable() : offset(std::size_t{kBinades} << kMantissaBits) {
    const double inv_log_gamma =
        1.0 / std::log(gamma_of(kTableRelativeError));
    for (std::uint32_t row = 0; row < kBinades; ++row) {
      const std::uint64_t exponent_bits = (row + kFirstBiasedExp) << 52;
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << kMantissaBits);
           ++m) {
        const double x = std::bit_cast<double>(
            exponent_bits | (m << QuantileSketch::kQuantBits));
        const int key = log_key(x, inv_log_gamma);
        if (m == 0) base[row] = key;
        const int off = key - base[row];
        CAPGPU_ASSERT(off >= 0 && off <= 255);
        offset[(std::size_t{row} << kMantissaBits) | m] =
            static_cast<std::uint8_t>(off);
      }
    }
  }
};

const KeyTable& key_table() {
  static const KeyTable table;
  return table;
}

/// Bucket key of a tracked quantized value. Span loops resolve `table`
/// once per span (null when the sketch's spec has no table), so the
/// per-element lookup skips the guard of the table's function-local static.
int span_key(const QuantileSketch& sketch, const KeyTable* table,
             std::uint64_t q) {
  return table != nullptr && KeyTable::covers(q)
             ? table->key(q)
             : sketch.bucket_key_by_log(std::bit_cast<double>(q));
}

}  // namespace

QuantileSketch::QuantileSketch(QuantileSketchSpec spec) : spec_(spec) {
  CAPGPU_REQUIRE(spec.relative_error > 0.0 && spec.relative_error < 1.0,
                 "sketch relative error must be in (0, 1)");
  CAPGPU_REQUIRE(spec.min_trackable > 0.0,
                 "sketch min_trackable must be positive");
  gamma_ = gamma_of(spec.relative_error);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  key_table_ = spec.relative_error == kTableRelativeError;
}

bool QuantileSketch::key_from_table(double x) const noexcept {
  return key_table_ && KeyTable::covers(std::bit_cast<std::uint64_t>(x));
}

int QuantileSketch::bucket_key(double x) const noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  if (key_table_ && KeyTable::covers(bits)) return key_table().key(bits);
  return bucket_key_by_log(x);
}

int QuantileSketch::bucket_key_by_log(double x) const noexcept {
  return log_key(x, inv_log_gamma_);
}

double QuantileSketch::bucket_value(int key) const noexcept {
  // Midpoint estimate 2*gamma^i/(gamma+1): relative error <= alpha for any
  // value inside the bucket.
  return 2.0 * std::pow(gamma_, static_cast<double>(key)) / (gamma_ + 1.0);
}

void QuantileSketch::grow_to(int key) noexcept {
  if (buckets_.empty()) {
    buckets_.assign(1, 0);
    offset_ = key;
    return;
  }
  if (key < offset_) {
    buckets_.insert(buckets_.begin(), static_cast<std::size_t>(offset_ - key),
                    0);
    offset_ = key;
  } else if (key >= offset_ + static_cast<int>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(key - offset_) + 1, 0);
  }
}

double QuantileSketch::observe_span_record(const double* v, std::size_t n,
                                           SpanRecord& rec) noexcept {
  rec.quant.resize(n);
  rec.n = n;
  // Everything the sketch accumulates on the span path is built from the
  // quantized values, so any span with the same quantized fingerprint
  // produces the identical contribution whether observed here or replayed
  // via apply_record.
  const KeyTable* table = key_table_ ? &key_table() : nullptr;
  const double min_trackable = spec_.min_trackable;
  BucketView view = bucket_view();
  std::uint64_t zeros = 0;
  double sum = 0.0;
  double qmin = std::numeric_limits<double>::infinity();
  double qmax = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = v[i] > 0.0 ? v[i] : 0.0;
    const std::uint64_t q = std::bit_cast<std::uint64_t>(x) & kQuantMask;
    rec.quant[i] = q;
    const double qx = std::bit_cast<double>(q);
    sum += qx;
    if (qx < min_trackable) {
      ++zeros;
      continue;
    }
    // min/max from the quantized value: under-reads the exact one by at
    // most 2^-14 relative, far inside the sketch's error bound.
    if (qx < qmin) qmin = qx;
    if (qx > qmax) qmax = qx;
    const int key = span_key(*this, table, q);
    if (key < view.lo || key > view.hi) {
      grow_to(key);
      view = bucket_view();
    }
    ++view.base[key - view.lo];
  }
  rec.zeros = zeros;
  rec.quant_sum = sum;
  rec.qmin = qmin;
  rec.qmax = qmax;
  add_span_totals(rec, 1);
  return sum;
}

void QuantileSketch::apply_record(const SpanRecord& rec,
                                  std::uint64_t k) noexcept {
  if (k == 0) return;
  add_span_totals(rec, k);
  const KeyTable* table = key_table_ ? &key_table() : nullptr;
  const double min_trackable = spec_.min_trackable;
  BucketView view = bucket_view();
  for (const std::uint64_t q : rec.quant) {
    if (std::bit_cast<double>(q) < min_trackable) continue;
    const int key = span_key(*this, table, q);
    if (key < view.lo || key > view.hi) {
      grow_to(key);  // only when the record came from another sketch
      view = bucket_view();
    }
    view.base[key - view.lo] += k;
  }
}

void QuantileSketch::add_span_totals(const SpanRecord& rec,
                                     std::uint64_t k) noexcept {
  count_ += k * rec.n;
  sum_ += static_cast<double>(k) * rec.quant_sum;
  zero_count_ += k * rec.zeros;
  if (rec.qmin < min_) min_ = rec.qmin;
  if (rec.qmax > max_) max_ = rec.qmax;
  if (rec.zeros != 0) {
    if (min_ > 0.0) min_ = 0.0;
    if (max_ < 0.0) max_ = 0.0;  // every observation so far was zero
  }
}

double QuantileSketch::quantile(double q) const {
  CAPGPU_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) return 0.0;
  // Rank of the q-quantile in the sorted sample (0-based, nearest-rank).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  if (rank < zero_count_) return 0.0;
  std::uint64_t cumulative = zero_count_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative > rank) {
      return bucket_value(offset_ + static_cast<int>(i));
    }
  }
  return max();  // float fall-through safety: the top bucket
}

void QuantileSketch::merge_from(const QuantileSketch& other) {
  CAPGPU_REQUIRE(spec_.relative_error == other.spec_.relative_error &&
                     spec_.min_trackable == other.spec_.min_trackable,
                 "cannot merge sketches with different specs");
  if (other.count_ == 0) return;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  if (!other.buckets_.empty()) {
    // One growth to the union range up front instead of a grow_to (and a
    // possible reallocation + shift) per occupied bucket.
    grow_to(other.offset_);
    grow_to(other.offset_ + static_cast<int>(other.buckets_.size()) - 1);
  }
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    if (other.buckets_[i] == 0) continue;
    const int key = other.offset_ + static_cast<int>(i);
    buckets_[static_cast<std::size_t>(key - offset_)] += other.buckets_[i];
  }
}

}  // namespace capgpu::telemetry
