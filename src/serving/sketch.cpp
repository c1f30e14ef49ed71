#include "serving/sketch.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/binary_io.hpp"
#include "util/hash.hpp"

namespace fcad::serving {
namespace {

constexpr std::uint32_t kSketchMagic = 0x46534b31;  // "FSK1"

}  // namespace

const char* to_string(LatencyMode mode) {
  switch (mode) {
    case LatencyMode::kExact: return "exact";
    case LatencyMode::kSketch: return "sketch";
  }
  return "?";
}

StatusOr<LatencyMode> latency_mode_by_name(const std::string& name) {
  std::string lower;
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "exact") return LatencyMode::kExact;
  if (lower == "sketch") return LatencyMode::kSketch;
  return Status::not_found("unknown latency mode '" + name + "'");
}

std::uint64_t sketch_seed_from_fingerprint(const std::string& fingerprint) {
  util::Hash128 h;
  h.absorb_string("fcad-sketch-seed");
  h.absorb_string(fingerprint);
  return h.lo ^ h.hi;
}

QuantileSketch::QuantileSketch(std::uint64_t seed, double alpha)
    : alpha_(alpha),
      gamma_((1.0 + alpha) / (1.0 - alpha)),
      inv_log_gamma_(1.0 / std::log((1.0 + alpha) / (1.0 - alpha))),
      seed_(seed),
      min_(std::numeric_limits<double>::infinity()) {
  FCAD_CHECK_MSG(alpha > 0 && alpha < 1, "sketch: alpha out of (0, 1)");
}

std::int32_t QuantileSketch::index_of(double v) const {
  return static_cast<std::int32_t>(std::ceil(std::log(v) * inv_log_gamma_));
}

double QuantileSketch::representative(std::int32_t index) const {
  // Harmonic midpoint of the bucket (gamma^{i-1}, gamma^i]: every value in
  // the bucket is within relative error alpha of it.
  return 2.0 * std::pow(gamma_, static_cast<double>(index)) / (gamma_ + 1.0);
}

void QuantileSketch::add_bucket(std::int32_t index, std::int64_t n) {
  if (counts_.empty()) {
    lo_ = index;
    counts_.push_back(n);
    return;
  }
  const std::int32_t hi = lo_ + static_cast<std::int32_t>(counts_.size()) - 1;
  if (index > hi) {
    counts_.resize(static_cast<std::size_t>(counts_.size()) +
                       static_cast<std::size_t>(index - hi),
                   0);
    counts_[static_cast<std::size_t>(index - lo_)] += n;
    // A raised ceiling may push the span past the cap; fold everything
    // below the new floor into it. The floor position depends only on the
    // largest index ever seen, which keeps the state a pure function of
    // the value multiset.
    const std::int32_t floor = index - kMaxBuckets + 1;
    if (lo_ < floor) {
      std::int64_t folded = 0;
      const auto cut = static_cast<std::size_t>(floor - lo_);
      for (std::size_t i = 0; i < cut; ++i) folded += counts_[i];
      counts_.erase(counts_.begin(),
                    counts_.begin() + static_cast<std::ptrdiff_t>(cut));
      counts_.front() += folded;
      lo_ = floor;
      ++compactions_;
    }
    return;
  }
  if (index < lo_) {
    const std::int32_t floor = hi - kMaxBuckets + 1;
    const std::int32_t target = std::max(index, floor);
    if (target < lo_) {
      counts_.insert(counts_.begin(),
                     static_cast<std::size_t>(lo_ - target), 0);
      lo_ = target;
    }
    counts_[static_cast<std::size_t>(target - lo_)] += n;
    if (index < floor) ++compactions_;  // mass folded into the floor
    return;
  }
  counts_[static_cast<std::size_t>(index - lo_)] += n;
}

void QuantileSketch::add(double v) {
  FCAD_CHECK_MSG(std::isfinite(v) && v >= 0 && v <= kMaxSample,
                 "sketch: sample must be finite and in [0, kMaxSample]");
  ++count_;
  // Fixed-point accumulation (2^-24 us units): integer addition is
  // associative, so the serialized sum is identical for any add/merge order.
  sum_units_ += static_cast<__int128>(std::llround(std::ldexp(v, 24)));
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  if (v == 0) {
    ++zero_count_;
    return;
  }
  add_bucket(index_of(v), 1);
}

double QuantileSketch::sum() const {
  return std::ldexp(static_cast<double>(sum_units_), -24);
}

Status QuantileSketch::merge(const QuantileSketch& other) {
  if (seed_ != other.seed_) {
    return Status::invalid_argument(
        "sketch: cannot merge sketches with different seeds (they belong "
        "to different replays)");
  }
  if (alpha_ != other.alpha_) {
    return Status::invalid_argument(
        "sketch: cannot merge sketches with different alpha");
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_units_ += other.sum_units_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  compactions_ += other.compactions_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] == 0) continue;
    add_bucket(other.lo_ + static_cast<std::int32_t>(i), other.counts_[i]);
  }
  return Status::ok();
}

double QuantileSketch::quantile(double pct) const {
  FCAD_CHECK_MSG(pct > 0 && pct <= 100, "sketch: pct out of (0, 100]");
  if (count_ == 0) return 0;
  const auto k = std::max<std::int64_t>(
      static_cast<std::int64_t>(
          std::ceil(pct / 100.0 * static_cast<double>(count_))),
      1);
  if (k >= count_) return max_;  // the top rank is tracked exactly
  std::int64_t cum = zero_count_;
  if (k <= cum) return 0;  // exact-zero prefix (queue waits hit this)
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= k) {
      const double v = representative(lo_ + static_cast<std::int32_t>(i));
      return std::min(std::max(v, min_), max_);
    }
  }
  return max_;  // unreachable when the invariants hold
}

void QuantileSketch::write_binary(std::ostream& os) const {
  using util::put_raw;
  put_raw(os, kSketchMagic);
  put_raw(os, seed_);
  put_raw(os, alpha_);
  put_raw(os, count_);
  put_raw(os, zero_count_);
  const auto sum_bits = static_cast<unsigned __int128>(sum_units_);
  put_raw(os, static_cast<std::uint64_t>(sum_bits));
  put_raw(os, static_cast<std::uint64_t>(sum_bits >> 64));
  put_raw(os, min_);
  put_raw(os, max_);
  put_raw(os, compactions_);
  put_raw(os, static_cast<std::uint32_t>(lo_));
  put_raw(os, static_cast<std::uint32_t>(counts_.size()));
  for (std::int64_t c : counts_) put_raw(os, c);
}

bool QuantileSketch::read_binary(std::istream& in, QuantileSketch& out) {
  using util::get_raw;
  std::uint32_t magic = 0;
  if (!get_raw(in, magic) || magic != kSketchMagic) return false;
  std::uint64_t seed = 0;
  double alpha = 0;
  if (!get_raw(in, seed) || !get_raw(in, alpha)) return false;
  if (!(alpha > 0 && alpha < 1)) return false;
  QuantileSketch sketch(seed, alpha);
  std::uint32_t lo = 0;
  std::uint32_t n = 0;
  std::uint64_t sum_lo = 0;
  std::uint64_t sum_hi = 0;
  if (!get_raw(in, sketch.count_) || !get_raw(in, sketch.zero_count_) ||
      !get_raw(in, sum_lo) || !get_raw(in, sum_hi) ||
      !get_raw(in, sketch.min_) || !get_raw(in, sketch.max_) ||
      !get_raw(in, sketch.compactions_) || !get_raw(in, lo) ||
      !get_raw(in, n)) {
    return false;
  }
  sketch.sum_units_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(sum_hi) << 64) | sum_lo);
  if (n > static_cast<std::uint32_t>(kMaxBuckets)) return false;
  sketch.lo_ = static_cast<std::int32_t>(lo);
  sketch.counts_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!get_raw(in, sketch.counts_[i])) return false;
  }
  out = std::move(sketch);
  return true;
}

std::string QuantileSketch::to_bytes() const {
  std::ostringstream os;
  write_binary(os);
  return os.str();
}

}  // namespace fcad::serving
