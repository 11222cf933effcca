// Measurement utilities: running statistics, log-scale histograms, and
// labelled (x, y) series used by the benchmark harness to print
// paper-style tables.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ibwan::sim {

/// Numerically stable running mean/variance (Welford) with min/max.
class OnlineStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two binned histogram for sizes and latencies. Bin i counts
/// samples in (2^(i-1), 2^i]; samples of 0 or 1 land in bin 0.
class LogHistogram {
 public:
  void add(std::uint64_t v) {
    const int bin = v <= 1 ? 0 : 64 - std::countl_zero(v - 1);
    if (bin >= static_cast<int>(bins_.size())) bins_.resize(bin + 1, 0);
    ++bins_[bin];
    ++total_;
  }

  std::uint64_t total() const { return total_; }

  /// Count of samples in bins below bin_upper, i.e. values <= 2^(bin_upper-1).
  std::uint64_t count_below(int bin_upper) const {
    std::uint64_t c = 0;
    for (int i = 0; i < bin_upper && i < static_cast<int>(bins_.size()); ++i)
      c += bins_[i];
    return c;
  }

  const std::vector<std::uint64_t>& bins() const { return bins_; }

  /// Approximate p-quantile (returns the lower edge of the bin).
  std::uint64_t quantile(double p) const { return quantile(bins_, total_, p); }

  /// The quantile rule over raw bins holding `total` samples, shared
  /// with merged metrics snapshots. The p≈1.0 fall-through lands in the
  /// last occupied bin and must report the same lower edge the in-loop
  /// path would — not the upper edge.
  static std::uint64_t quantile(const std::vector<std::uint64_t>& bins,
                                std::uint64_t total, double p) {
    if (total == 0) return 0;
    // Clamp before the cast: converting a negative or NaN double to an
    // unsigned integer is undefined behaviour. !(p > 0) catches NaN too.
    if (!(p > 0.0)) p = 0.0;
    if (p > 1.0) p = 1.0;
    const auto target =
        static_cast<std::uint64_t>(p * static_cast<double>(total));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      seen += bins[i];
      if (seen > target) return i == 0 ? 0 : (1ULL << (i - 1));
    }
    return bins.size() < 2 ? 0 : (1ULL << (bins.size() - 2));
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// A labelled series of (x, y) points; benches collect one Series per
/// curve and print them side by side.
struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;

  void add(double x, double y) { points.emplace_back(x, y); }

  /// y value at x, or NaN if absent. x values are often computed
  /// (delay_us / 1000.0 and the like), so exact double equality would
  /// silently miss; match within a relative epsilon instead.
  double at(double x) const {
    for (const auto& [px, py] : points)
      if (nearly_equal(px, x)) return py;
    return std::numeric_limits<double>::quiet_NaN();
  }

  static bool nearly_equal(double a, double b) {
    if (a == b) return true;  // covers exact matches and both zero
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= scale * 1e-9;
  }
};

}  // namespace ibwan::sim
