#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace odcm::telemetry {

// ---- Histogram ----

std::size_t Histogram::bucket_index(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index == 0) return 0;
  if (index >= 64) return ~0ULL;
  return (1ULL << index) - 1;
}

void Histogram::observe(std::uint64_t value) {
  ++buckets_[bucket_index(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (samples_.size() < kSampleCap) {
    samples_.push_back(value);
    sorted_ = false;
  }
}

std::uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest value with at least ceil(p/100 * N) values
  // at or below it.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (exact()) {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    return samples_[static_cast<std::size_t>(rank - 1)];
  }
  // Overflowed the sample cap: walk the buckets and report the containing
  // bucket's upper bound (clamped to the observed max).
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) return std::min(bucket_upper(i), max_);
  }
  return max_;
}

JsonValue Histogram::to_json() const {
  JsonValue summary = JsonValue::object();
  summary.set("count", count_);
  summary.set("sum", sum_);
  summary.set("min", min());
  summary.set("max", max_);
  summary.set("mean", mean());
  summary.set("p50", percentile(50));
  summary.set("p95", percentile(95));
  summary.set("p99", percentile(99));
  summary.set("exact", exact());
  return summary;
}

// ---- MetricsRegistry ----

void MetricsRegistry::add(std::string_view name, std::int64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, std::int64_t value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, std::uint64_t value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  it->second.observe(value);
}

std::int64_t MetricsRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

JsonValue MetricsRegistry::to_json() const {
  JsonValue root = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : counters_) counters.set(name, value);
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : gauges_) gauges.set(name, value);
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : histograms_) {
    histograms.set(name, hist.to_json());
  }
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root;
}

}  // namespace odcm::telemetry
