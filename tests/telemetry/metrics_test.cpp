// Unit tests for Histogram / MetricsRegistry and sim::PhaseTimer on it.
//
// The histogram's percentile contract — exact nearest-rank while the sample
// set fits the cap — is checked against an independently computed reference
// over pseudo-random data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"
#include "telemetry/metrics.hpp"

namespace odcm::telemetry {
namespace {

/// Independent nearest-rank reference: smallest value with at least
/// ceil(p/100 * N) values at or below it.
std::uint64_t reference_percentile(std::vector<std::uint64_t> values,
                                   double p) {
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  return values[rank - 1];
}

TEST(Histogram, EmptyIsAllZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(Histogram, BucketMath) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(~0ULL), 64u);
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~0ULL);
  // Every value lands in the bucket whose range contains it.
  for (std::uint64_t v : {0ULL, 1ULL, 2ULL, 1023ULL, 1024ULL, 123456789ULL}) {
    std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(i - 1)) << v;
    }
  }
}

TEST(Histogram, SummaryStats) {
  Histogram h;
  for (std::uint64_t v : {10ULL, 20ULL, 30ULL, 40ULL}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_EQ(h.mean(), 25.0);
  EXPECT_EQ(h.percentile(0), 10u);
  EXPECT_EQ(h.percentile(50), 20u);
  EXPECT_EQ(h.percentile(75), 30u);
  EXPECT_EQ(h.percentile(100), 40u);
}

TEST(Histogram, PercentilesMatchExactQuantilesOnRandomData) {
  sim::Rng rng(0xfeedULL);
  Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Mixed magnitudes: exercise many buckets, including 0 and duplicates.
    std::uint64_t v = rng.chance(0.5) ? rng.next_below(100)
                                      : rng.next_below(10'000'000);
    values.push_back(v);
    h.observe(v);
  }
  ASSERT_TRUE(h.exact());
  for (double p : {0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.percentile(p), reference_percentile(values, p)) << "p=" << p;
  }
}

TEST(Histogram, InterleavedObserveAndQueryStaysExact) {
  Histogram h;
  std::vector<std::uint64_t> values;
  sim::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    std::uint64_t v = rng.next_below(1000);
    values.push_back(v);
    h.observe(v);
    if (i % 50 == 0) {
      EXPECT_EQ(h.percentile(50), reference_percentile(values, 50));
    }
  }
  EXPECT_EQ(h.percentile(99), reference_percentile(values, 99));
}

TEST(Histogram, DegradesToBucketBoundsPastSampleCap) {
  Histogram h;
  for (std::uint64_t i = 0; i < Histogram::kSampleCap + 100; ++i) {
    h.observe(1000);
  }
  EXPECT_FALSE(h.exact());
  // All mass sits in one bucket: the estimate is that bucket's upper bound
  // clamped to the observed max.
  EXPECT_EQ(h.percentile(50), 1000u);
  EXPECT_EQ(h.count(), Histogram::kSampleCap + 100);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.add("puts");
  reg.add("puts", 4);
  reg.set_gauge("qps", 10);
  reg.set_gauge("qps", 7);
  reg.observe("lat", 100);
  reg.observe("lat", 300);
  EXPECT_EQ(reg.counter("puts"), 5);
  EXPECT_EQ(reg.gauge("qps"), 7);
  ASSERT_NE(reg.histogram("lat"), nullptr);
  EXPECT_EQ(reg.histogram("lat")->count(), 2u);
  EXPECT_EQ(reg.counter("missing"), 0);
  EXPECT_EQ(reg.histogram("missing"), nullptr);
}

TEST(MetricsRegistry, JsonExportIsDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.add("b_counter", 2);
    reg.add("a_counter", 1);
    reg.observe("lat", 128);
    return reg.to_json().dump();
  };
  std::string once = build();
  EXPECT_EQ(once, build());
  // Map-backed storage: export order is sorted, independent of insertion.
  EXPECT_LT(once.find("a_counter"), once.find("b_counter"));
}

TEST(PhaseTimerSpan, RecordVirtualDurations) {
  // sim::PhaseTimer on the registry: one histogram sample per span.
  sim::Engine engine;
  MetricsRegistry reg;
  engine.spawn([](sim::Engine& eng, MetricsRegistry& r) -> sim::Task<> {
    {
      sim::PhaseTimer t(eng, &r, "phase");
      co_await eng.delay(125);
    }
    {
      sim::PhaseTimer s(eng, &r, "op");
      co_await eng.delay(75);
    }
    {
      sim::PhaseTimer s(eng, &r, "op");
      co_await eng.delay(25);
    }
  }(engine, reg));
  engine.run();
  ASSERT_NE(reg.histogram("phase"), nullptr);
  EXPECT_EQ(reg.histogram("phase")->sum(), 125u);
  EXPECT_EQ(reg.histogram("op")->count(), 2u);
  EXPECT_EQ(reg.histogram("op")->sum(), 100u);
  EXPECT_TRUE(reg.counters().empty());
}

}  // namespace
}  // namespace odcm::telemetry
