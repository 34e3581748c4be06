// Unit tests for StatSet and PhaseTimer.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics_sink.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace odcm::sim {
namespace {

/// Records every forwarded event for inspection.
struct RecordingSink : MetricsSink {
  void on_counter(std::string_view name, std::int64_t delta) override {
    counters.emplace_back(std::string(name), delta);
  }
  void on_duration(std::string_view name, Time dt) override {
    durations.emplace_back(std::string(name), dt);
  }
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, Time>> durations;
};

TEST(StatSet, CountersDefaultToZero) {
  StatSet stats;
  EXPECT_EQ(stats.counter("missing"), 0);
  EXPECT_EQ(stats.phase_time("missing"), 0u);
}

TEST(StatSet, AddAccumulates) {
  StatSet stats;
  stats.add("qp_created");
  stats.add("qp_created", 4);
  EXPECT_EQ(stats.counter("qp_created"), 5);
}

TEST(StatSet, NegativeDeltasAllowed) {
  StatSet stats;
  stats.add("balance", 10);
  stats.add("balance", -3);
  EXPECT_EQ(stats.counter("balance"), 7);
}

TEST(StatSet, MergeCombinesBoth) {
  StatSet a;
  StatSet b;
  a.add("x", 1);
  a.add_time("p", 100);
  b.add("x", 2);
  b.add("y", 3);
  b.add_time("p", 50);
  a.merge(b);
  EXPECT_EQ(a.counter("x"), 3);
  EXPECT_EQ(a.counter("y"), 3);
  EXPECT_EQ(a.phase_time("p"), 150u);
}

TEST(StatSet, ClearResets) {
  StatSet stats;
  stats.add("x");
  stats.add_time("p", 1);
  stats.clear();
  EXPECT_TRUE(stats.counters().empty());
  EXPECT_TRUE(stats.phases().empty());
}

TEST(StatSet, ForwardsToSink) {
  StatSet stats;
  RecordingSink sink;
  stats.set_sink(&sink);
  stats.add("qp_created", 2);
  stats.add_time("connect", 150);
  stats.set_sink(nullptr);
  stats.add("qp_created");  // not forwarded once detached
  ASSERT_EQ(sink.counters.size(), 1u);
  EXPECT_EQ(sink.counters[0], (std::pair<std::string, std::int64_t>{
                                  "qp_created", 2}));
  ASSERT_EQ(sink.durations.size(), 1u);
  EXPECT_EQ(sink.durations[0].second, 150u);
  // Local accounting is unaffected by the sink.
  EXPECT_EQ(stats.counter("qp_created"), 3);
}

TEST(PhaseTimer, MeasuresVirtualTimeAcrossSuspension) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    PhaseTimer timer(eng, &st, "connect");
    co_await eng.delay(250);
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("connect"), 250u);
}

TEST(PhaseTimer, StopIsIdempotent) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    PhaseTimer timer(eng, &st, "phase");
    co_await eng.delay(10);
    timer.stop();
    co_await eng.delay(90);
    timer.stop();  // no additional time recorded
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("phase"), 10u);
}

TEST(PhaseTimer, SequentialPhasesAccumulateSeparately) {
  Engine engine;
  StatSet stats;
  engine.spawn([](Engine& eng, StatSet& st) -> Task<> {
    {
      PhaseTimer timer(eng, &st, "a");
      co_await eng.delay(10);
    }
    {
      PhaseTimer timer(eng, &st, "b");
      co_await eng.delay(20);
    }
    {
      PhaseTimer timer(eng, &st, "a");
      co_await eng.delay(5);
    }
  }(engine, stats));
  engine.run();
  EXPECT_EQ(stats.phase_time("a"), 15u);
  EXPECT_EQ(stats.phase_time("b"), 20u);
}

TEST(StatSet, IsAMetricsSink) {
  StatSet stats;
  RecordingSink forwarded;
  stats.set_sink(&forwarded);
  MetricsSink& sink = stats;
  sink.on_counter("qp_created", 3);
  sink.on_duration("connect", 40);
  EXPECT_EQ(stats.counter("qp_created"), 3);
  EXPECT_EQ(stats.phase_time("connect"), 40u);
  EXPECT_EQ(forwarded.counters.size(), 1u);
  EXPECT_EQ(forwarded.durations.size(), 1u);
}

TEST(PhaseTimer, ReportsToAnySinkAndNullIsANoOp) {
  Engine engine;
  RecordingSink sink;
  engine.spawn([](Engine& eng, RecordingSink& s) -> Task<> {
    {
      PhaseTimer timer(eng, &s, "pmi/put");
      co_await eng.delay(30);
    }
    PhaseTimer off(eng, nullptr, "ignored");
    co_await eng.delay(5);
  }(engine, sink));
  engine.run();
  ASSERT_EQ(sink.durations.size(), 1u);
  EXPECT_EQ(sink.durations[0],
            (std::pair<std::string, Time>{"pmi/put", 30}));
  EXPECT_TRUE(sink.counters.empty());
}

}  // namespace
}  // namespace odcm::sim
