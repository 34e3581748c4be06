// Golden dispatch order of the engine: a fixed mix of delay resumes, gate
// wakeups, timed gate waits, spawns and closures at colliding timestamps,
// under insertion order, seeded shuffle, and shuffle with latency jitter.
// The expected sequences were captured from the engine that stored every
// event as a std::function, so any change to how events are keyed, how
// sequence numbers are consumed, or how jitter is drawn shows up here.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::sim {
namespace {

using Dispatch = std::vector<std::pair<Time, std::string>>;

Task<> sleeper(Engine& engine, Dispatch& log, std::string name, Time step,
               int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await engine.delay(step);
    log.emplace_back(engine.now(), name + "." + std::to_string(i));
  }
}

Task<> gate_waiter(Engine& engine, Gate& gate, Dispatch& log,
                   std::string name) {
  co_await gate.wait();
  log.emplace_back(engine.now(), name);
}

Task<> timed_waiter(Engine& engine, Gate& gate, Dispatch& log,
                    std::string name, Time timeout) {
  const bool opened = co_await gate.wait_for(timeout);
  log.emplace_back(engine.now(), name + (opened ? ":open" : ":timeout"));
}

Dispatch run_mix(const SchedulePolicy& policy) {
  Engine engine;
  engine.set_schedule_policy(policy);
  Dispatch log;
  Gate gate(engine);
  Gate never(engine);

  engine.spawn(sleeper(engine, log, "a", 10, 3));
  engine.spawn(sleeper(engine, log, "b", 10, 3));
  engine.spawn(sleeper(engine, log, "c", 20, 2));
  engine.spawn(gate_waiter(engine, gate, log, "g1"));
  engine.spawn(timed_waiter(engine, gate, log, "t1", 40));
  engine.spawn(timed_waiter(engine, never, log, "t2", 20));
  engine.spawn(gate_waiter(engine, gate, log, "g2"));
  for (int i = 0; i < 3; ++i) {
    engine.schedule_at(10, [&log, &engine, i] {
      log.emplace_back(engine.now(), "c10." + std::to_string(i));
    });
  }
  engine.schedule_at(20, [&log, &engine, &gate] {
    log.emplace_back(engine.now(), "open");
    gate.open();
  });
  engine.schedule_at(20, [&log, &engine] {
    log.emplace_back(engine.now(), "spawn");
    engine.spawn(sleeper(engine, log, "d", 10, 2));
  });
  engine.schedule_at(30, [&log, &engine] {
    log.emplace_back(engine.now(), "c30");
    engine.schedule_after(0, [&log, &engine] {
      log.emplace_back(engine.now(), "c30.next");
    });
  });
  engine.run();
  // The event count pins the events that log nothing: timeout closures
  // that find their waiter already woken, and the wakeup hops themselves.
  log.emplace_back(engine.events_executed(), "events_executed");
  return log;
}

std::string render(const Dispatch& log) {
  std::string out;
  for (const auto& [time, label] : log) {
    out += "{" + std::to_string(time) + ", \"" + label + "\"},\n";
  }
  return out;
}

TEST(Engine, DispatchOrderUnchanged) {
  const Dispatch insertion = {
      {10, "c10.0"},
      {10, "c10.1"},
      {10, "c10.2"},
      {10, "a.0"},
      {10, "b.0"},
      {20, "open"},
      {20, "spawn"},
      {20, "c.0"},
      {20, "t2:timeout"},
      {20, "a.1"},
      {20, "b.1"},
      {20, "g1"},
      {20, "t1:open"},
      {20, "g2"},
      {30, "c30"},
      {30, "a.2"},
      {30, "b.2"},
      {30, "d.0"},
      {30, "c30.next"},
      {40, "c.1"},
      {40, "d.1"},
      {30, "events_executed"},
  };
  const Dispatch shuffled = {
      {10, "c10.1"},
      {10, "c10.0"},
      {10, "c10.2"},
      {10, "a.0"},
      {10, "b.0"},
      {20, "open"},
      {20, "g2"},
      {20, "c.0"},
      {20, "g1"},
      {20, "a.1"},
      {20, "t1:open"},
      {20, "b.1"},
      {20, "t2:timeout"},
      {20, "spawn"},
      {30, "d.0"},
      {30, "a.2"},
      {30, "c30"},
      {30, "c30.next"},
      {30, "b.2"},
      {40, "c.1"},
      {40, "d.1"},
      {30, "events_executed"},
  };
  const Dispatch jittered = {
      {66, "spawn"},
      {85, "c10.2"},
      {121, "d.0"},
      {142, "t1:timeout"},
      {146, "c10.1"},
      {147, "open"},
      {147, "g2"},
      {147, "g1"},
      {151, "t2:timeout"},
      {198, "d.1"},
      {205, "c10.0"},
      {218, "c.0"},
      {242, "b.0"},
      {248, "c30"},
      {248, "c30.next"},
      {275, "a.0"},
      {343, "b.1"},
      {356, "a.1"},
      {382, "a.2"},
      {457, "c.1"},
      {464, "b.2"},
      {29, "events_executed"},
  };

  SchedulePolicy policy;
  EXPECT_EQ(run_mix(policy), insertion) << render(run_mix(policy));

  policy.tie_break = SchedulePolicy::TieBreak::kSeededShuffle;
  policy.seed = 7;
  EXPECT_EQ(run_mix(policy), shuffled) << render(run_mix(policy));

  policy.jitter_max = 300;
  EXPECT_EQ(run_mix(policy), jittered) << render(run_mix(policy));
}

TEST(Engine, PastTimeScheduleThrowsBeforeClaimingASlot) {
  Engine engine;
  engine.set_schedule_policy(
      {SchedulePolicy::TieBreak::kSeededShuffle, 7, 0});
  engine.schedule_at(100, [] {});
  EXPECT_EQ(engine.closures_pending(), 1u);
  engine.run();
  EXPECT_EQ(engine.closures_pending(), 0u);
  EXPECT_THROW(engine.schedule_at(50, [] {}), std::logic_error);
  EXPECT_EQ(engine.closures_pending(), 0u);
  EXPECT_THROW(engine.schedule_resume(50, std::noop_coroutine()),
               std::logic_error);

  // Nor did the throws consume a sequence number: the next same-time pair
  // is permuted exactly as in an engine that never saw them.
  auto order_after = [](Engine& eng) {
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      eng.schedule_at(eng.now(), [&order, i] { order.push_back(i); });
    }
    eng.run();
    return order;
  };
  Engine fresh;
  fresh.set_schedule_policy(engine.schedule_policy());
  fresh.schedule_at(100, [] {});
  fresh.run();
  EXPECT_EQ(order_after(engine), order_after(fresh));
}

}  // namespace
}  // namespace odcm::sim
