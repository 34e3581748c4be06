// The engine's 4-ary event heap against a reference binary heap keyed the
// way the engine once stored events: (time, tie, sequence number). A few
// thousand coroutine resumes and closures at a handful of colliding
// timestamps run under insertion order, seeded shuffle, and shuffle with
// jitter; the engine must dispatch them in exactly the reference order.
// The reference also checks the property the engine relies on to store no
// sequence number: no two events of a run share a tie.
#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::sim {
namespace {

constexpr int kTasks = 64;
constexpr int kRounds = 150;
constexpr int kClosureCap = 10'000;
constexpr int kSeedClosures = 8;

std::uint64_t splitmix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The engine's documented key function: a SplitMix64 finalizer over
/// (seed, seq).
std::uint64_t mix_seeded(std::uint64_t seed, std::uint64_t seq) {
  return splitmix(seed + 0x9e3779b97f4a7c15ULL * (seq + 1));
}
constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc909ULL;

/// A small pseudo-random choice in [0, n) fixed by (a, b).
Time pick(std::uint64_t a, std::uint64_t b, std::uint64_t n) {
  return static_cast<Time>(splitmix(a * 1'000'003 + b) % n);
}

/// One dispatch: a task's step (`who` >= 0) or a closure (`who` < 0).
struct Step {
  int who;
  int step;
  Time at;
  friend bool operator==(const Step&, const Step&) = default;
};

/// The shared program. Task t's step s delays `pick(t, s, 4)` before step
/// s + 1; closure c schedules one or two more closures 0–3 ns later while
/// fewer than kClosureCap exist. Delays of 0 keep events at the current
/// time, which jitter never moves.
Time task_delay(int task, int step) { return pick(task, step, 4); }
int closure_children(int closure) {
  return 1 + static_cast<int>(pick(closure, 7, 2));
}
Time closure_delay(int closure, int child) { return pick(closure, child, 4); }

std::vector<Step> run_engine(const SchedulePolicy& policy) {
  Engine engine;
  engine.set_schedule_policy(policy);
  std::vector<Step> log;
  int closures = 0;
  for (int t = 0; t < kTasks; ++t) {
    engine.spawn([](Engine& eng, std::vector<Step>& out, int t) -> Task<> {
      out.push_back({t, 0, eng.now()});
      for (int s = 0; s < kRounds; ++s) {
        co_await eng.delay(task_delay(t, s));
        out.push_back({t, s + 1, eng.now()});
      }
    }(engine, log, t));
  }
  struct Closure {
    Engine& engine;
    std::vector<Step>& log;
    int& closures;
    int id;
    void operator()() const {
      log.push_back({-1 - id, 0, engine.now()});
      for (int j = 0; j < closure_children(id); ++j) {
        if (closures == kClosureCap) return;
        engine.schedule_at(engine.now() + closure_delay(id, j),
                           Closure{engine, log, closures, closures++});
      }
    }
  };
  for (int c = 0; c < kSeedClosures; ++c) {
    engine.schedule_at(static_cast<Time>(c % 4),
                       Closure{engine, log, closures, closures++});
  }
  engine.run();
  return log;
}

/// The same program on a std::priority_queue of (time, tie, seq) records.
std::vector<Step> run_reference(const SchedulePolicy& policy,
                                std::size_t& distinct_ties,
                                std::size_t& events) {
  struct Event {
    Time time;
    std::uint64_t tie;
    std::uint64_t seq;
    int who;
    int step;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::set<std::uint64_t> ties;
  Time now = 0;
  std::uint64_t next_seq = 0;
  auto schedule = [&](Time t, int who, int step) {
    const std::uint64_t seq = next_seq++;
    std::uint64_t tie = seq;
    if (policy.tie_break == SchedulePolicy::TieBreak::kSeededShuffle) {
      tie = mix_seeded(policy.seed, seq);
    }
    if (policy.jitter_max > 0 && t > now) {
      t += static_cast<Time>(mix_seeded(policy.seed ^ kJitterSalt, seq) %
                             (policy.jitter_max + 1));
    }
    ties.insert(tie);
    queue.push({t, tie, seq, who, step});
  };

  std::vector<Step> log;
  int closures = 0;
  for (int t = 0; t < kTasks; ++t) schedule(0, t, 0);
  for (int c = 0; c < kSeedClosures; ++c) {
    schedule(static_cast<Time>(c % 4), -1 - closures++, 0);
  }
  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    now = event.time;
    log.push_back({event.who, event.step, now});
    if (event.who >= 0) {
      if (event.step < kRounds) {
        schedule(now + task_delay(event.who, event.step), event.who,
                 event.step + 1);
      }
      continue;
    }
    const int id = -1 - event.who;
    for (int j = 0; j < closure_children(id); ++j) {
      if (closures == kClosureCap) break;
      schedule(now + closure_delay(id, j), -1 - closures++, 0);
    }
  }
  distinct_ties = ties.size();
  events = next_seq;
  return log;
}

TEST(Engine, HeapOrderMatchesReference) {
  using TieBreak = SchedulePolicy::TieBreak;
  const SchedulePolicy policies[] = {
      {TieBreak::kInsertion, 1, 0},
      {TieBreak::kSeededShuffle, 7, 0},
      {TieBreak::kSeededShuffle, 0x5eed, 3},
  };
  for (const SchedulePolicy& policy : policies) {
    std::size_t distinct_ties = 0;
    std::size_t events = 0;
    const std::vector<Step> reference =
        run_reference(policy, distinct_ties, events);
    // Heavy collisions: ~20k events over a few hundred timestamps.
    ASSERT_GT(events, 15'000u);
    EXPECT_EQ(reference.size(), events);
    EXPECT_LT(reference.back().at, events / 10);
    EXPECT_EQ(distinct_ties, events) << "tie collision";

    const std::vector<Step> dispatched = run_engine(policy);
    ASSERT_EQ(dispatched.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(dispatched[i], reference[i])
          << "event " << i << " of seed " << policy.seed << " jitter "
          << policy.jitter_max;
    }
  }
}

}  // namespace
}  // namespace odcm::sim
