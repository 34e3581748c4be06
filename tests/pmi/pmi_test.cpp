// Tests for the PMI key-value store, fence semantics and the non-blocking
// PMIX extensions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/engine.hpp"

namespace odcm::pmi {
namespace {

struct Env {
  explicit Env(std::uint32_t ranks, std::uint32_t ppn = 2) {
    manager = std::make_unique<JobManager>(engine, ranks, ppn);
  }

  sim::Engine engine;
  std::unique_ptr<JobManager> manager;
};

TEST(JobManager, NodeMapping) {
  Env env(8, 2);
  EXPECT_EQ(env.manager->nodes(), 4u);
  EXPECT_EQ(env.manager->node_of(0), 0u);
  EXPECT_EQ(env.manager->node_of(1), 0u);
  EXPECT_EQ(env.manager->node_of(2), 1u);
  EXPECT_EQ(env.manager->node_of(7), 3u);
  EXPECT_THROW((void)env.manager->node_of(8), std::out_of_range);
  EXPECT_THROW((void)env.manager->client(8), std::out_of_range);
}

TEST(JobManager, RejectsBadConfig) {
  sim::Engine engine;
  EXPECT_THROW(JobManager(engine, 0, 1), std::invalid_argument);
}

TEST(Kvs, GetBeforeFenceSeesNothing) {
  Env env(2);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(0).put("k", "v");
    auto value = co_await e.manager->client(1).get("k");
    EXPECT_FALSE(value.has_value());
  }(env));
  env.engine.run();
}

TEST(Kvs, PutFenceGetRoundTrip) {
  Env env(4);
  for (RankId rank = 0; rank < 4; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      co_await client.put("rank-" + std::to_string(r),
                          "value-" + std::to_string(r));
      co_await client.fence();
      // Every rank reads every other rank's entry.
      for (RankId peer = 0; peer < 4; ++peer) {
        auto value = co_await client.get("rank-" + std::to_string(peer));
        EXPECT_EQ(value.value_or("<missing>"),
                  "value-" + std::to_string(peer));
      }
    }(env, rank));
  }
  env.engine.run();
  EXPECT_EQ(env.manager->fences_completed(), 1u);
}

TEST(Kvs, FenceIsABarrier) {
  Env env(2);
  sim::Time rank0_done = 0;
  env.engine.spawn([](Env& e, sim::Time& done) -> sim::Task<> {
    co_await e.manager->client(0).fence();
    done = e.engine.now();
  }(env, rank0_done));
  // Rank 1 arrives only at t = 1 ms.
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.engine.delay(1 * sim::msec);
    co_await e.manager->client(1).fence();
  }(env));
  env.engine.run();
  EXPECT_GE(rank0_done, 1 * sim::msec);
}

TEST(Kvs, SecondFenceEpochOverwrites) {
  Env env(1, 1);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    PmiClient& client = e.manager->client(0);
    co_await client.put("k", "first");
    co_await client.fence();
    co_await client.put("k", "second");
    co_await client.fence();
    auto value = co_await client.get("k");
    EXPECT_EQ(value.value_or("<missing>"), "second");
  }(env));
  env.engine.run();
  EXPECT_EQ(env.manager->fences_completed(), 2u);
}

TEST(Kvs, GetsSerializeOnNodeDaemon) {
  // Two ranks on the same node issue a get at the same instant: the second
  // must finish later. Two ranks on different nodes finish simultaneously.
  Env same(2, 2);
  std::vector<sim::Time> done_same(2);
  same.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(0).get("x");
    t = e.engine.now();
  }(same, done_same[0]));
  same.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(1).get("x");
    t = e.engine.now();
  }(same, done_same[1]));
  same.engine.run();
  EXPECT_NE(done_same[0], done_same[1]);

  Env diff(2, 1);
  std::vector<sim::Time> done_diff(2);
  diff.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(0).get("x");
    t = e.engine.now();
  }(diff, done_diff[0]));
  diff.engine.spawn([](Env& e, sim::Time& t) -> sim::Task<> {
    (void)co_await e.manager->client(1).get("x");
    t = e.engine.now();
  }(diff, done_diff[1]));
  diff.engine.run();
  EXPECT_EQ(done_diff[0], done_diff[1]);
}

TEST(Iallgather, GathersAllValuesByRank) {
  Env env(6, 3);
  for (RankId rank = 0; rank < 6; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      CollectiveTicket ticket =
          client.iallgather_start("ep:" + std::to_string(r));
      std::vector<std::string> values =
          *co_await client.iallgather_wait(ticket);
      EXPECT_EQ(values.size(), 6u);
      for (RankId peer = 0; peer < values.size(); ++peer) {
        EXPECT_EQ(values[peer], "ep:" + std::to_string(peer));
      }
    }(env, rank));
  }
  env.engine.run();
}

TEST(Iallgather, RanksShareOneTable) {
  Env env(6, 3);
  std::vector<std::shared_ptr<const std::vector<std::string>>> tables(6);
  for (RankId rank = 0; rank < 6; ++rank) {
    env.engine.spawn([](Env& e, RankId r, auto& out) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      CollectiveTicket ticket =
          client.iallgather_start("ep:" + std::to_string(r));
      out = co_await client.iallgather_wait(ticket);
    }(env, rank, tables[rank]));
  }
  env.engine.run();
  ASSERT_NE(tables[0], nullptr);
  for (RankId rank = 1; rank < 6; ++rank) {
    EXPECT_EQ(tables[rank].get(), tables[0].get());
  }
  ASSERT_EQ(tables[0]->size(), 6u);
  for (RankId peer = 0; peer < 6; ++peer) {
    EXPECT_EQ((*tables[0])[peer], "ep:" + std::to_string(peer));
  }
}

TEST(Iallgather, StartReturnsImmediately) {
  Env env(2);
  sim::Time start_cost = sim::Time(0) - 1;
  env.engine.spawn([](Env& e, sim::Time& cost) -> sim::Task<> {
    sim::Time t0 = e.engine.now();
    (void)e.manager->client(0).iallgather_start("x");
    cost = e.engine.now() - t0;
    // Let rank 1 arrive so the job can drain.
    CollectiveTicket t1 = e.manager->client(1).iallgather_start("y");
    (void)co_await e.manager->client(1).iallgather_wait(t1);
    CollectiveTicket t0b = CollectiveTicket{0};
    (void)co_await e.manager->client(0).iallgather_wait(t0b);
  }(env, start_cost));
  env.engine.run();
  EXPECT_EQ(start_cost, 0u);
}

TEST(Iallgather, OverlapsWithComputation) {
  // A rank that computes while the allgather progresses should finish at
  // ~max(compute, allgather), not the sum.
  auto run = [](sim::Time compute) {
    Env env(16, 4);
    sim::Time finished = 0;
    for (RankId rank = 0; rank < 16; ++rank) {
      env.engine.spawn(
          [](Env& e, RankId r, sim::Time work, sim::Time& done)
              -> sim::Task<> {
            PmiClient& client = e.manager->client(r);
            CollectiveTicket ticket = client.iallgather_start("endpoint");
            co_await e.engine.delay(work);  // overlapped computation
            (void)co_await client.iallgather_wait(ticket);
            if (r == 0) done = e.engine.now();
          }(env, rank, compute, finished));
    }
    env.engine.run();
    return finished;
  };
  sim::Time no_work = run(0);
  sim::Time with_work = run(10 * sim::msec);
  // 10 ms of overlapped work must hide the whole exchange: completion is
  // work + delivery, far below work + full exchange.
  EXPECT_GE(with_work, 10 * sim::msec);
  EXPECT_LT(with_work, 10 * sim::msec + no_work);
}

TEST(Iallgather, CheaperThanPutFenceGetStorm) {
  // The paper's motivation: Iallgather beats Put-Fence-Get when every rank
  // needs every other rank's entry.
  constexpr std::uint32_t kRanks = 64;
  auto fence_path = [] {
    Env env(kRanks, 8);
    for (RankId rank = 0; rank < kRanks; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("r" + std::to_string(r), std::string(16, 'x'));
        co_await client.fence();
        for (RankId peer = 0; peer < kRanks; ++peer) {
          (void)co_await client.get("r" + std::to_string(peer));
        }
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  auto allgather_path = [] {
    Env env(kRanks, 8);
    for (RankId rank = 0; rank < kRanks; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        CollectiveTicket ticket =
            client.iallgather_start(std::string(16, 'x'));
        (void)co_await client.iallgather_wait(ticket);
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_LT(allgather_path(), fence_path());
}

TEST(Iallgather, MultipleRoundsKeepValuesSeparate) {
  Env env(2, 1);
  for (RankId rank = 0; rank < 2; ++rank) {
    env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
      PmiClient& client = e.manager->client(r);
      CollectiveTicket first =
          client.iallgather_start("a" + std::to_string(r));
      CollectiveTicket second =
          client.iallgather_start("b" + std::to_string(r));
      auto second_values = *co_await client.iallgather_wait(second);
      auto first_values = *co_await client.iallgather_wait(first);
      EXPECT_EQ(first_values, (std::vector<std::string>{"a0", "a1"}));
      EXPECT_EQ(second_values, (std::vector<std::string>{"b0", "b1"}));
    }(env, rank));
  }
  env.engine.run();
}

TEST(Costs, FenceCostGrowsWithPayload) {
  auto timed_fence = [](std::size_t value_bytes) {
    Env env(32, 8);
    for (RankId rank = 0; rank < 32; ++rank) {
      env.engine.spawn([](Env& e, RankId r, std::size_t n) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("k" + std::to_string(r), std::string(n, 'v'));
        co_await client.fence();
      }(env, rank, value_bytes));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_LT(timed_fence(16), timed_fence(64 * 1024));
}

TEST(Costs, OobBytesTracked) {
  Env env(2, 1);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(0).put("key", "0123456789");
    co_await e.manager->client(0).fence();
  }(env));
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.manager->client(1).fence();
  }(env));
  env.engine.run();
  EXPECT_GT(env.manager->oob_bytes_moved(), 0u);
}

TEST(Determinism, IdenticalRunsIdenticalTimes) {
  auto run_once = [] {
    Env env(16, 4);
    for (RankId rank = 0; rank < 16; ++rank) {
      env.engine.spawn([](Env& e, RankId r) -> sim::Task<> {
        PmiClient& client = e.manager->client(r);
        co_await client.put("k" + std::to_string(r), "v");
        co_await client.fence();
        (void)co_await client.get("k" + std::to_string((r + 1) % 16));
      }(env, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::pmi
