// Tests for the PMIX_Ring primitive at the PMI layer.
#include <gtest/gtest.h>

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

TEST(PmixRing, DeliversBothNeighbors) {
  constexpr std::uint32_t kRanks = 6;
  Env env(kRanks);
  int failures = 0;
  for (RankId rank = 0; rank < kRanks; ++rank) {
    env.engine.spawn([](JobManager& jm, RankId r, int& bad) -> sim::Task<> {
      auto table = co_await jm.client(r).ring("v" + std::to_string(r));
      RankId expect_left = (r + kRanks - 1) % kRanks;
      RankId expect_right = (r + 1) % kRanks;
      const std::string& left = (*table)[expect_left];
      const std::string& right = (*table)[expect_right];
      if (left != "v" + std::to_string(expect_left)) ++bad;
      if (right != "v" + std::to_string(expect_right)) ++bad;
    }(*env.manager, rank, failures));
  }
  env.engine.run();
  EXPECT_EQ(failures, 0);
}

TEST(PmixRing, SingleRankSeesItselfBothSides) {
  Env env(1, 1);
  env.engine.spawn([](JobManager& jm) -> sim::Task<> {
    auto table = co_await jm.client(0).ring("only");
    const std::string& left = (*table)[0];
    const std::string& right = (*table)[0];
    EXPECT_EQ(left, "only");
    EXPECT_EQ(right, "only");
  }(*env.manager));
  env.engine.run();
}

TEST(PmixRing, IsABarrier) {
  Env env(2);
  sim::Time done = 0;
  env.engine.spawn([](Env& e, sim::Time& at) -> sim::Task<> {
    (void)co_await e.manager->client(0).ring("a");
    at = e.engine.now();
  }(env, done));
  env.engine.spawn([](Env& e) -> sim::Task<> {
    co_await e.engine.delay(2 * sim::msec);
    (void)co_await e.manager->client(1).ring("b");
  }(env));
  env.engine.run();
  EXPECT_GE(done, 2 * sim::msec);
}

TEST(PmixRing, CostIndependentOfJobSize) {
  // The selling point: ring completion time does not grow with N (beyond
  // the daemon-tree depth).
  auto ring_time = [](std::uint32_t ranks) {
    Env env(ranks, 16);
    for (RankId rank = 0; rank < ranks; ++rank) {
      env.engine.spawn([](JobManager& jm, RankId r) -> sim::Task<> {
        (void)co_await jm.client(r).ring("endpoint");
      }(*env.manager, rank));
    }
    env.engine.run();
    return env.engine.now();
  };
  sim::Time small = ring_time(64);
  sim::Time large = ring_time(4096);
  EXPECT_LT(static_cast<double>(large), 1.5 * static_cast<double>(small));
}

TEST(PmixRing, EveryRankSharesOneFrozenTable) {
  constexpr std::uint32_t kRanks = 5;
  Env env(kRanks);
  std::vector<SharedTable> tables(kRanks);
  std::uint64_t value_bytes = 0;
  const std::uint64_t before = env.manager->oob_bytes_moved();
  for (RankId rank = 0; rank < kRanks; ++rank) {
    std::string value(rank + 1, static_cast<char>('a' + rank));
    value_bytes += value.size();
    env.engine.spawn([](JobManager& jm, RankId r, std::string v,
                        auto& out) -> sim::Task<> {
      out = co_await jm.client(r).ring(std::move(v));
    }(*env.manager, rank, std::move(value), tables[rank]));
  }
  env.engine.run();
  EXPECT_EQ(env.manager->oob_bytes_moved() - before, value_bytes);
  ASSERT_NE(tables[0], nullptr);
  for (RankId rank = 1; rank < kRanks; ++rank) {
    EXPECT_EQ(tables[rank].get(), tables[0].get());
  }
  ASSERT_EQ(tables[0]->size(), kRanks);
  for (RankId rank = 0; rank < kRanks; ++rank) {
    EXPECT_EQ((*tables[0])[rank],
              std::string(rank + 1, static_cast<char>('a' + rank)));
  }
}

TEST(PmixRing, SuccessiveRoundsIndependent) {
  Env env(3, 3);
  int failures = 0;
  for (RankId rank = 0; rank < 3; ++rank) {
    env.engine.spawn([](JobManager& jm, RankId r, int& bad) -> sim::Task<> {
      const RankId left = (r + 2) % 3;
      const RankId right = (r + 1) % 3;
      auto first = co_await jm.client(r).ring("x" + std::to_string(r));
      auto second = co_await jm.client(r).ring("y" + std::to_string(r));
      const std::string& l1 = (*first)[left];
      const std::string& r1 = (*first)[right];
      const std::string& l2 = (*second)[left];
      const std::string& r2 = (*second)[right];
      if (l1[0] != 'x' || r1[0] != 'x') ++bad;
      if (l2[0] != 'y' || r2[0] != 'y') ++bad;
    }(*env.manager, rank, failures));
  }
  env.engine.run();
  EXPECT_EQ(failures, 0);
}

}  // namespace
}  // namespace odcm::pmi
