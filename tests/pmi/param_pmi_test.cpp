// Parameterized PMI sweeps: KVS and Iallgather correctness across job
// geometries and daemon-tree fan-outs.
#include <gtest/gtest.h>

#include <tuple>

#include "pmi/pmi.hpp"
#include "sim/engine.hpp"

namespace odcm::pmi {
namespace {

using Geometry =
    std::tuple<std::uint32_t /*ranks*/, std::uint32_t /*ppn*/,
               std::uint32_t /*fanout*/>;

class PmiGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(PmiGeometry, PutFenceGetAcrossAllRanks) {
  auto [ranks, ppn, fanout] = GetParam();
  sim::Engine engine;
  PmiConfig config;
  config.ranks = ranks;
  config.ranks_per_node = ppn;
  config.tree_fanout = fanout;
  JobManager manager(engine, config);
  int failures = 0;
  for (RankId rank = 0; rank < ranks; ++rank) {
    engine.spawn([](JobManager& jm, RankId r, std::uint32_t n,
                    int& bad) -> sim::Task<> {
      PmiClient& client = jm.client(r);
      co_await client.put("key-" + std::to_string(r),
                          "value-" + std::to_string(r * 3));
      co_await client.fence();
      // Spot-check a shifted subset (full N^2 gets is the static bench).
      for (std::uint32_t k = 0; k < 4; ++k) {
        RankId peer = (r + k * 7 + 1) % n;
        auto value = co_await client.get("key-" + std::to_string(peer));
        if (!value || *value != "value-" + std::to_string(peer * 3)) {
          ++bad;
        }
      }
    }(manager, rank, ranks, failures));
  }
  engine.run();
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(manager.fences_completed(), 1u);
}

TEST_P(PmiGeometry, IallgatherDeliversEveryValue) {
  auto [ranks, ppn, fanout] = GetParam();
  sim::Engine engine;
  PmiConfig config;
  config.ranks = ranks;
  config.ranks_per_node = ppn;
  config.tree_fanout = fanout;
  JobManager manager(engine, config);
  int failures = 0;
  for (RankId rank = 0; rank < ranks; ++rank) {
    engine.spawn([](JobManager& jm, RankId r, std::uint32_t n,
                    int& bad) -> sim::Task<> {
      PmiClient& client = jm.client(r);
      CollectiveTicket ticket =
          client.iallgather_start(std::string(1 + r % 5, 'a' + r % 26));
      std::vector<std::string> values =
          *co_await client.iallgather_wait(ticket);
      if (values.size() != n) {
        ++bad;
        co_return;
      }
      for (RankId peer = 0; peer < n; ++peer) {
        if (values[peer] !=
            std::string(1 + peer % 5, 'a' + peer % 26)) {
          ++bad;
        }
      }
    }(manager, rank, ranks, failures));
  }
  engine.run();
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PmiGeometry,
    ::testing::Values(Geometry{1, 1, 2}, Geometry{2, 1, 2},
                      Geometry{7, 3, 2}, Geometry{16, 4, 4},
                      Geometry{16, 16, 8}, Geometry{33, 8, 8},
                      Geometry{64, 16, 8}, Geometry{100, 10, 3}));

// Cost-model properties over geometry: fence time grows with rank count,
// and a deeper tree (smaller fanout) is slower at fixed size.
TEST(PmiCostProperties, FenceGrowsWithRanks) {
  auto fence_time = [](std::uint32_t ranks) {
    sim::Engine engine;
    PmiConfig config;
    config.ranks = ranks;
    config.ranks_per_node = 8;
    JobManager manager(engine, config);
    for (RankId rank = 0; rank < ranks; ++rank) {
      engine.spawn([](JobManager& jm, RankId r) -> sim::Task<> {
        PmiClient& client = jm.client(r);
        co_await client.put("k" + std::to_string(r), std::string(64, 'x'));
        co_await client.fence();
      }(manager, rank));
    }
    engine.run();
    return engine.now();
  };
  sim::Time t64 = fence_time(64);
  sim::Time t512 = fence_time(512);
  EXPECT_LT(t64, t512);
}

TEST(PmiCostProperties, SmallerFanoutMeansDeeperSlowerTree) {
  auto fence_time = [](std::uint32_t fanout) {
    sim::Engine engine;
    PmiConfig config;
    config.ranks = 512;
    config.ranks_per_node = 8;  // 64 nodes
    config.tree_fanout = fanout;
    JobManager manager(engine, config);
    for (RankId rank = 0; rank < 512; ++rank) {
      engine.spawn([](JobManager& jm, RankId r) -> sim::Task<> {
        co_await jm.client(r).fence();
      }(manager, rank));
    }
    engine.run();
    return engine.now();
  };
  EXPECT_GT(fence_time(2), fence_time(8));
}

}  // namespace
}  // namespace odcm::pmi
