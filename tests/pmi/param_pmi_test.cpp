// Parameterized PMI sweeps: KVS and Iallgather correctness across job
// geometries.
#include <gtest/gtest.h>

#include <tuple>

#include "pmi/pmi.hpp"
#include "sim/engine.hpp"

namespace odcm::pmi {
namespace {

using Geometry = std::tuple<std::uint32_t /*ranks*/, std::uint32_t /*ppn*/>;

class PmiGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(PmiGeometry, PutFenceGetAcrossAllRanks) {
  auto [ranks, ppn] = GetParam();
  sim::Engine engine;
  JobManager manager(engine, ranks, ppn);
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
  auto [ranks, ppn] = GetParam();
  sim::Engine engine;
  JobManager manager(engine, ranks, ppn);
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
    ::testing::Values(Geometry{1, 1}, Geometry{2, 1}, Geometry{7, 3},
                      Geometry{16, 4}, Geometry{16, 16}, Geometry{33, 8},
                      Geometry{64, 16}, Geometry{100, 10}));

// Cost-model properties over geometry: fence time grows with rank count,
// and more nodes make a deeper, slower daemon tree at fixed size.
TEST(PmiCostProperties, FenceGrowsWithRanks) {
  auto fence_time = [](std::uint32_t ranks) {
    sim::Engine engine;
    JobManager manager(engine, ranks, 8);
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

TEST(PmiCostProperties, MoreNodesMeansDeeperSlowerTree) {
  auto fence_time = [](std::uint32_t ppn) {
    sim::Engine engine;
    JobManager manager(engine, 512, ppn);
    for (RankId rank = 0; rank < 512; ++rank) {
      engine.spawn([](JobManager& jm, RankId r) -> sim::Task<> {
        co_await jm.client(r).fence();
      }(manager, rank));
    }
    engine.run();
    return engine.now();
  };
  // An empty fence costs one gather up and one broadcast down the tree:
  // 8 nodes fit under one level of the 8-ary tree, 512 nodes need three.
  static_assert(kDaemonTreeFanout == 8);
  EXPECT_EQ(fence_time(64), 2 * 1 * kOobLatency);
  EXPECT_EQ(fence_time(1), 2 * 3 * kOobLatency);
}

}  // namespace
}  // namespace odcm::pmi
