// Tests for the AM-tree global barrier and the intra-node barrier.
#include <gtest/gtest.h>

#include <vector>

#include "core/conduit.hpp"
#include "core/tree.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

TEST(GlobalBarrier, NobodyPassesBeforeLastArrival) {
  JobEnv env(small_job(8, 4));
  sim::Time slowest_arrival = 5 * sim::msec;
  std::vector<sim::Time> passed(8, 0);
  env.run([&passed, slowest_arrival](Conduit& c) -> sim::Task<> {
    co_await c.init();
    if (c.rank() == 5) {
      co_await c.engine().delay(slowest_arrival);
    }
    co_await c.barrier_global();
    passed[c.rank()] = c.engine().now();
  });
  for (RankId r = 0; r < 8; ++r) {
    EXPECT_GE(passed[r], slowest_arrival) << "rank " << r;
  }
}

TEST(GlobalBarrier, RepeatedBarriersStaySynchronized) {
  JobEnv env(small_job(6, 3));
  std::vector<int> phase_counter(1, 0);
  std::vector<bool> violations(1, false);
  env.run([&phase_counter, &violations](Conduit& c) -> sim::Task<> {
    co_await c.init();
    for (int iteration = 0; iteration < 5; ++iteration) {
      // Every rank must observe the same iteration boundary.
      if (phase_counter[0] != iteration * 6 &&
          phase_counter[0] < iteration * 6) {
        violations[0] = true;
      }
      ++phase_counter[0];
      co_await c.barrier_global();
    }
  });
  EXPECT_EQ(phase_counter[0], 30);
  EXPECT_FALSE(violations[0]);
}

TEST(GlobalBarrier, SingleRankJobTrivial) {
  JobEnv env(small_job(1, 1));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    co_await c.barrier_global();
  });
  EXPECT_LT(env.engine.now(), 1 * sim::msec);
}

TEST(GlobalBarrier, EstablishesOnlyTreeConnections) {
  JobEnv env(small_job(16, 4));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    co_await c.barrier_global();
  });
  // Fanout-4 tree: each PE talks to its parent and at most 4 children, so
  // 1..5 peers — far from all-to-all.
  for (RankId r = 0; r < 16; ++r) {
    std::uint64_t peers = env.job.conduit(r).connected_peer_count();
    EXPECT_GE(peers, 1u) << "rank " << r;
    EXPECT_LE(peers, 5u) << "rank " << r;
  }
}

TEST(GlobalBarrier, RootHoldsFanoutChildren) {
  // Nine ranks: the root talks to exactly its kTreeFanout children (ranks
  // 1..4), never to the grandchildren below them.
  JobEnv env(small_job(9, 3));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    co_await c.barrier_global();
  });
  EXPECT_EQ(env.job.conduit(0).connected_peer_count(), kTreeFanout);
}

TEST(IntraNodeBarrier, SynchronizesNodeLocally) {
  JobEnv env(small_job(8, 4));
  std::vector<sim::Time> passed(8, 0);
  env.run([&passed](Conduit& c) -> sim::Task<> {
    co_await c.init();
    if (c.rank() == 1) {
      co_await c.engine().delay(3 * sim::msec);  // slow PE on node 0
    }
    co_await c.barrier_intranode();
    passed[c.rank()] = c.engine().now();
  });
  // Node 0 (ranks 0..3) waits for rank 1; node 1 (ranks 4..7) does not.
  for (RankId r = 0; r < 4; ++r) EXPECT_GE(passed[r], 3 * sim::msec);
  for (RankId r = 4; r < 8; ++r) EXPECT_LT(passed[r], 1 * sim::msec);
}

TEST(IntraNodeBarrier, CreatesNoConnections) {
  JobEnv env(small_job(8, 4));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    for (int i = 0; i < 3; ++i) {
      co_await c.barrier_intranode();
    }
  });
  for (RankId r = 0; r < 8; ++r) {
    EXPECT_EQ(env.job.conduit(r).connected_peer_count(), 0u);
    EXPECT_EQ(env.job.conduit(r).stats().counter("qp_created_rc"), 0);
  }
}

TEST(IntraNodeBarrier, MuchCheaperThanGlobal) {
  // Measure barrier cost only: one global barrier first pays the one-time
  // connection and PMI-wait costs for both variants.
  auto timed = [](bool global) {
    JobEnv env(small_job(32, 8));
    sim::Time elapsed = 0;
    env.run([global, &elapsed](Conduit& c) -> sim::Task<> {
      co_await c.init();
      co_await c.barrier_global();
      sim::Time t0 = c.engine().now();
      for (int i = 0; i < 4; ++i) {
        if (global) {
          co_await c.barrier_global();
        } else {
          co_await c.barrier_intranode();
        }
      }
      if (c.rank() == 0) elapsed = c.engine().now() - t0;
    });
    return elapsed;
  };
  EXPECT_LT(timed(false) * 3, timed(true));
}

TEST(IntraNodeBarrier, HandlesPartialLastNode) {
  // 10 ranks at 4 per node: nodes of size 4, 4 and 2.
  JobEnv env(small_job(10, 4));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    co_await c.barrier_intranode();
    co_await c.barrier_intranode();
  });
  EXPECT_EQ(env.job.ranks_on_node(2), 2u);
}

TEST(InitBarrier, FollowsConfiguredMode) {
  ConduitConfig conduit = proposed_design();
  conduit.init_barrier_mode = BarrierMode::kIntraNode;
  JobEnv env(small_job(8, 4, conduit));
  env.run([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    co_await c.barrier_init();
  });
  for (RankId r = 0; r < 8; ++r) {
    EXPECT_EQ(env.job.conduit(r).stats().counter("barriers_intranode"), 1);
    EXPECT_EQ(env.job.conduit(r).stats().counter("barriers_global"), 0);
  }
}

}  // namespace
}  // namespace odcm::core
