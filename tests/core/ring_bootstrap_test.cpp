// Tests for the PMIX_Ring bootstrap mode: constant out-of-band cost, full
// endpoint table disseminated over the InfiniBand ring.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/conduit.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

ConduitConfig ring_design() {
  ConduitConfig config = proposed_design();
  config.pmi_mode = PmiMode::kRing;
  return config;
}

TEST(RingBootstrap, AllToAllTrafficWorks) {
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 4, ring_design()));
  std::vector<int> received(kRanks, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20,
                       [&received, &c](RankId, std::vector<std::byte>)
                           -> sim::Task<> {
                         ++received[c.rank()];
                         co_return;
                       });
    co_await c.init();
    for (RankId peer = 0; peer < kRanks; ++peer) {
      if (peer != c.rank()) {
        co_await c.am_send(peer, 20, std::vector<std::byte>(8));
      }
    }
    co_await c.barrier_global();
  });
  for (RankId r = 0; r < kRanks; ++r) {
    EXPECT_EQ(received[r], static_cast<int>(kRanks - 1)) << "rank " << r;
  }
}

TEST(RingBootstrap, CommunicationFreeProgramDrains) {
  // Even with zero application traffic the background ring dissemination
  // must complete and the job must terminate cleanly.
  JobEnv env(small_job(6, 3, ring_design()));
  env.run([](Conduit& c) -> sim::Task<> { co_await c.init(); });
  for (RankId r = 0; r < 6; ++r) {
    EXPECT_EQ(env.job.conduit(r).stats().counter("ring_bootstrap_hops"), 5);
  }
}

TEST(RingBootstrap, TinyJobs) {
  for (std::uint32_t ranks : {1u, 2u, 3u}) {
    JobEnv env(small_job(ranks, 1, ring_design()));
    std::vector<int> received(ranks, 0);
    env.run([&received, ranks](Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [&received, &c](RankId, std::vector<std::byte>)
                             -> sim::Task<> {
                           ++received[c.rank()];
                           co_return;
                         });
      co_await c.init();
      if (ranks > 1) {
        co_await c.am_send((c.rank() + 1) % ranks, 20,
                           std::vector<std::byte>(4));
      }
      co_await c.barrier_global();
    });
    if (ranks > 1) {
      for (RankId r = 0; r < ranks; ++r) EXPECT_EQ(received[r], 1);
    }
  }
}

TEST(RingBootstrap, FirstContactWaitsOnlyForEntriesNotYetForwarded) {
  // Right after init a PE holds its own endpoint and its two PMI
  // neighbors'; every other entry arrives one IB hop at a time from the
  // left. One PE per node, so every send resolves its peer's endpoint.
  constexpr std::uint32_t kRanks = 8;
  struct Waited {
    bool right = true, left = true, far = false;
  };
  // Each PE sends to rank - 1, rank + 1, then rank + `far`, recording
  // after each send whether it has waited for the exchange.
  auto first_contacts = [](std::uint32_t far) {
    JobEnv env(small_job(kRanks, 1, ring_design()));
    std::vector<Waited> waited(kRanks);
    env.run([&waited, far](Conduit& c) -> sim::Task<> {
      c.register_handler(
          20, [](RankId, std::vector<std::byte>) -> sim::Task<> { co_return; });
      co_await c.init();
      auto pmi_wait = [&c] { return c.stats().phases().contains("pmi_wait"); };
      Waited& w = waited[c.rank()];
      co_await c.am_send((c.rank() + kRanks - 1) % kRanks, 20, {});
      w.left = pmi_wait();
      co_await c.am_send((c.rank() + 1) % kRanks, 20, {});
      w.right = pmi_wait();
      co_await c.am_send((c.rank() + far) % kRanks, 20, {});
      w.far = pmi_wait();
      co_await c.barrier_global();
    });
    return waited;
  };
  // rank + 4 is four hops away; rank - 2 is the first entry the left
  // neighbor forwards beyond its own, not yet arrived by then.
  for (std::uint32_t far : {4u, kRanks - 2}) {
    std::vector<Waited> waited = first_contacts(far);
    for (RankId r = 0; r < kRanks; ++r) {
      EXPECT_FALSE(waited[r].right) << "rank " << r << " far " << far;
      EXPECT_FALSE(waited[r].left) << "rank " << r << " far " << far;
      EXPECT_TRUE(waited[r].far) << "rank " << r << " far " << far;
    }
  }
}

TEST(RingBootstrap, HopDisagreeingWithPmiTableThrows) {
  // A PE reads endpoints from the job's shared table; a forwarded entry
  // that disagrees with it is a protocol fault, not an endpoint to adopt.
  JobEnv env(small_job(4, 1, ring_design()));
  try {
    env.run([](Conduit& c) -> sim::Task<> {
      co_await c.init();
      if (c.rank() == 0) {
        std::vector<std::byte> forged;
        wire::put_int<std::uint32_t>(forged, 2);
        wire::put_bytes(forged, std::vector<std::byte>(6));  // lid 0, qpn 0
        co_await c.am_send(1, kRingHopHandler, std::move(forged));
      }
    });
    ADD_FAILURE() << "a forged ring hop was accepted";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("disagrees"), std::string::npos)
        << error.what();
  }
}

TEST(RingBootstrap, OutOfBandBytesStayConstant) {
  // PMIX_Ring's out-of-band traffic is O(N * entry) total (each value moves
  // to two neighbors), vs Iallgather's full-table dissemination.
  auto oob_bytes = [](PmiMode mode, std::uint32_t ranks) {
    ConduitConfig conduit = proposed_design();
    conduit.pmi_mode = mode;
    JobEnv env(small_job(ranks, 4, conduit));
    env.run([](Conduit& c) -> sim::Task<> {
      co_await c.init();
      co_await c.barrier_global();
    });
    return env.job.pmi().oob_bytes_moved();
  };
  // Ring moves ~6 bytes per rank; Iallgather moves the whole table through
  // the tree (N * 6 * 2 * depth).
  EXPECT_LT(oob_bytes(PmiMode::kRing, 32),
            oob_bytes(PmiMode::kNonBlocking, 32));
}

TEST(RingBootstrap, SurvivesUdLoss) {
  JobConfig config = small_job(6, 3, ring_design());
  config.fabric.ud_drop_rate = 0.3;
  config.fabric.seed = 4242;
  JobEnv env(config);
  std::vector<int> received(6, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20,
                       [&received, &c](RankId, std::vector<std::byte>)
                           -> sim::Task<> {
                         ++received[c.rank()];
                         co_return;
                       });
    co_await c.init();
    co_await c.am_send((c.rank() + 3) % 6, 20, std::vector<std::byte>(4));
    co_await c.barrier_global();
  });
  for (RankId r = 0; r < 6; ++r) EXPECT_EQ(received[r], 1);
}

TEST(RingBootstrap, DeterministicEndToEnd) {
  auto run_once = [] {
    JobEnv env(small_job(8, 4, ring_design()));
    env.run([](Conduit& c) -> sim::Task<> {
      co_await c.init();
      co_await c.barrier_global();
    });
    return env.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::core
