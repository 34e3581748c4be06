// Tests for the connection protocol's fault handling: UD loss and
// duplication, retransmission, collisions, and the "server not ready" hold
// (paper §IV-A, §IV-E).
#include <gtest/gtest.h>

#include <vector>

#include "core/conduit.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

void register_sink(Conduit& c, int& received) {
  c.register_handler(20,
                     [&received](RankId, std::vector<std::byte>)
                         -> sim::Task<> {
                       ++received;
                       co_return;
                     });
}

TEST(Protocol, SurvivesHeavyUdLoss) {
  JobConfig config = small_job(4, 2);
  config.fabric.ud_drop_rate = 0.5;
  config.fabric.seed = 123;
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, std::vector<std::byte>(8));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 4);
  std::int64_t retransmits = 0;
  for (RankId r = 0; r < 4; ++r) {
    retransmits += env.job.conduit(r).stats().counter("conn_retransmits");
  }
  EXPECT_GT(retransmits, 0);
}

TEST(Protocol, SurvivesDuplicatedDatagrams) {
  JobConfig config = small_job(4, 2);
  config.fabric.ud_duplicate_rate = 1.0;
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, std::vector<std::byte>(8));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 4);
  // Exactly one connection per peer despite duplicated packets (the final
  // barrier adds tree connections, so compare against the peer count).
  for (RankId r = 0; r < 4; ++r) {
    Conduit& c = env.job.conduit(r);
    EXPECT_EQ(
        static_cast<std::uint64_t>(c.stats().counter("connections_established")),
        c.connected_peer_count());
  }
}

TEST(Protocol, SurvivesLossAndDuplicationAndJitter) {
  JobConfig config = small_job(8, 4);
  config.fabric.ud_drop_rate = 0.3;
  config.fabric.ud_duplicate_rate = 0.2;
  config.fabric.ud_jitter_max = 5 * sim::usec;
  config.fabric.seed = 77;
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    for (RankId peer = 0; peer < 8; ++peer) {
      if (peer != c.rank()) {
        co_await c.am_send(peer, 20, std::vector<std::byte>(8));
      }
    }
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 8 * 7);
}

TEST(Protocol, CollisionResolvesToOneConnection) {
  // Both ranks initiate simultaneously. The lower rank's request wins; the
  // pair must end up with exactly one established connection each side and
  // data must flow both ways.
  JobEnv env(small_job(2, 1));
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    co_await c.barrier_intranode();  // does not connect inter-node peers
    co_await c.am_send(1 - c.rank(), 20, std::vector<std::byte>(8));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 2);
  std::int64_t collisions =
      env.job.conduit(0).stats().counter("conn_collisions") +
      env.job.conduit(1).stats().counter("conn_collisions");
  EXPECT_GE(collisions, 1);
  for (RankId r = 0; r < 2; ++r) {
    EXPECT_EQ(env.job.conduit(r).connected_peer_count(), 1u);
    EXPECT_EQ(env.job.conduit(r).stats().counter("connections_established"),
              1);
  }
}

TEST(Protocol, ManyWayCollisionsAllResolve) {
  // All-to-all simultaneous first communication: every pair collides.
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 4));
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    co_await c.barrier_intranode();
    for (RankId peer = 0; peer < kRanks; ++peer) {
      if (peer != c.rank()) {
        co_await c.am_send(peer, 20, std::vector<std::byte>(4));
      }
    }
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, static_cast<int>(kRanks * (kRanks - 1)));
  for (RankId r = 0; r < kRanks; ++r) {
    EXPECT_EQ(env.job.conduit(r).connected_peer_count(), kRanks - 1);
  }
}

TEST(Protocol, CollisionUnderHeavyLossLeavesOneConnection) {
  // Simultaneous connect from both sides while half of all UD datagrams
  // are lost: requests and replies from either side can vanish in any
  // combination, yet exactly one RC connection per side must survive,
  // the retry budget must hold, and no QP may leak past finalize.
  for (std::uint64_t seed : {5ull, 17ull, 101ull, 4242ull}) {
    JobConfig config = small_job(2, 1);
    config.fabric.ud_drop_rate = 0.5;
    config.fabric.seed = seed;
    JobEnv env(config);
    int received = 0;
    env.run([&received](Conduit& c) -> sim::Task<> {
      register_sink(c, received);
      co_await c.init();
      co_await c.barrier_intranode();  // does not connect inter-node peers
      co_await c.am_send(1 - c.rank(), 20, std::vector<std::byte>(8));
      co_await c.barrier_global();
    });
    EXPECT_EQ(received, 2) << "seed " << seed;
    for (RankId r = 0; r < 2; ++r) {
      Conduit& c = env.job.conduit(r);
      EXPECT_EQ(c.connected_peer_count(), 1u) << "seed " << seed;
      EXPECT_EQ(c.stats().counter("connections_established"), 1)
          << "seed " << seed;
      EXPECT_LE(c.stats().counter("conn_retransmits"),
                static_cast<std::int64_t>(kConnMaxRetries))
          << "seed " << seed;
    }
    // Finalize destroyed every QP — colliding attempts did not leak any.
    for (fabric::NodeId n = 0; n < env.job.fabric().node_count(); ++n) {
      EXPECT_EQ(env.job.fabric().hca(n).qps_active(), 0u) << "seed " << seed;
    }
  }
}

TEST(Protocol, ServerNotReadyHoldsReply) {
  // Rank 1 declares readiness only after a long delay; rank 0's connection
  // request must be held (and retransmitted) until then, after which the
  // piggybacked payload flows normally.
  JobEnv env(small_job(2, 1));
  std::vector<std::string> consumed;
  sim::Time connected_at = 0;
  env.run([&consumed, &connected_at](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    c.set_payload_hooks(
        [&c](RankId) {
          return std::vector<std::byte>(
              static_cast<std::size_t>(c.rank()) + 1);
        },
        [&consumed, &c](RankId peer, std::span<const std::byte> payload) {
          consumed.push_back(std::to_string(c.rank()) + "<-" +
                             std::to_string(peer) + ":" +
                             std::to_string(payload.size()));
        });
    co_await c.init();
    if (c.rank() == 0) {
      c.set_ready();
      co_await c.am_send(1, 20, std::vector<std::byte>(8));
      connected_at = c.engine().now();
    } else {
      co_await c.engine().delay(2 * sim::msec);  // still registering...
      c.set_ready();
    }
    co_await c.barrier_global();
  });
  EXPECT_GE(connected_at, 2 * sim::msec);
  EXPECT_GE(env.job.conduit(1).stats().counter("conn_requests_held"), 1);
  // Held requests trigger client retransmission (2 ms >> RTO).
  EXPECT_GT(env.job.conduit(0).stats().counter("conn_retransmits"), 0);
  // Both payloads were still consumed exactly once per direction.
  EXPECT_EQ(consumed.size(), 2u);
}

TEST(Protocol, ReplyLossTriggersCachedResend) {
  // With heavy loss the reply can vanish after the server committed; the
  // retransmitted request must be answered from the cached reply rather
  // than by a second QP.
  JobConfig config = small_job(2, 1);
  config.fabric.ud_drop_rate = 0.6;
  config.fabric.seed = 2024;
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(8));
    }
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 1);
  EXPECT_EQ(env.job.conduit(1).stats().counter("connections_established"), 1);
  EXPECT_LE(env.job.conduit(1).stats().counter("qp_created_rc"), 2);
}

TEST(Protocol, RetriesExceededSurfacesError) {
  JobConfig config = small_job(2, 1);
  config.fabric.ud_drop_rate = 1.0;  // nothing ever arrives
  JobEnv env(config);
  env.job.spawn_all([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(8));
    }
  });
  EXPECT_THROW(env.engine.run(), std::runtime_error);
  // The full budget was spent before the handshake gave up, exactly once.
  Conduit& c0 = env.job.conduit(0);
  EXPECT_EQ(c0.stats().counter("conn_retransmits"),
            static_cast<std::int64_t>(kConnMaxRetries));
  EXPECT_EQ(c0.stats().counter("conn_failures"), 1);
}

TEST(Protocol, NonBlockingPmiDefersExchangeUntilFirstUse) {
  // With PMIX_Iallgather the init-time PMI phase is ~free; the wait cost is
  // paid at first communication ("pmi_wait" phase).
  JobEnv env(small_job(4, 2));
  env.run([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(8));
    }
    co_await c.barrier_global();
  });
  Conduit& c0 = env.job.conduit(0);
  EXPECT_LT(c0.stats().phase_time("pmi_exchange"), 10 * sim::usec);
  EXPECT_GT(c0.stats().phase_time("pmi_wait"), 0u);
}

}  // namespace
}  // namespace odcm::core
