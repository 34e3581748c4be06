// Tests for adaptive connection management: LRU eviction under a
// connection cap, graceful drain, and transparent re-establishment.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/conduit.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

ConduitConfig capped(std::uint32_t cap) {
  ConduitConfig config = proposed_design();
  config.max_active_connections = cap;
  return config;
}

void register_sink(Conduit& c, std::vector<int>& received) {
  c.register_handler(20,
                     [&received, &c](RankId, std::vector<std::byte>)
                         -> sim::Task<> {
                       ++received[c.rank()];
                       co_return;
                     });
}

TEST(Eviction, CapHoldsUnderSweepTraffic) {
  constexpr std::uint32_t kRanks = 8;
  constexpr std::uint32_t kCap = 3;
  JobEnv env(small_job(kRanks, 4, capped(kCap)));
  std::vector<int> received(kRanks, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    // Rank 0 sweeps over all peers twice: every message must arrive even
    // though only kCap connections may live at once.
    if (c.rank() == 0) {
      for (int round = 0; round < 2; ++round) {
        for (RankId peer = 1; peer < kRanks; ++peer) {
          co_await c.am_send(peer, 20, std::vector<std::byte>(8));
        }
      }
    }
    co_await c.barrier_intranode();
  });
  int total = 0;
  for (RankId r = 1; r < kRanks; ++r) total += received[r];
  EXPECT_EQ(total, 2 * (kRanks - 1));
  Conduit& c0 = env.job.conduit(0);
  EXPECT_GT(c0.stats().counter("conn_evictions"), 0);
  EXPECT_LE(c0.connected_peer_count(), kCap);
}

TEST(Eviction, EvictedPeerReconnectsTransparently) {
  JobEnv env(small_job(4, 2, capped(1)));
  std::vector<int> received(4, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      // 1 -> 2 -> back to 1: with cap 1, contacting 2 evicts 1, and the
      // second message to 1 must re-handshake.
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
      co_await c.am_send(2, 20, std::vector<std::byte>(4));
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
    }
    co_await c.barrier_intranode();
  });
  EXPECT_EQ(received[1], 2);
  EXPECT_EQ(received[2], 1);
  Conduit& c0 = env.job.conduit(0);
  // Rank 1 was connected twice.
  EXPECT_GE(c0.stats().counter("conn_requests_initiated"), 3);
  EXPECT_GE(c0.stats().counter("conn_evictions"), 1);
  // The peer side observed the passive eviction.
  EXPECT_GE(env.job.conduit(1).stats().counter("conn_evictions_passive") +
                env.job.conduit(1).stats().counter("conn_evictions"),
            1);
}

TEST(Eviction, DataIntegrityAcrossEvictionCycles) {
  // RMA writes across eviction/reconnection cycles must land exactly once
  // each; verify final memory contents.
  constexpr std::uint32_t kRanks = 6;
  JobEnv env(small_job(kRanks, 3, capped(2)));
  fabric::AddressSpace space(5, fabric::make_va_base(5), 4096);
  fabric::MemoryRegion mr{};
  env.run([&space, &mr](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 5) {
      mr = co_await c.hca().register_memory(space, space.base(),
                                            space.size());
    }
    co_await c.barrier_global();
    if (c.rank() < 5) {
      for (int round = 0; round < 3; ++round) {
        // Touch other peers to force churn on rank's connection table.
        co_await c.am_send((c.rank() + 1) % 5, 0 + 20, {});
        std::uint64_t value = 1;
        fabric::Completion wc = co_await c.rma(
            5, {.kind = RmaKind::kFetchAdd, .raddr = mr.addr,
                .operand = value, .rkey = mr.rkey});
        EXPECT_TRUE(wc.ok());
      }
    }
    co_await c.barrier_global();
  });
  std::uint64_t total = 0;
  std::memcpy(&total, space.bytes().data(), 8);
  EXPECT_EQ(total, 5u * 3u);
}

TEST(Eviction, SymmetricEvictionResolves) {
  // Both sides evict each other's connection at the same time (cap 1 and
  // both immediately talk to a third rank), then re-communicate.
  JobEnv env(small_job(3, 3, capped(1)));
  std::vector<int> received(3, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
      co_await c.am_send(2, 20, std::vector<std::byte>(4));  // evicts 1
      co_await c.am_send(1, 20, std::vector<std::byte>(4));  // reconnect
    } else if (c.rank() == 1) {
      co_await c.am_send(2, 20, std::vector<std::byte>(4));
    }
    co_await c.barrier_intranode();
    co_await c.engine().delay(5 * sim::msec);  // let drains settle
  });
  EXPECT_EQ(received[1], 2);
  EXPECT_EQ(received[2], 2);
}

TEST(Eviction, DrainingPeerReestablishesUnderUdLoss) {
  // Regression: a peer stuck in the Draining phase re-establishes through
  // ensure_connected even when the UD control channel is lossy. The
  // evicted side's re-request doubles as the drain ack; if it is dropped,
  // the client retransmits until it lands — the run must complete, never
  // hang. Several seeds vary which datagrams are lost.
  for (std::uint64_t seed : {11ull, 23ull, 47ull, 91ull, 130ull}) {
    JobConfig config = small_job(3, 1, capped(1));
    config.fabric.ud_drop_rate = 0.5;
    config.fabric.seed = seed;
    JobEnv env(config);
    std::vector<int> received(3, 0);
    env.run([&received](Conduit& c) -> sim::Task<> {
      register_sink(c, received);
      co_await c.init();
      co_await c.barrier_intranode();
      // Mutual churn with cap 1: each rank's second send evicts its first
      // connection, and re-contacting the evicted peer must traverse the
      // Draining → (re)Establishing path while requests are being lost.
      for (int round = 0; round < 2; ++round) {
        co_await c.am_send((c.rank() + 1) % 3, 20,
                           std::vector<std::byte>(4));
        co_await c.am_send((c.rank() + 2) % 3, 20,
                           std::vector<std::byte>(4));
      }
      co_await c.barrier_global();
    });
    for (RankId r = 0; r < 3; ++r) {
      EXPECT_EQ(received[r], 4) << "seed " << seed << " rank " << r;
      // The retry budget must never be exceeded on the way back up.
      Conduit& c = env.job.conduit(r);
      EXPECT_LE(c.stats().counter("conn_retransmits"),
                c.stats().counter("conn_requests_initiated") *
                    static_cast<std::int64_t>(kConnMaxRetries))
          << "seed " << seed;
    }
    std::int64_t evictions = 0;
    for (RankId r = 0; r < 3; ++r) {
      evictions += env.job.conduit(r).stats().counter("conn_evictions");
    }
    EXPECT_GT(evictions, 0) << "seed " << seed
                            << ": workload did not exercise eviction";
  }
}

TEST(Eviction, UnlimitedByDefaultNeverEvicts) {
  JobEnv env(small_job(6, 3));  // default config: cap 0
  std::vector<int> received(6, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    for (RankId peer = 0; peer < 6; ++peer) {
      if (peer != c.rank()) {
        co_await c.am_send(peer, 20, std::vector<std::byte>(4));
      }
    }
    co_await c.barrier_global();
  });
  for (RankId r = 0; r < 6; ++r) {
    EXPECT_EQ(env.job.conduit(r).stats().counter("conn_evictions"), 0);
    EXPECT_EQ(env.job.conduit(r).connected_peer_count(), 5u);
  }
}

TEST(Eviction, RegisteredEndpointCountReflectsChurn) {
  // Endpoints created only ever grows (QPs are recreated after eviction),
  // while the active connection count stays capped.
  JobEnv env(small_job(5, 5, capped(1)));
  std::vector<int> received(5, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      for (int round = 0; round < 3; ++round) {
        for (RankId peer = 1; peer < 5; ++peer) {
          co_await c.am_send(peer, 20, std::vector<std::byte>(4));
        }
      }
    }
    co_await c.barrier_intranode();
    co_await c.engine().delay(5 * sim::msec);
  });
  Conduit& c0 = env.job.conduit(0);
  EXPECT_LE(c0.connected_peer_count(), 1u);
  EXPECT_GT(c0.stats().counter("qp_created_rc"), 4);  // churn recreated QPs
}

}  // namespace
}  // namespace odcm::core
