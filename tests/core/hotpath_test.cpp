// Tests for the connection-manager hot path: the intrusive LRU structure
// behind O(1) eviction, deterministic retransmission backoff, clean
// handshake failure after retry exhaustion, retired-QP reclamation under
// eviction churn, and an event-count budget guarding against the return of
// per-eviction O(N) scans.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/backoff.hpp"
#include "core/conduit.hpp"
#include "core/lru.hpp"
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

// ---- LRU list vs the historical reference scan ----

struct FakeNode {
  sim::Time last_used = 0;
  fabric::RankId rank = 0;
  FakeNode* lru_prev = nullptr;
  FakeNode* lru_next = nullptr;
  bool in_lru = false;
};

/// The victim choice `maybe_evict` used before the intrusive list: iterate
/// rank-ascending, keep the entry with the strictly smallest `last_used`.
FakeNode* reference_victim(std::vector<FakeNode>& nodes) {
  FakeNode* victim = nullptr;
  for (FakeNode& n : nodes) {
    if (!n.in_lru) continue;
    if (victim == nullptr || n.last_used < victim->last_used) {
      victim = &n;
    }
  }
  return victim;
}

TEST(LruOrder, MatchesReferenceScanUnderRandomChurn) {
  // Drive the list with a deterministic pseudorandom mix of the three
  // operations the conduit performs (connect = insert, touch on use,
  // evict/drain = remove) and check the head against the historical scan
  // after every step. The clock is nondecreasing, as in the simulator.
  constexpr std::uint32_t kNodes = 24;
  std::vector<FakeNode> nodes(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) nodes[i].rank = i;
  LruList<FakeNode> lru;
  std::minstd_rand rng(12345);
  sim::Time clock = 0;
  for (int step = 0; step < 4000; ++step) {
    FakeNode& n = nodes[rng() % kNodes];
    switch (rng() % 4) {
      case 0:
        if (!n.in_lru) {
          n.last_used = clock;
          lru.insert(n);
        }
        break;
      case 1:
        lru.remove(n);
        break;
      default:  // use is twice as likely as connect/evict
        if (n.in_lru) lru.touch(n, clock);
        break;
    }
    if (rng() % 3 == 0) ++clock;  // several events per virtual instant
    ASSERT_EQ(lru.front(), reference_victim(nodes)) << "step " << step;
  }
  // Drain fully through the head, still tracking the reference.
  while (!lru.empty()) {
    FakeNode* head = lru.front();
    ASSERT_EQ(head, reference_victim(nodes));
    lru.remove(*head);
  }
}

TEST(LruOrder, TiesBreakTowardLowestRank) {
  std::vector<FakeNode> nodes(4);
  for (std::uint32_t i = 0; i < 4; ++i) nodes[i].rank = i;
  LruList<FakeNode> lru;
  // Insert out of rank order at one virtual instant.
  lru.insert(nodes[2]);
  lru.insert(nodes[0]);
  lru.insert(nodes[3]);
  lru.insert(nodes[1]);
  for (std::uint32_t expect = 0; expect < 4; ++expect) {
    ASSERT_EQ(lru.front(), &nodes[expect]);
    lru.remove(*lru.front());
  }
}

// ---- deterministic backoff ----

TEST(Backoff, DeterministicGrowsAndCaps) {
  ConduitConfig config = proposed_design();
  config.conn_rto_max = 8 * sim::msec;
  sim::Time prev_base = 0;
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    sim::Time rto = backoff_rto(config, 3, 7, attempt);
    sim::Time expected_base = kConnRto << attempt;
    if (expected_base > config.conn_rto_max) {
      expected_base = config.conn_rto_max;
    }
    // Within [base, 1.25 * base): jitter never doubles into the next slot.
    EXPECT_GE(rto, expected_base) << "attempt " << attempt;
    EXPECT_LT(rto, expected_base + expected_base / 4) << "attempt " << attempt;
    EXPECT_GE(expected_base, prev_base);
    prev_base = expected_base;
    // Pure function of (config, src, dst, attempt): identical on re-query.
    EXPECT_EQ(rto, backoff_rto(config, 3, 7, attempt));
  }
  // Distinct (src, dst) pairs de-synchronize: with a 2 ms base the jitter
  // span is 500 us, so 8 pairs colliding on the same schedule would defeat
  // the point. Expect at least two distinct timeouts across ten pairs.
  std::uint32_t distinct = 0;
  std::vector<sim::Time> seen;
  for (fabric::RankId src = 0; src < 10; ++src) {
    sim::Time rto = backoff_rto(config, src, 99, 2);
    bool fresh = true;
    for (sim::Time t : seen) fresh = fresh && (t != rto);
    if (fresh) ++distinct;
    seen.push_back(rto);
  }
  EXPECT_GE(distinct, 2u);
}

TEST(Backoff, RtoMaxBelowRtoIsClampedUp) {
  ConduitConfig config = proposed_design();
  config.conn_rto_max = sim::usec;  // misconfigured below the base
  static_assert(sim::usec < kConnRto);
  for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
    sim::Time rto = backoff_rto(config, 0, 1, attempt);
    EXPECT_GE(rto, kConnRto);
    EXPECT_LT(rto, kConnRto + kConnRto / 4);
  }
}

// ---- last_used stamped at establishment (server-side victim bug) ----

TEST(Eviction, FreshServerConnectionIsNotImmediateVictim) {
  // Regression: a server-side connection used to leave last_used at 0, so
  // the freshly accepted peer was the next LRU victim even though it was
  // the youngest connection. Rank 0 talks to rank 1, then *accepts* a
  // connection from rank 2, then talks to rank 3 with cap 2: the victim
  // must be rank 1 (oldest), never the just-accepted rank 2.
  JobEnv env(small_job(4, 4, capped(2)));
  std::vector<int> received(4, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
      co_await c.engine().delay(4 * sim::msec);  // rank 2 connects to us
      co_await c.am_send(3, 20, std::vector<std::byte>(4));  // forces evict
      co_await c.engine().delay(4 * sim::msec);  // let the drain settle
      EXPECT_EQ(c.peer_phase(1), PeerPhase::kIdle);
      EXPECT_EQ(c.peer_phase(2), PeerPhase::kConnected);
      EXPECT_EQ(c.peer_phase(3), PeerPhase::kConnected);
      EXPECT_EQ(c.stats().counter("conn_evictions"), 1);
    } else if (c.rank() == 2) {
      co_await c.engine().delay(2 * sim::msec);
      co_await c.am_send(0, 20, std::vector<std::byte>(4));
    }
    co_await c.engine().delay(12 * sim::msec);
  });
  EXPECT_EQ(received[0], 1);
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[3], 1);
}

// ---- retry exhaustion surfaces to every waiter ----

TEST(ConnectFailure, RetryExhaustionPropagatesToAllWaiters) {
  JobEnv env(small_job(2, 2, proposed_design()));
  // Swallow every datagram rank 0 sends (requests never arrive, so no
  // replies exist) until the handshake gives up; then let traffic through.
  bool drop_active = true;
  env.job.fabric().set_ud_fault_hook(
      [&drop_active](const fabric::UdSendContext& ctx) {
        fabric::UdFault fault;
        fault.drop = drop_active && ctx.src_rank == 0;
        return fault;
      });
  std::vector<int> received(2, 0);
  int failures = 0;
  bool sender_done = false;
  env.run([&](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      // Three concurrent senders all park in ensure_connected on the same
      // handshake; every one of them must observe the failure.
      for (int i = 0; i < 3; ++i) {
        c.engine().spawn([](Conduit& c, int& failures) -> sim::Task<> {
          try {
            co_await c.am_send(1, 20, std::vector<std::byte>(4));
          } catch (const std::runtime_error&) {
            ++failures;
          }
        }(c, failures));
      }
      while (failures < 3) co_await c.engine().delay(sim::msec);
      EXPECT_EQ(c.stats().counter("conn_failures"), 1);
      // The slot returned to Idle: a later call may retry from scratch.
      EXPECT_EQ(c.peer_phase(1), PeerPhase::kIdle);
      drop_active = false;
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
      sender_done = true;
    } else {
      while (!sender_done) co_await c.engine().delay(sim::msec);
    }
  });
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(received[1], 1);
  // The messages swallowed by the failed handshake were never delivered.
  EXPECT_EQ(env.job.conduit(0).stats().counter("conn_failures"), 1);
}

// ---- retired QPs are reclaimed as drains resolve ----

TEST(Eviction, ChurnReclaimsRetiredQps) {
  // With cap 1 and a repeated sweep, every new connection retires the old
  // one. Before reclamation landed, retired_qps_ grew without bound until
  // finalize; now each drain resolution destroys the retired QP once its
  // work queue empties.
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
    co_await c.engine().delay(5 * sim::msec);  // drains + reclaims settle
    EXPECT_EQ(c.retired_qp_count(), 0u) << "rank " << c.rank();
    if (c.rank() == 0) {
      EXPECT_GT(c.stats().counter("qp_retired_reclaimed"), 0);
    }
  });
  int total = 0;
  for (RankId r = 1; r < 5; ++r) total += received[r];
  EXPECT_EQ(total, 3 * 4);
  EXPECT_GT(env.job.conduit(0).stats().counter("conn_evictions"), 0);
}

// ---- stale disconnect notices across connection epochs ----

TEST(Eviction, StaleNoticeFromResolvedEpochIsDropped) {
  // Mutual churn at cap 1 under 50 % UD loss: a disconnect notice can
  // arrive while the receiver is still Requesting, and by the time its
  // handshake completes, the evictor has already resolved that drain
  // through the re-request-as-ack path and served a *new* connection.
  // Honoring the stale notice then tore down the fresh epoch on one side
  // only; the divergent peer kept resending a stale cached reply and every
  // message toward the reclaimed QP vanished — a hang. The notice now
  // carries the QPN of the epoch it drains and is dropped on mismatch.
  // All five seeds deadlocked before the fix and each exercises at least
  // one stale-notice drop after it.
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
      for (int round = 0; round < 2; ++round) {
        co_await c.am_send((c.rank() + 1) % 3, 20,
                           std::vector<std::byte>(4));
        co_await c.am_send((c.rank() + 2) % 3, 20,
                           std::vector<std::byte>(4));
      }
      co_await c.barrier_global();
    });
    std::int64_t stale_dropped = 0;
    for (RankId r = 0; r < 3; ++r) {
      EXPECT_EQ(received[r], 4) << "seed " << seed << " rank " << r;
      stale_dropped +=
          env.job.conduit(r).stats().counter("conn_stale_notices_dropped");
    }
    EXPECT_GT(stale_dropped, 0)
        << "seed " << seed << ": scenario no longer exercises the guard";
  }
}

// ---- event-count budget under cap pressure ----

TEST(CapPressure, StepCountBudgetHolds) {
  // A rank-0 sweep over 255 peers with cap 32 evicts on nearly every
  // establishment. The O(N)-scan implementation did the same work in the
  // same number of engine events but burned host time inside them; this
  // budget instead guards the event count itself against accidental
  // per-connection polling loops or timer storms (~55 events per rank
  // today, with headroom to 80).
  constexpr std::uint32_t kRanks = 256;
  ConduitConfig conduit = capped(32);
  JobEnv env(small_job(kRanks, kRanks, conduit));
  std::vector<int> received(kRanks, 0);
  env.run([&received](Conduit& c) -> sim::Task<> {
    register_sink(c, received);
    co_await c.init();
    if (c.rank() == 0) {
      for (RankId peer = 1; peer < kRanks; ++peer) {
        co_await c.am_send(peer, 20, std::vector<std::byte>(8));
      }
    }
  });
  int total = 0;
  for (RankId r = 1; r < kRanks; ++r) total += received[r];
  EXPECT_EQ(total, static_cast<int>(kRanks) - 1);
  EXPECT_LE(env.job.conduit(0).connected_peer_count(), 32u);
  EXPECT_GT(env.job.conduit(0).stats().counter("conn_evictions"), 0);
  EXPECT_LE(env.engine.events_executed(), 80u * kRanks);
}

}  // namespace
}  // namespace odcm::core
