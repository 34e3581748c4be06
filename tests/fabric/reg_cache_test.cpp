// Unit tests for the chunked pin-down cache (RegistrationCache) and the
// initiator-side rkey table (RkeyTable): chunk geometry, fault coalescing,
// LRU eviction under a pin cap, the ack-gated deregistration drain with
// epoch-guarded stale-ack rejection, and the tombstone rule that keeps a
// revoked rkey from ever being resurrected by a late grant.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "test_util.hpp"

namespace odcm::fabric::reg {
namespace {

constexpr std::uint64_t kHeap = 1 << 16;   // 64 KiB
constexpr std::uint64_t kChunk = 24576;    // 3 chunks, last one partial

struct RegEnv : testutil::Env {
  explicit RegEnv(RegCacheConfig config = {.chunk_bytes = kChunk})
      : space(0, make_va_base(0), kHeap),
        cache(fabric.hca(0), space, config, stats) {}

  AddressSpace space;
  sim::StatSet stats;
  RegistrationCache cache;
};

/// Records every EventFn callback for order assertions.
struct EventLog {
  struct Entry {
    RegEvent event;
    std::uint32_t chunk;
    RKey rkey;
    RankId peer;
  };
  std::vector<Entry> entries;

  void attach(RegistrationCache& cache) {
    cache.set_event_fn([this](RegEvent event, std::uint32_t chunk, RKey rkey,
                              RankId peer) {
      entries.push_back({event, chunk, rkey, peer});
    });
  }
};

TEST(RegCacheGeometry, PartialLastChunk) {
  RegEnv env;
  EXPECT_EQ(env.cache.chunk_count(), 3u);
  EXPECT_EQ(env.cache.chunk_of(0), 0u);
  EXPECT_EQ(env.cache.chunk_of(kChunk - 1), 0u);
  EXPECT_EQ(env.cache.chunk_of(kChunk), 1u);
  EXPECT_EQ(env.cache.chunk_base(1), env.space.base() + kChunk);
  EXPECT_EQ(env.cache.chunk_len(0), kChunk);
  EXPECT_EQ(env.cache.chunk_len(1), kChunk);
  // 64 KiB - 2 * 24 KiB = 16 KiB tail.
  EXPECT_EQ(env.cache.chunk_len(2), kHeap - 2 * kChunk);
}

TEST(RegCacheGeometry, RejectsBadConfig) {
  testutil::Env env;
  AddressSpace space(0, make_va_base(0), kHeap);
  sim::StatSet stats;
  EXPECT_THROW(RegistrationCache(env.fabric.hca(0), space,
                                 {.chunk_bytes = 0}, stats),
               std::invalid_argument);
  EXPECT_THROW(RegistrationCache(env.fabric.hca(0), space,
                                 {.chunk_bytes = 4100}, stats),
               std::invalid_argument);
  // Cap smaller than one chunk can never admit a registration.
  EXPECT_THROW(
      RegistrationCache(env.fabric.hca(0), space,
                        {.chunk_bytes = kChunk, .pinned_max_bytes = 8}, stats),
      std::invalid_argument);
}

TEST(RegCache, MissRegistersThenHits) {
  RegEnv env;
  env.engine.spawn([](RegEnv& e) -> sim::Task<> {
    MemoryRegion first = co_await e.cache.acquire(0, 1);
    EXPECT_NE(first.rkey, 0u);
    EXPECT_EQ(first.addr, e.cache.chunk_base(0));
    EXPECT_EQ(first.size, kChunk);
    MemoryRegion again = co_await e.cache.acquire(0, 1);
    EXPECT_EQ(again.rkey, first.rkey);
  }(env));
  env.engine.run();

  EXPECT_EQ(env.stats.counter("reg_chunk_misses"), 1);
  EXPECT_EQ(env.stats.counter("reg_chunk_hits"), 1);
  EXPECT_EQ(env.cache.chunk_phase(0), ChunkPhase::kPinned);
  EXPECT_EQ(env.cache.pinned_bytes(), kChunk);
  EXPECT_EQ(env.cache.pinned_highwater(), kChunk);
  // Registration paid virtual time, and the hit path paid none extra.
  EXPECT_GT(env.stats.phase_time("lazy_registration"), 0u);
}

TEST(RegCache, ConcurrentFaultsCoalesceOntoOneRegistration) {
  RegEnv env;
  RKey seen_a = 0;
  RKey seen_b = 0;
  env.engine.spawn([](RegEnv& e, RKey& out) -> sim::Task<> {
    out = (co_await e.cache.acquire(1, 2)).rkey;
  }(env, seen_a));
  env.engine.spawn([](RegEnv& e, RKey& out) -> sim::Task<> {
    out = (co_await e.cache.acquire(1, 3)).rkey;
  }(env, seen_b));
  env.engine.run();

  EXPECT_NE(seen_a, 0u);
  EXPECT_EQ(seen_a, seen_b);
  // Exactly one registration: the loser parked on the settle trigger and
  // re-checked, which counts as a hit, not a second miss.
  EXPECT_EQ(env.stats.counter("reg_chunk_misses"), 1);
  EXPECT_EQ(env.stats.counter("reg_chunk_hits"), 1);
  EXPECT_EQ(env.cache.pinned_bytes(), kChunk);
}

TEST(RegCache, EvictsLeastRecentlyUsedAndDrainsBeforeDereg) {
  // Cap of two chunks; acquiring a third must drain the LRU victim.
  RegEnv env({.chunk_bytes = kChunk, .pinned_max_bytes = 2 * kChunk});
  EventLog log;
  log.attach(env.cache);

  // The "wire": record every invalidation and deliver the matching ack
  // 1 µs later, after asserting the ack-gated drain held the registration.
  std::vector<std::pair<std::uint32_t, RKey>> invalidations;
  std::vector<std::vector<RankId>> sharer_sets;
  env.cache.set_invalidate_fn(
      [&env, &invalidations, &sharer_sets](
          std::uint32_t chunk, RKey rkey,
          std::vector<RankId> sharers) -> sim::Task<> {
        invalidations.emplace_back(chunk, rkey);
        sharer_sets.push_back(std::move(sharers));
        sim::spawn_discard(
            env.engine,
            [](RegEnv& e, std::uint32_t c, RKey r) -> sim::Task<> {
              EXPECT_EQ(e.cache.chunk_phase(c), ChunkPhase::kDraining);
              EXPECT_EQ(e.stats.counter("reg_deregistrations"), 0);
              EXPECT_NE(e.fabric.hca(0).resolve(e.cache.chunk_base(c), r, 8),
                        std::nullopt);
              co_await e.engine.delay(1000);
              e.cache.on_invalidate_ack(c, r, 1);
              EXPECT_EQ(e.cache.chunk_phase(c), ChunkPhase::kCold);
              EXPECT_EQ(e.fabric.hca(0).resolve(e.cache.chunk_base(c), r, 8),
                        std::nullopt);
            }(env, chunk, rkey));
        co_return;
      });

  RKey rkey1 = 0;
  env.engine.spawn([](RegEnv& e, RKey& victim) -> sim::Task<> {
    co_await e.cache.acquire(0, 1);
    victim = (co_await e.cache.acquire(1, 1)).rkey;
    // Touch chunk 0 again so chunk 1 becomes the LRU victim.
    co_await e.cache.acquire(0, 2);
    co_await e.cache.acquire(2, 1);
  }(env, rkey1));
  env.engine.run();

  // Chunk 1 was evicted and one invalidation went to its sole sharer.
  ASSERT_EQ(invalidations.size(), 1u);
  EXPECT_EQ(invalidations[0].first, 1u);
  EXPECT_EQ(invalidations[0].second, rkey1);
  ASSERT_EQ(sharer_sets.size(), 1u);
  EXPECT_EQ(sharer_sets[0], std::vector<RankId>{1});
  EXPECT_EQ(env.stats.counter("reg_evictions"), 1);
  EXPECT_EQ(env.stats.counter("reg_deregistrations"), 1);
  EXPECT_EQ(env.cache.chunk_phase(1), ChunkPhase::kCold);
  EXPECT_EQ(env.cache.chunk_phase(2), ChunkPhase::kPinned);
  // Pinned accounting returned under the cap; high-water saw the peak.
  EXPECT_EQ(env.cache.pinned_bytes(), kChunk + env.cache.chunk_len(2));
  EXPECT_EQ(env.cache.pinned_highwater(), 2 * kChunk);

  // Event order: pin(0), pin(1) (the re-acquire of 0 was a hit — no
  // event), then evict(1), dereg(1) after the ack, and finally the pin of
  // chunk 2 that was waiting on the freed budget.
  ASSERT_EQ(log.entries.size(), 5u);
  EXPECT_EQ(log.entries[2].event, RegEvent::kEvicted);
  EXPECT_EQ(log.entries[2].chunk, 1u);
  EXPECT_EQ(log.entries[3].event, RegEvent::kDeregistered);
  EXPECT_EQ(log.entries[3].chunk, 1u);
  EXPECT_EQ(log.entries[4].event, RegEvent::kPinned);
  EXPECT_EQ(log.entries[4].chunk, 2u);
}

TEST(RegCache, StaleAckIsCountedAndDropped) {
  RegEnv env({.chunk_bytes = kChunk, .pinned_max_bytes = kChunk});
  env.cache.set_invalidate_fn(
      [](std::uint32_t, RKey, std::vector<RankId>) -> sim::Task<> {
        co_return;
      });

  env.engine.spawn([](RegEnv& e) -> sim::Task<> {
    RKey rkey0 = (co_await e.cache.acquire(0, 1)).rkey;
    // The delayed acker observes the drain started by the over-cap fault
    // below, feeds it a wrong-epoch ack first, then the real one.
    sim::spawn_discard(e.engine, [](RegEnv& e2, RKey r) -> sim::Task<> {
      co_await e2.engine.delay(10);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kDraining);

      // Wrong rkey: a stale ack from an earlier epoch must not complete
      // the drain (epoch guard — mirrors the conduit's disconnect
      // notices).
      e2.cache.on_invalidate_ack(0, r + 1000, 1);
      EXPECT_EQ(e2.stats.counter("reg_stale_acks"), 1);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kDraining);

      e2.cache.on_invalidate_ack(0, r, 1);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kCold);

      // A second ack after the drain completed is equally stale.
      e2.cache.on_invalidate_ack(0, r, 1);
      EXPECT_EQ(e2.stats.counter("reg_stale_acks"), 2);
    }(e, rkey0));
    // Over-cap: drains chunk 0, parking this fault until the real ack.
    co_await e.cache.acquire(1, 2);
  }(env));
  env.engine.run();

  EXPECT_EQ(env.cache.chunk_phase(0), ChunkPhase::kCold);
  EXPECT_EQ(env.cache.chunk_phase(1), ChunkPhase::kPinned);
  EXPECT_EQ(env.stats.counter("reg_stale_acks"), 2);
}

TEST(RegCache, DrainWaitsForEverySharer) {
  RegEnv env({.chunk_bytes = kChunk, .pinned_max_bytes = kChunk});
  env.cache.set_invalidate_fn(
      [](std::uint32_t, RKey, std::vector<RankId>) -> sim::Task<> {
        co_return;
      });

  env.engine.spawn([](RegEnv& e) -> sim::Task<> {
    RKey rkey0 = (co_await e.cache.acquire(0, 1)).rkey;
    e.cache.add_sharer(0, 2);  // handshake piggyback handed out the rkey
    sim::spawn_discard(e.engine, [](RegEnv& e2, RKey r) -> sim::Task<> {
      co_await e2.engine.delay(10);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kDraining);
      // One ack of two: the drain must keep holding the registration.
      e2.cache.on_invalidate_ack(0, r, 1);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kDraining);
      EXPECT_EQ(e2.stats.counter("reg_deregistrations"), 0);
      e2.cache.on_invalidate_ack(0, r, 2);
      EXPECT_EQ(e2.cache.chunk_phase(0), ChunkPhase::kCold);
      EXPECT_EQ(e2.stats.counter("reg_deregistrations"), 1);
    }(e, rkey0));
    co_await e.cache.acquire(1, 3);
  }(env));
  env.engine.run();

  EXPECT_EQ(env.cache.chunk_phase(1), ChunkPhase::kPinned);
  EXPECT_EQ(env.stats.counter("reg_deregistrations"), 1);
}

TEST(RegCache, QuiesceWaitsForInFlightDrain) {
  RegEnv env({.chunk_bytes = kChunk, .pinned_max_bytes = kChunk});
  env.cache.set_invalidate_fn(
      [&env](std::uint32_t chunk, RKey rkey,
             std::vector<RankId>) -> sim::Task<> {
        // Simulate the wire round trip: ack arrives 500 ns later.
        co_await env.engine.delay(500);
        env.cache.on_invalidate_ack(chunk, rkey, 1);
      });

  bool quiesced = false;
  env.engine.spawn([](RegEnv& e, bool& done) -> sim::Task<> {
    co_await e.cache.acquire(0, 1);
    sim::spawn_discard(e.engine, [](RegEnv& env2) -> sim::Task<> {
      co_await env2.cache.acquire(1, 1);
    }(e));
    // Let the spawned fault start its eviction drain before quiescing.
    co_await e.engine.delay(1);
    co_await e.cache.quiesce();
    EXPECT_NE(e.cache.chunk_phase(0), ChunkPhase::kDraining);
    EXPECT_NE(e.cache.chunk_phase(1), ChunkPhase::kRegistering);
    done = true;
  }(env, quiesced));
  env.engine.run();

  EXPECT_TRUE(quiesced);
  EXPECT_EQ(env.cache.chunk_phase(0), ChunkPhase::kCold);
  EXPECT_EQ(env.cache.chunk_phase(1), ChunkPhase::kPinned);
}

TEST(RegCache, ModeledBytesScaleChunkCostToEagerTotal) {
  // Registering every chunk under modeled_bytes == N * heap must cost the
  // same virtual time as one eager registration of the modeled heap.
  RegEnv plain({.chunk_bytes = kChunk});
  RegEnv modeled({.chunk_bytes = kChunk, .modeled_bytes = 4 * kHeap});
  auto pin_all = [](RegEnv& e) {
    e.engine.spawn([](RegEnv& env2) -> sim::Task<> {
      for (std::uint32_t c = 0; c < env2.cache.chunk_count(); ++c) {
        co_await env2.cache.acquire(c, 1);
      }
    }(e));
    e.engine.run();
  };
  pin_all(plain);
  pin_all(modeled);
  EXPECT_GT(modeled.stats.phase_time("lazy_registration"),
            plain.stats.phase_time("lazy_registration"));
}

// ---- RkeyTable ----------------------------------------------------------

TEST(RkeyTable, InstallInvalidateAndTombstone) {
  sim::Engine engine;
  RkeyTable table(engine);

  EXPECT_EQ(table.rkey(1, 0), 0u);
  EXPECT_TRUE(table.install(1, 0, 77));
  EXPECT_EQ(table.rkey(1, 0), 77u);

  // Epoch mismatch: the notice names an rkey we do not hold — the cached
  // entry survives, but the named rkey is tombstoned forever.
  EXPECT_FALSE(table.invalidate(1, 0, 76));
  EXPECT_EQ(table.rkey(1, 0), 77u);
  EXPECT_FALSE(table.install(1, 0, 76));

  // Matching notice clears the entry.
  EXPECT_TRUE(table.invalidate(1, 0, 77));
  EXPECT_EQ(table.rkey(1, 0), 0u);

  // A late grant of the revoked rkey (e.g. a lossy-UD handshake piggyback
  // finally delivered) must be refused, not resurrected.
  EXPECT_FALSE(table.install(1, 0, 77));
  EXPECT_EQ(table.rkey(1, 0), 0u);

  // Same rkey value toward a *different* peer is a distinct key domain.
  EXPECT_TRUE(table.install(2, 0, 77));
  EXPECT_EQ(table.rkey(2, 0), 77u);
}

TEST(RkeyTable, TombstoneBeatsLateGrant) {
  sim::Engine engine;
  RkeyTable table(engine);

  // Extreme peers and chunks must not alias in the packed entry key.
  constexpr RankId kMaxPeer = 0xffffffffU;
  constexpr std::uint32_t kMaxChunk = 0xffffffffU;
  EXPECT_TRUE(table.install(0, kMaxChunk, 11));
  EXPECT_TRUE(table.install(kMaxPeer, 0, 12));
  EXPECT_TRUE(table.install(kMaxPeer, kMaxChunk, 13));
  EXPECT_TRUE(table.install(1, 0, 14));
  EXPECT_EQ(table.rkey(0, kMaxChunk), 11u);
  EXPECT_EQ(table.rkey(kMaxPeer, 0), 12u);
  EXPECT_EQ(table.rkey(kMaxPeer, kMaxChunk), 13u);
  EXPECT_EQ(table.rkey(1, 0), 14u);
  EXPECT_EQ(table.rkey(0, 0), 0u);

  // A fault is in flight when the invalidation of the rkey it will be
  // granted arrives first; the late grant must lose to the tombstone and
  // still wake the parked RMA so it can re-fault.
  table.begin_fault(7, 3);
  bool woken = false;
  engine.spawn([](RkeyTable& t, bool& done) -> sim::Task<> {
    co_await t.wait_fault(7, 3);
    done = true;
  }(table, woken));
  EXPECT_FALSE(table.invalidate(7, 3, 55));  // nothing cached yet
  engine.spawn([](sim::Engine& e, RkeyTable& t) -> sim::Task<> {
    co_await e.delay(100);
    EXPECT_FALSE(t.install(7, 3, 55));
  }(engine, table));
  engine.run();
  EXPECT_TRUE(woken);
  EXPECT_FALSE(table.fault_in_flight(7, 3));
  EXPECT_EQ(table.rkey(7, 3), 0u);

  // The tombstone is per (peer, rkey): dead for every chunk of peer 7,
  // live toward any other peer.
  EXPECT_FALSE(table.install(7, 4, 55));
  EXPECT_EQ(table.rkey(7, 4), 0u);
  EXPECT_TRUE(table.install(8, 3, 55));
  EXPECT_EQ(table.rkey(8, 3), 55u);
  // A fresh rkey for the same chunk installs normally.
  EXPECT_TRUE(table.install(7, 3, 56));
  EXPECT_EQ(table.rkey(7, 3), 56u);
}

TEST(RkeyTable, FaultCoalescingGate) {
  sim::Engine engine;
  RkeyTable table(engine);

  EXPECT_FALSE(table.fault_in_flight(1, 0));
  table.begin_fault(1, 0);
  EXPECT_TRUE(table.fault_in_flight(1, 0));

  int woken = 0;
  engine.spawn([](RkeyTable& t, int& n) -> sim::Task<> {
    co_await t.wait_fault(1, 0);
    ++n;
  }(table, woken));
  engine.spawn([](RkeyTable& t, int& n) -> sim::Task<> {
    co_await t.wait_fault(1, 0);
    ++n;
  }(table, woken));
  engine.spawn([](sim::Engine& e, RkeyTable& t) -> sim::Task<> {
    co_await e.delay(100);
    EXPECT_TRUE(t.install(1, 0, 42));
  }(engine, table));
  engine.run();

  EXPECT_EQ(woken, 2);
  EXPECT_FALSE(table.fault_in_flight(1, 0));
  EXPECT_EQ(table.rkey(1, 0), 42u);

  // abort_fault also releases waiters (send-failure path).
  table.begin_fault(1, 1);
  bool released = false;
  engine.spawn([](RkeyTable& t, bool& done) -> sim::Task<> {
    co_await t.wait_fault(1, 1);
    done = true;
  }(table, released));
  table.abort_fault(1, 1);
  engine.run();
  EXPECT_TRUE(released);
  EXPECT_EQ(table.rkey(1, 1), 0u);
}

TEST(RkeyTable, LeaseDrainGatesInvalidationAck) {
  sim::Engine engine;
  RkeyTable table(engine);
  ASSERT_TRUE(table.install(1, 0, 9));

  bool drained = false;
  engine.spawn([](sim::Engine& eng, RkeyTable& t, bool& done) -> sim::Task<> {
    RkeyLease first(t, 1, 0);
    RkeyLease second(t, 1, 0);
    EXPECT_EQ(t.leases(1, 0), 2u);
    sim::spawn_discard(eng, [](RkeyTable& t2, bool& d) -> sim::Task<> {
      co_await t2.wait_unleased(1, 0);
      d = true;
    }(t, done));
    co_await eng.delay(10);
    EXPECT_FALSE(done);  // two leases still held
    second.release();
    co_await eng.delay(10);
    EXPECT_FALSE(done);  // one lease still held
    first.release();
    co_await eng.delay(10);
    EXPECT_TRUE(done);
  }(engine, table, drained));
  engine.run();
  EXPECT_TRUE(drained);
  EXPECT_EQ(table.leases(1, 0), 0u);

  EXPECT_THROW(table.unlease(1, 0), std::logic_error);

  // Moved-from leases do not double-release.
  RkeyLease a(table, 1, 0);
  RkeyLease b(std::move(a));
  EXPECT_EQ(table.leases(1, 0), 1u);
  b.release();
  EXPECT_EQ(table.leases(1, 0), 0u);
}

}  // namespace
}  // namespace odcm::fabric::reg
