// End-to-end tests for on-demand memory registration (`registration =
// kOnDemand`): correctness of put/get/atomics through the rkey-fault
// protocol, the startup-cost shift from eager whole-heap pin-down to lazy
// per-chunk faults, handshake piggybacking of the hot-chunk table, LRU
// eviction under a tiny pin cap, and acceptance of a full run by the
// protocol invariant checker.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/invariants.hpp"
#include "fabric/reg/registration_cache.hpp"
#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

constexpr std::uint64_t kChunk = 8192;  // 8 chunks of the 64 KiB test heap

ShmemJobConfig on_demand_job(std::uint32_t ranks, std::uint32_t ppn,
                             std::uint64_t cap = 0) {
  ShmemJobConfig config = small_job(ranks, ppn);
  config.shmem.registration = RegistrationMode::kOnDemand;
  config.shmem.reg_chunk_bytes = kChunk;
  config.shmem.reg_pinned_max_bytes = cap;
  return config;
}

TEST(OnDemandReg, PutGetRoundTrip) {
  JobEnv env(on_demand_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(64);
    if (pe.rank() == 0) {
      std::vector<std::byte> data(64);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i * 3);
      }
      co_await pe.put(1, slot, data);
      std::vector<std::byte> back(64);
      co_await pe.get(1, slot, back);
      EXPECT_EQ(back, data);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint8_t>(slot + 1), 3u);
    }
  }));

  // The target registered exactly the faulted chunk, not the whole heap.
  sim::StatSet& target = env.job.pe(1).stats();
  EXPECT_EQ(target.counter("reg_chunk_misses"), 1);
  EXPECT_GT(target.phase_time("lazy_registration"), 0u);
  fabric::reg::RegistrationCache* cache = env.job.pe(1).registration_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->pinned_bytes(), kChunk);

  // The initiator faulted once; the get reused the cached rkey.
  sim::StatSet& initiator = env.job.pe(0).stats();
  EXPECT_EQ(initiator.counter("reg_rkey_misses"), 1);
  EXPECT_GE(initiator.counter("reg_rkey_hits"), 1);
}

TEST(OnDemandReg, AtomicsRoundTrip) {
  JobEnv env(on_demand_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr counter = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(counter, 0);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      std::uint64_t old = co_await pe.atomic_fetch_add(1, counter, 5);
      EXPECT_EQ(old, 0u);
      old = co_await pe.atomic_swap(1, counter, 100);
      EXPECT_EQ(old, 5u);
      old = co_await pe.atomic_compare_swap(1, counter, 100, 200);
      EXPECT_EQ(old, 100u);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(counter), 200u);
    }
  }));
}

TEST(OnDemandReg, PutSpanningChunksFaultsEach) {
  JobEnv env(on_demand_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    // One put crossing the chunk 0 / chunk 1 boundary.
    SymAddr start = kChunk - 64;
    if (pe.rank() == 0) {
      std::vector<std::byte> data(128);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(255 - i);
      }
      co_await pe.put(1, start, data);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint8_t>(start), 255u);
      EXPECT_EQ(pe.local_read<std::uint8_t>(start + 127), 128u);
    }
  }));
  EXPECT_EQ(env.job.pe(1).stats().counter("reg_chunk_misses"), 2);
  EXPECT_EQ(env.job.pe(0).stats().counter("reg_rkey_misses"), 2);
}

TEST(OnDemandReg, StartupSkipsEagerRegistrationCost) {
  auto reg_time = [](ShmemJobConfig config) {
    JobEnv env(config);
    env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
    return env.job.pe(0).stats().phase_time("memory_registration");
  };
  sim::Time eager = reg_time(small_job(2, 1));
  sim::Time on_demand = reg_time(on_demand_job(2, 1));
  EXPECT_GT(eager, 0u);
  // This is the point of the subsystem: with no remote traffic, startup
  // pays zero pin-down time.
  EXPECT_EQ(on_demand, 0u);
}

TEST(OnDemandReg, HandshakePiggybackAvoidsRefault) {
  // PE 0 warms chunk 0 on PE 1; PE 2 connects to PE 1 only afterwards, so
  // the handshake's hot-chunk table hands PE 2 the chunk-0 rkey for free.
  JobEnv env(on_demand_job(3, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr flag = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(flag, 0);
    // No barrier before the signal chain: a barrier would connect
    // PE 2 <-> PE 1 before chunk 0 is pinned and defeat the piggyback.
    if (pe.rank() == 0) {
      co_await pe.put_value<std::uint64_t>(1, flag, 1);  // faults chunk 0
      co_await pe.quiet();
      co_await pe.put_value<std::uint64_t>(2, flag, 1);  // release PE 2
    } else if (pe.rank() == 2) {
      co_await pe.wait_until(flag, WaitCmp::kEq, 1);
      // First contact with PE 1: the connect handshake piggybacks PE 1's
      // hot-chunk table (chunk 0 is pinned by now). A put into chunk 1
      // triggers the connect; the follow-up into chunk 0 must hit.
      co_await pe.put_value<std::uint64_t>(1, kChunk + 16, 7);
      co_await pe.put_value<std::uint64_t>(1, flag + 8, 9);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(flag), 1u);
      EXPECT_EQ(pe.local_read<std::uint64_t>(flag + 8), 9u);
      EXPECT_EQ(pe.local_read<std::uint64_t>(kChunk + 16), 7u);
    }
  }));

  sim::StatSet& pe2 = env.job.pe(2).stats();
  EXPECT_EQ(pe2.counter("reg_rkey_misses"), 1);  // chunk 1 only
  EXPECT_GE(pe2.counter("reg_rkey_hits"), 1);    // chunk 0 via piggyback
  // PE 1 served exactly two faults: PE 0's chunk 0 and PE 2's chunk 1.
  EXPECT_EQ(env.job.pe(1).stats().counter("reg_faults_served"), 2);
}

TEST(OnDemandReg, TinyPinCapEvictsAndStaysCorrect) {
  // Cap = one chunk: every fault on a new chunk drains the previous one.
  JobEnv env(on_demand_job(2, 1, kChunk));
  constexpr int kRounds = 3;
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    if (pe.rank() == 0) {
      // Ping-pong between chunk 0 and chunk 4, forcing repeated
      // evict/re-pin cycles of both.
      for (int round = 0; round < kRounds; ++round) {
        co_await pe.put_value<std::uint64_t>(1, 0, 100 + round);
        co_await pe.put_value<std::uint64_t>(1, 4 * kChunk, 200 + round);
      }
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(0), 100u + kRounds - 1);
      EXPECT_EQ(pe.local_read<std::uint64_t>(4 * kChunk),
                200u + kRounds - 1);
    }
  }));

  sim::StatSet& target = env.job.pe(1).stats();
  EXPECT_GE(target.counter("reg_evictions"), 2 * kRounds - 2);
  EXPECT_EQ(target.counter("reg_evictions"),
            target.counter("reg_deregistrations"));
  fabric::reg::RegistrationCache* cache = env.job.pe(1).registration_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_LE(cache->pinned_highwater(), kChunk);
  // Every drain settled before finalize (quiesce ran).
  for (std::uint32_t c = 0; c < cache->chunk_count(); ++c) {
    EXPECT_NE(cache->chunk_phase(c), fabric::reg::ChunkPhase::kDraining);
    EXPECT_NE(cache->chunk_phase(c), fabric::reg::ChunkPhase::kRegistering);
  }
}

TEST(OnDemandReg, InvariantCheckerAcceptsFullRun) {
  // The checker cross-validates the whole kReg* event stream: rkey
  // liveness, pin-cap accounting, and no use after invalidation.
  ShmemJobConfig config = on_demand_job(4, 1, 2 * kChunk);
  JobEnv env(config);
  check::InvariantChecker::Options options;
  options.payloads_expected = true;
  options.ranks_per_node = 1;
  options.reg_chunk_bytes = kChunk;
  options.reg_pinned_max_bytes = 2 * kChunk;
  options.reg_heap_bytes = config.shmem.heap_bytes;
  check::InvariantChecker checker(options);
  env.job.conduit_job().add_observer(&checker);

  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8 * 4);
    co_await pe.barrier_all();
    // All-to-all scatter across three chunks per target.
    for (RankId peer = 0; peer < pe.n_pes(); ++peer) {
      if (peer == pe.rank()) continue;
      co_await pe.put_value<std::uint64_t>(peer, slot + 8 * pe.rank(),
                                           pe.rank() + 1);
      co_await pe.put_value<std::uint64_t>(
          peer, 3 * kChunk + 8 * pe.rank(), pe.rank() + 10);
      co_await pe.atomic_inc(peer, 6 * kChunk);
    }
    co_await pe.barrier_all();
    EXPECT_EQ(pe.local_read<std::uint64_t>(6 * kChunk), 3u);
  }));

  EXPECT_GT(checker.events_seen(), 0u);
  checker.check_final(env.job.conduit_job(), true);
}

}  // namespace
}  // namespace odcm::shmem
