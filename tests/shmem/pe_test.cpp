// Tests for ShmemPe: initialization paths, put/get, atomics, ordering.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

TEST(StartPes, RecordsPhaseBreakdown) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
  for (RankId r = 0; r < 4; ++r) {
    sim::StatSet& st = env.job.pe(r).stats();
    EXPECT_GT(st.phase_time("shared_memory_setup"), 0u);
    EXPECT_GT(st.phase_time("memory_registration"), 0u);
    EXPECT_GT(st.phase_time("init_barrier"), 0u);
    EXPECT_GT(st.phase_time("init_other"), 0u);
    EXPECT_GT(st.phase_time("start_pes_total"), 0u);
    // Proposed design: PMI exchange off the critical path.
    EXPECT_LT(st.phase_time("pmi_exchange"), 100 * sim::usec);
  }
}

TEST(StartPes, DoubleInitThrows) {
  JobEnv env(small_job(2, 2));
  env.job.spawn_all([](ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    co_await pe.start_pes();
  });
  EXPECT_THROW(env.engine.run(), std::logic_error);
}

TEST(StartPes, StaticDesignSlowerThanProposed) {
  auto makespan = [](core::ConduitConfig conduit) {
    JobEnv env(small_job(32, 8, conduit));
    env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
    return env.engine.now();
  };
  EXPECT_GT(makespan(core::current_design()),
            makespan(core::proposed_design()));
}

TEST(StartPes, ModeledHeapChargesExtraRegistration) {
  ShmemJobConfig small = small_job(2, 2);
  ShmemJobConfig big = small_job(2, 2);
  big.shmem.modeled_heap_bytes = 64 << 20;
  auto reg_time = [](ShmemJobConfig config) {
    JobEnv env(config);
    env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
    return env.job.pe(0).stats().phase_time("memory_registration");
  };
  EXPECT_GT(reg_time(big), 10 * reg_time(small));
}

TEST(ShmemJob, HeapAboveSegmentStrideRejected) {
  // A heap past the segment stride would overlap the PE's landing
  // segment 1, so a misdirected RDMA would no longer fault.
  ShmemJobConfig config = small_job(2, 2);
  config.shmem.heap_bytes = fabric::kSegmentStride + 1;
  sim::Engine engine;
  EXPECT_THROW(ShmemJob(engine, config), std::invalid_argument);
}

TEST(StartPes, SegmentTripletsFollowContact) {
  // Proposed design, eager registration: a PE learns a far peer's triplet
  // only from the handshake its first put drives, and nothing else.
  {
    JobEnv env(small_job(16, 4));
    env.run(with_init([&env](ShmemPe& pe) -> sim::Task<> {
      if (pe.rank() != 0) co_return;
      constexpr RankId kFar = 13;
      constexpr RankId kUntouched = 10;
      EXPECT_EQ(pe.known_segment(0), env.job.pe(0).known_segment(0));
      EXPECT_TRUE(pe.known_segment(0).has_value());
      EXPECT_FALSE(pe.known_segment(kFar).has_value());
      co_await pe.put_value<std::uint64_t>(kFar, 0, 7);
      EXPECT_TRUE(pe.known_segment(kFar).has_value());
      EXPECT_EQ(pe.known_segment(kFar), env.job.pe(kFar).known_segment(kFar));
      EXPECT_FALSE(pe.known_segment(kUntouched).has_value());
    }));
  }
  // Current design, on both sides of the bulk-connect threshold: after
  // start_pes every peer's triplet is its owner's own.
  for (std::uint32_t threshold : {512u, 4u}) {
    SCOPED_TRACE(threshold);
    core::ConduitConfig conduit = core::current_design();
    conduit.bulk_connect_threshold = threshold;
    JobEnv env(small_job(6, 2, conduit));
    env.run(with_init([&env](ShmemPe& pe) -> sim::Task<> {
      for (RankId r = 0; r < pe.n_pes(); ++r) {
        EXPECT_TRUE(pe.known_segment(r).has_value());
        EXPECT_EQ(pe.known_segment(r), env.job.pe(r).known_segment(r));
      }
      co_return;
    }));
  }
}

TEST(PutGet, RemoteRoundTrip) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(64);
    EXPECT_EQ(slot, 0u);  // symmetric across PEs
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
      // The data must actually be in PE 1's heap.
      EXPECT_EQ(pe.local_read<std::uint8_t>(slot + 1), 3u);
    }
  }));
}

TEST(PutGet, SelfTransfersAreLocal) {
  JobEnv env(small_job(2, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    co_await pe.put_value<std::uint64_t>(pe.rank(), slot, 4242);
    std::uint64_t value = co_await pe.get_value<std::uint64_t>(pe.rank(), slot);
    EXPECT_EQ(value, 4242u);
    // Self traffic creates no connections (checked before the finalize
    // barrier, which legitimately connects the tree).
    EXPECT_EQ(pe.communicating_peers(), 0u);
  }));
}

TEST(PutGet, TypedHelpers) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(16);
    if (pe.rank() == 0) {
      co_await pe.put_value<double>(1, slot, 2.5);
      co_await pe.put_value<std::int32_t>(1, slot + 8, -7);
      double d = co_await pe.get_value<double>(1, slot);
      std::int32_t i = co_await pe.get_value<std::int32_t>(1, slot + 8);
      EXPECT_EQ(d, 2.5);
      EXPECT_EQ(i, -7);
    }
    co_await pe.barrier_all();
  }));
}

TEST(PutGet, OutOfHeapThrows) {
  JobEnv env(small_job(2, 1));
  env.job.spawn_all(with_init([](ShmemPe& pe) -> sim::Task<> {
    if (pe.rank() == 0) {
      std::vector<std::byte> data(32);
      co_await pe.put(1, (1 << 16) - 8, data);  // runs past heap end
    }
    co_await pe.barrier_all();
  }));
  EXPECT_THROW(env.engine.run(), std::out_of_range);
}

TEST(PutNbi, QuietDrainsAll) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8 * 16);
    if (pe.rank() == 0) {
      for (std::uint64_t i = 0; i < 16; ++i) {
        std::vector<std::byte> data(8);
        std::memcpy(data.data(), &i, 8);
        pe.put_nbi(1, slot + i * 8, data);
      }
      co_await pe.quiet();
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(slot + i * 8), i);
      }
    }
  }));
}

TEST(GetNbi, QuietCompletesAll) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8 * 16);
    if (pe.rank() == 1) {
      for (std::uint64_t i = 0; i < 16; ++i) {
        pe.local_write<std::uint64_t>(slot + i * 8, i * 7);
      }
    }
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      std::vector<std::uint64_t> dest(16, 0);
      for (std::uint64_t i = 0; i < 16; ++i) {
        pe.get_nbi(1, slot + i * 8,
                   std::as_writable_bytes(std::span(&dest[i], 1)));
      }
      // Until quiet() the values are undefined; after it, all must have
      // landed.
      co_await pe.quiet();
      for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(dest[i], i * 7);
      }
    }
    co_await pe.barrier_all();
  }));
}

TEST(Atomics, FullPaperSet) {
  // fadd, finc, add, inc, cswap, swap — the six of Fig 6(c).
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr counter = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(counter, 0);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      std::uint64_t old = co_await pe.atomic_fetch_add(1, counter, 5);
      EXPECT_EQ(old, 0u);
      old = co_await pe.atomic_fetch_inc(1, counter);
      EXPECT_EQ(old, 5u);
      co_await pe.atomic_add(1, counter, 4);
      co_await pe.atomic_inc(1, counter);
      old = co_await pe.atomic_swap(1, counter, 100);
      EXPECT_EQ(old, 11u);
      old = co_await pe.atomic_compare_swap(1, counter, 100, 200);
      EXPECT_EQ(old, 100u);
      old = co_await pe.atomic_compare_swap(1, counter, 100, 300);
      EXPECT_EQ(old, 200u);  // mismatch: no change
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(counter), 200u);
    }
  }));
}

TEST(Atomics, SelfAtomicsWork) {
  JobEnv env(small_job(1, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr counter = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(counter, 10);
    std::uint64_t old = co_await pe.atomic_fetch_add(0, counter, 1);
    EXPECT_EQ(old, 10u);
    old = co_await pe.atomic_swap(0, counter, 5);
    EXPECT_EQ(old, 11u);
    old = co_await pe.atomic_compare_swap(0, counter, 5, 6);
    EXPECT_EQ(old, 5u);
    EXPECT_EQ(pe.local_read<std::uint64_t>(counter), 6u);
  }));
}

TEST(Atomics, ConcurrentIncrementsFromManyPes) {
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 4));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr counter = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(counter, 0);
    co_await pe.barrier_all();
    for (int i = 0; i < 10; ++i) {
      co_await pe.atomic_inc(0, counter);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(counter), kRanks * 10u);
    }
  }));
}

TEST(WaitUntil, FlagSignaling) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr flag = pe.heap().allocate(8);
    SymAddr data = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(flag, 0);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      co_await pe.engine().delay(500 * sim::usec);
      co_await pe.put_value<std::uint64_t>(1, data, 777);
      co_await pe.put_value<std::uint64_t>(1, flag, 1);
    } else {
      co_await pe.wait_until(flag, WaitCmp::kEq, 1);
      EXPECT_EQ(pe.local_read<std::uint64_t>(data), 777u);
    }
  }));
}

TEST(WaitUntil, AllComparisons) {
  JobEnv env(small_job(1, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr v = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(v, 10);
    co_await pe.wait_until(v, WaitCmp::kEq, 10);
    co_await pe.wait_until(v, WaitCmp::kNe, 9);
    co_await pe.wait_until(v, WaitCmp::kGt, 9);
    co_await pe.wait_until(v, WaitCmp::kGe, 10);
    co_await pe.wait_until(v, WaitCmp::kLt, 11);
    co_await pe.wait_until(v, WaitCmp::kLe, 10);
  }));
}

TEST(StaticDesign, SegmentExchangeViaActiveMessages) {
  // In the current (static) design the triplets travel over AMs after the
  // mesh is up; puts must work right after start_pes.
  JobEnv env(small_job(4, 2, core::current_design()));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    RankId dst = (pe.rank() + 1) % 4;
    co_await pe.put_value<std::uint64_t>(dst, slot, 1000 + pe.rank());
    co_await pe.barrier_all();
    RankId src = (pe.rank() + 3) % 4;
    EXPECT_EQ(pe.local_read<std::uint64_t>(slot), 1000u + src);
    EXPECT_GT(pe.stats().phase_time("segment_exchange"), 0u);
  }));
}

TEST(OnDemand, PiggybackMakesRdmaPossibleImmediately) {
  // First operation to a fresh peer is RDMA-capable the instant the
  // connection exists: no separate segment exchange messages.
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    if (pe.rank() == 0) {
      co_await pe.put_value<std::uint64_t>(1, slot, 99);
    }
    co_await pe.barrier_all();
  }));
  // Only the connection itself and the barrier AMs flowed; no segment AMs.
  EXPECT_EQ(env.job.pe(1).stats().phase_time("segment_exchange"), 0u);
  EXPECT_EQ(env.job.pe(0).communicating_peers(), 1u);
}

TEST(Finalize, HelloWorldEstablishesOnlyBarrierConnections) {
  JobEnv env(small_job(16, 4));
  env.run(with_init([](ShmemPe&) -> sim::Task<> { co_return; }));
  for (RankId r = 0; r < 16; ++r) {
    // Fanout-4 barrier tree: parent + up to 4 children.
    EXPECT_LE(env.job.pe(r).communicating_peers(), 5u) << "rank " << r;
  }
}

TEST(Determinism, FullStackReproducible) {
  auto run_once = [] {
    JobEnv env(small_job(8, 4));
    env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
      SymAddr slot = pe.heap().allocate(64);
      std::vector<std::byte> data(64, std::byte{1});
      co_await pe.put((pe.rank() + 1) % 8, slot, data);
      co_await pe.barrier_all();
    }));
    return env.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::shmem
