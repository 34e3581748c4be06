// Tests for OpenSHMEM collectives: barrier_all, broadcast, fcollect, reduce.
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

TEST(BarrierAll, SynchronizesAllPes) {
  JobEnv env(small_job(8, 4));
  std::vector<sim::Time> passed(8, 0);
  env.run(with_init([&passed](ShmemPe& pe) -> sim::Task<> {
    if (pe.rank() == 3) {
      co_await pe.engine().delay(2 * sim::msec);
    }
    co_await pe.barrier_all();
    passed[pe.rank()] = pe.engine().now();
  }));
  for (RankId r = 0; r < 8; ++r) {
    EXPECT_GE(passed[r], 2 * sim::msec);
  }
}

TEST(BarrierAll, CompletesOutstandingNbiPuts) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    if (pe.rank() == 0) {
      std::uint64_t value = 31337;
      std::vector<std::byte> data(8);
      std::memcpy(data.data(), &value, 8);
      pe.put_nbi(1, slot, data);
      // barrier_all implies quiet: the put must land before anyone passes.
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(slot), 31337u);
    }
  }));
}

TEST(Broadcast, FromRootZero) {
  JobEnv env(small_job(8, 4));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(32);
    if (pe.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        pe.local_write<std::uint64_t>(buf + i * 8, 1000 + i);
      }
    }
    co_await pe.broadcast(0, buf, 32);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf + i * 8), 1000u + i);
    }
  }));
}

TEST(Broadcast, FromNonZeroRoot) {
  JobEnv env(small_job(6, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(buf, pe.rank());
    co_await pe.broadcast(4, buf, 8);
    EXPECT_EQ(pe.local_read<std::uint64_t>(buf), 4u);
  }));
}

TEST(Broadcast, BackToBackRoundsDoNotMix) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8);
    for (std::uint64_t round = 0; round < 5; ++round) {
      if (pe.rank() == 0) {
        pe.local_write<std::uint64_t>(buf, round * 11);
      }
      co_await pe.broadcast(0, buf, 8);
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf), round * 11);
    }
  }));
}

TEST(Broadcast, OutOfRangeRootThrows) {
  // Root 5 of 4 PEs must throw at the call, not wrap around to a real PE
  // in the tree arithmetic.
  JobEnv env(small_job(4, 2));
  EXPECT_THROW(env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
                 SymAddr buf = pe.heap().allocate(8);
                 pe.local_write<std::uint64_t>(buf, pe.rank());
                 co_await pe.broadcast(5, buf, 8);
               })),
               std::out_of_range);
}

TEST(Fcollect, GathersAllBlocksEverywhere) {
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 4));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(16);
    SymAddr dest = pe.heap().allocate(16 * kRanks);
    pe.local_write<std::uint64_t>(src, 100 + pe.rank());
    pe.local_write<std::uint64_t>(src + 8, 200 + pe.rank());
    co_await pe.fcollect(dest, src, 16);
    for (RankId r = 0; r < kRanks; ++r) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 16), 100u + r);
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 16 + 8), 200u + r);
    }
  }));
}

TEST(Fcollect, SinglePeTrivial) {
  JobEnv env(small_job(1, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(src, 5);
    co_await pe.fcollect(dest, src, 8);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 5u);
  }));
}

TEST(Reduce, SumInt64) {
  constexpr std::uint32_t kRanks = 6;
  JobEnv env(small_job(kRanks, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(24);
    SymAddr dest = pe.heap().allocate(24);
    for (int e = 0; e < 3; ++e) {
      pe.local_write<std::int64_t>(src + e * 8, pe.rank() + e);
    }
    co_await pe.reduce<std::int64_t>(dest, src, 3, ReduceOp::kSum);
    // sum over ranks of (rank + e) = 15 + 6e
    for (int e = 0; e < 3; ++e) {
      EXPECT_EQ(pe.local_read<std::int64_t>(dest + e * 8), 15 + 6 * e);
    }
  }));
}

TEST(Reduce, MinMaxInt64) {
  JobEnv env(small_job(5, 5));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dmin = pe.heap().allocate(8);
    SymAddr dmax = pe.heap().allocate(8);
    pe.local_write<std::int64_t>(src, 10 - static_cast<std::int64_t>(pe.rank()) * 3);
    co_await pe.reduce<std::int64_t>(dmin, src, 1, ReduceOp::kMin);
    co_await pe.reduce<std::int64_t>(dmax, src, 1, ReduceOp::kMax);
    EXPECT_EQ(pe.local_read<std::int64_t>(dmin), -2);  // rank 4: 10-12
    EXPECT_EQ(pe.local_read<std::int64_t>(dmax), 10);  // rank 0
  }));
}

TEST(Reduce, SumDouble) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<double>(src, 0.5 * (pe.rank() + 1));
    co_await pe.reduce<double>(dest, src, 1, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(pe.local_read<double>(dest), 0.5 + 1.0 + 1.5 + 2.0);
  }));
}

TEST(Reduce, ProdInt64) {
  JobEnv env(small_job(3, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<std::int64_t>(src, pe.rank() + 2);
    co_await pe.reduce<std::int64_t>(dest, src, 1, ReduceOp::kProd);
    EXPECT_EQ(pe.local_read<std::int64_t>(dest), 2 * 3 * 4);
  }));
}

TEST(Reduce, RepeatedReductionsIndependent) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    for (std::int64_t round = 1; round <= 4; ++round) {
      pe.local_write<std::int64_t>(src, round);
      co_await pe.reduce<std::int64_t>(dest, src, 1, ReduceOp::kSum);
      EXPECT_EQ(pe.local_read<std::int64_t>(dest), 4 * round);
    }
  }));
}

TEST(Collectives, WorkIdenticallyUnderStaticDesign) {
  // Paper Fig 7: collective latency is the same under both designs; here we
  // check correctness parity (timing parity is a bench).
  JobEnv env(small_job(8, 4, core::current_design()));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8 * 8);
    SymAddr sum = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(src, pe.rank() * 7);
    co_await pe.fcollect(dest, src, 8);
    co_await pe.reduce<std::int64_t>(sum, src, 1, ReduceOp::kSum);
    for (RankId r = 0; r < 8; ++r) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * 8), r * 7u);
    }
    EXPECT_EQ(pe.local_read<std::int64_t>(sum), 7 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  }));
}

}  // namespace
}  // namespace odcm::shmem
