// Tests for OpenSHMEM collectives: barrier_all, broadcast, fcollect, reduce,
// and the pinned schedule of the tree and ring collectives of both layers.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/mpi.hpp"
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

TEST(Fcollect, TwoPes) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(16);
    for (int round = 0; round < 3; ++round) {
      pe.local_write<std::uint64_t>(src, 10 * round + pe.rank());
      co_await pe.fcollect(dest, src, 8);
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 10u * round);
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8), 10u * round + 1);
    }
  }));
}

TEST(Fcollect, SourceInsideDestIsThePesOwnSlot) {
  // In-place fcollect: each PE's block already sits in its own slot of
  // `dest`. Every chunk the ring forwards is the buffer as received, so
  // the slots it lands in never feed a later step.
  constexpr std::uint32_t kRanks = 6;
  constexpr std::uint32_t kBlock = 24;
  JobEnv env(small_job(kRanks, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr dest = pe.heap().allocate(kBlock * kRanks);
    for (int round = 0; round < 2; ++round) {
      SymAddr mine = dest + pe.rank() * kBlock;
      for (std::uint32_t w = 0; w < kBlock / 8; ++w) {
        pe.local_write<std::uint64_t>(mine + 8 * w,
                                      1000 * round + 10 * pe.rank() + w);
      }
      co_await pe.fcollect(dest, mine, kBlock);
      for (RankId r = 0; r < kRanks; ++r) {
        for (std::uint32_t w = 0; w < kBlock / 8; ++w) {
          EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * kBlock + 8 * w),
                    1000u * round + 10 * r + w)
              << "round " << round << " slot " << r << " word " << w;
        }
      }
    }
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

TEST(Reduce, ByteCountOverflowThrows) {
  // (2^29 + 1) 8-byte elements are 2^32 + 8 bytes: a 32-bit byte count
  // wraps to 8 and would reduce one element instead of rejecting the range.
  JobEnv env(small_job(2, 1));
  std::vector<int> threw(2, 0);
  env.run(with_init([&threw](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(src, 5 + pe.rank());
    pe.local_write<std::uint64_t>(dest, 99);
    try {
      co_await pe.reduce<std::uint64_t>(dest, src, (1u << 29) + 1,
                                        ReduceOp::kSum);
    } catch (const std::out_of_range&) {
      threw[pe.rank()] = 1;
    }
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 99u);
  }));
  EXPECT_EQ(threw, (std::vector<int>{1, 1}));
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

/// One row per collective of run_schedule (each PE's virtual time after
/// it), then a final row: events executed, and the bits of the two-element
/// OpenSHMEM and MPI-lite double sums (their bytes depend on fold order).
using Schedule = std::vector<std::vector<std::uint64_t>>;

std::string render(const Schedule& schedule) {
  std::string out;
  for (const auto& row : schedule) {
    out += "{";
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += (i == 0 ? "" : ", ") + std::to_string(row[i]) + "u";
    }
    out += "},\n";
  }
  return out;
}

/// 11 PEs at 3 per node (the last node is partial and n is no multiple of
/// the tree fan-out) run every tree and ring collective of both layers over
/// the same conduits, checking each result against its closed form.
Schedule run_schedule(core::IntranodeTransport transport,
                      const sim::SchedulePolicy& policy) {
  constexpr std::uint32_t kPes = 11;
  constexpr std::size_t kOps = 10;
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = transport;
  JobEnv env(small_job(kPes, 3, conduit));
  env.engine.set_schedule_policy(policy);
  std::vector<std::unique_ptr<mpi::MpiComm>> comms;
  for (RankId r = 0; r < kPes; ++r) {
    comms.push_back(
        std::make_unique<mpi::MpiComm>(env.job.conduit_job().conduit(r)));
  }
  Schedule schedule(kOps, std::vector<std::uint64_t>(kPes, 0));
  std::vector<std::array<std::uint64_t, 4>> fold_bits(kPes);

  env.run(with_init([&](ShmemPe& pe) -> sim::Task<> {
    const RankId me = pe.rank();
    mpi::MpiComm& comm = *comms[me];
    std::size_t op = 0;
    auto stamp = [&] { schedule[op++][me] = pe.engine().now(); };

    SymAddr bcast = pe.heap().allocate(24);
    for (int i = 0; me == 7 && i < 3; ++i) {
      pe.local_write<std::uint64_t>(bcast + i * 8, 700 + i);
    }
    co_await pe.broadcast(7, bcast, 24);
    stamp();
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(bcast + i * 8), 700u + i);
    }

    SymAddr fsrc = pe.heap().allocate(16);
    SymAddr fdest = pe.heap().allocate(16 * kPes);
    pe.local_write<std::uint64_t>(fsrc, 100 + me);
    pe.local_write<std::uint64_t>(fsrc + 8, 200 + me);
    co_await pe.fcollect(fdest, fsrc, 16);
    stamp();
    for (RankId r = 0; r < kPes; ++r) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(fdest + r * 16), 100u + r);
      EXPECT_EQ(pe.local_read<std::uint64_t>(fdest + r * 16 + 8), 200u + r);
    }

    // Ranks 0, 3, 6 and 9 contribute nothing; the others one or two words.
    SymAddr csrc = pe.heap().allocate(16);
    SymAddr cdest = pe.heap().allocate(16 * kPes);
    const std::uint32_t words = me % 3;
    for (std::uint32_t w = 0; w < words; ++w) {
      pe.local_write<std::uint64_t>(csrc + w * 8, me * 10 + w);
    }
    co_await pe.collect(cdest, csrc, words * 8);
    stamp();
    SymAddr at = cdest;
    for (RankId r = 0; r < kPes; ++r) {
      for (std::uint32_t w = 0; w < r % 3; ++w, at += 8) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(at), r * 10u + w);
      }
    }

    SymAddr isrc = pe.heap().allocate(24);
    SymAddr idest = pe.heap().allocate(24);
    for (int e = 0; e < 3; ++e) {
      pe.local_write<std::int64_t>(isrc + e * 8, me * 10 + e);
    }
    co_await pe.reduce<std::int64_t>(idest, isrc, 3, ReduceOp::kSum);
    stamp();
    for (int e = 0; e < 3; ++e) {
      EXPECT_EQ(pe.local_read<std::int64_t>(idest + e * 8), 550 + 11 * e);
    }

    SymAddr dsrc = pe.heap().allocate(16);
    SymAddr ddest = pe.heap().allocate(16);
    pe.local_write<double>(dsrc, 0.1 * (me + 1));
    pe.local_write<double>(dsrc + 8, 1.0 / (me + 3));
    co_await pe.reduce<double>(ddest, dsrc, 2, ReduceOp::kSum);
    stamp();
    fold_bits[me][0] = pe.local_read<std::uint64_t>(ddest);
    fold_bits[me][1] = pe.local_read<std::uint64_t>(ddest + 8);

    co_await pe.barrier_all();
    stamp();

    std::array<std::uint64_t, 2> mbcast{};
    if (me == 5) mbcast = {500, 501};
    co_await comm.bcast(5, std::as_writable_bytes(std::span(mbcast)));
    stamp();
    EXPECT_EQ(mbcast, (std::array<std::uint64_t, 2>{500, 501}));

    std::array<std::int64_t, 2> mmax = {me, -std::int64_t{me} * me};
    co_await comm.reduce<std::int64_t>(3, mmax, ReduceOp::kMax);
    stamp();
    if (me == 3) {
      EXPECT_EQ(mmax, (std::array<std::int64_t, 2>{10, 0}));
    }

    std::array<double, 2> msum = {0.5 * me, 1.0 / (me + 1)};
    co_await comm.allreduce<double>(msum, ReduceOp::kSum);
    stamp();
    fold_bits[me][2] = std::bit_cast<std::uint64_t>(msum[0]);
    fold_bits[me][3] = std::bit_cast<std::uint64_t>(msum[1]);

    const std::uint64_t block = 1000 + me;
    std::vector<std::byte> gathered(8 * kPes);
    co_await comm.allgather(std::as_bytes(std::span(&block, 1)), gathered);
    stamp();
    for (RankId r = 0; r < kPes; ++r) {
      std::uint64_t got = 0;
      std::memcpy(&got, gathered.data() + r * 8, 8);
      EXPECT_EQ(got, 1000u + r);
    }
  }));

  for (RankId r = 1; r < kPes; ++r) {
    EXPECT_EQ(fold_bits[r], fold_bits[0]) << "rank " << r;
  }
  schedule.push_back({env.engine.events_executed(), fold_bits[0][0],
                      fold_bits[0][1], fold_bits[0][2], fold_bits[0][3]});
  return schedule;
}

TEST(Collectives, ScheduleUnchanged) {
  // Captured from the implementation whose barrier, OpenSHMEM and MPI-lite
  // trees each carried their own k-ary arithmetic: every message of every
  // collective keeps its order, destination and bytes.
  const Schedule rc_insertion = {
      {3432950u, 2449736u, 2954172u, 3458608u, 3963044u, 2954172u, 3458658u,
       3433300u, 3963394u, 3459008u, 2928514u},
      {4500686u, 4499380u, 4498074u, 4497724u, 4497400u, 4505654u, 4505304u,
       4503998u, 4502692u, 4502342u, 4501036u},
      {4534847u, 4533543u, 4532242u, 4531892u, 4530588u, 4539801u, 4539451u,
       4538147u, 4536846u, 4536496u, 4535197u},
      {5546726u, 5549046u, 5546376u, 5544664u, 5546376u, 5543560u, 5545272u,
       5546984u, 5548696u, 5544314u, 5546026u},
      {5555382u, 5557697u, 5555032u, 5553323u, 5555032u, 5552220u, 5553929u,
       5555638u, 5557347u, 5552973u, 5554682u},
      {5564009u, 5566314u, 5563659u, 5561956u, 5563659u, 5560855u, 5562558u,
       5564261u, 5565964u, 5561606u, 5563309u},
      {6571074u, 6572783u, 7077216u, 6570774u, 7075207u, 6573139u, 7077566u,
       7075557u, 6571080u, 6572789u, 6066641u},
      {6572783u, 6574492u, 7581649u, 8082510u, 7077625u, 8082860u, 7581999u,
       7077266u, 6572789u, 7077222u, 6571074u},
      {8089546u, 8091861u, 8089196u, 8087487u, 8089196u, 8086384u, 8088093u,
       8089802u, 8091511u, 8087137u, 8088846u},
      {8106586u, 8105281u, 8107636u, 8107286u, 8105981u, 8104971u, 8104621u,
       8103316u, 8108591u, 8108241u, 8106936u},
      {5076u, 4619116957812549222u, 4610245468926199884u, 4628433779541671936u,
       4613982578042564516u},
  };
  const Schedule rc_shuffled = {
      {3432950u, 2449736u, 2954172u, 3458608u, 3963044u, 2954172u, 3458658u,
       3433300u, 3963394u, 3459008u, 2928514u},
      {4500686u, 4499380u, 4498074u, 4497724u, 4497400u, 4505654u, 4505304u,
       4503998u, 4502692u, 4502342u, 4501036u},
      {4534847u, 4533543u, 4532242u, 4531892u, 4530588u, 4539801u, 4539451u,
       4538147u, 4536846u, 4536496u, 4535197u},
      {5546726u, 5549046u, 5546376u, 5544664u, 5546376u, 5543560u, 5545272u,
       5546984u, 5548696u, 5544314u, 5546026u},
      {5555382u, 5557697u, 5555032u, 5553323u, 5555032u, 5552220u, 5553929u,
       5555638u, 5557347u, 5552973u, 5554682u},
      {5564009u, 5566314u, 5563659u, 5561956u, 5563659u, 5560855u, 5562558u,
       5564261u, 5565964u, 5561606u, 5563309u},
      {6571074u, 6572783u, 7077216u, 6570774u, 7075207u, 6573139u, 7077566u,
       7075557u, 6571080u, 6572789u, 6066641u},
      {6572783u, 6574492u, 7581649u, 8082510u, 7077625u, 8082860u, 7581999u,
       7077266u, 6572789u, 7077222u, 6571074u},
      {8089546u, 8091861u, 8089196u, 8087487u, 8089196u, 8086384u, 8088093u,
       8089802u, 8091511u, 8087137u, 8088846u},
      {8106586u, 8105281u, 8107636u, 8107286u, 8105981u, 8104971u, 8104621u,
       8103316u, 8108591u, 8108241u, 8106936u},
      {5052u, 4619116957812549222u, 4610245468926199884u, 4628433779541671936u,
       4613982578042564516u},
  };
  const Schedule shm_insertion = {
      {2931388u, 1948524u, 2452960u, 2957396u, 3461832u, 2452610u, 2957096u,
       2931738u, 3462182u, 2957446u, 2426952u},
      {3979938u, 3978570u, 3977202u, 3976852u, 3975484u, 3974116u, 3973766u,
       3972398u, 3982006u, 3981656u, 3980288u},
      {4014092u, 4012726u, 4011363u, 4011013u, 4009647u, 4008284u, 4007934u,
       4006568u, 4016153u, 4015803u, 4014442u},
      {4569565u, 4572939u, 4569707u, 4567503u, 4569215u, 4567453u, 4569165u,
       4570877u, 4572589u, 4567645u, 4569357u},
      {4578100u, 4581468u, 4578242u, 4576041u, 4577750u, 4575991u, 4577700u,
       4579409u, 4581118u, 4576183u, 4577892u},
      {5091504u, 5091504u, 5091504u, 5087748u, 5087748u, 5087748u, 5089451u,
       5089451u, 5089451u, 5091154u, 5091154u},
      {5595243u, 5596952u, 6101385u, 6097667u, 6602100u, 6100032u, 6101735u,
       6602450u, 6097973u, 6099682u, 5593534u},
      {5596952u, 5598661u, 6605818u, 6605960u, 6603957u, 6605660u, 6606168u,
       6604159u, 6099682u, 6604115u, 6097967u},
      {6611679u, 6615047u, 6611821u, 6609620u, 6611329u, 6609570u, 6611279u,
       6612988u, 6614697u, 6609762u, 6611471u},
      {6629710u, 6628343u, 6630760u, 6630410u, 6629043u, 6627676u, 6627326u,
       6625959u, 6631777u, 6631427u, 6630060u},
      {4292u, 4619116957812549222u, 4610245468926199884u, 4628433779541671936u,
       4613982578042564516u},
  };
  const Schedule shm_shuffled = {
      {2931388u, 1948524u, 2452960u, 2957396u, 3461832u, 2452610u, 2957096u,
       2931738u, 3462182u, 2957446u, 2426952u},
      {3979938u, 3978570u, 3977202u, 3976852u, 3975484u, 3974116u, 3973766u,
       3972398u, 3982006u, 3981656u, 3980288u},
      {4014092u, 4012726u, 4011363u, 4011013u, 4009647u, 4008284u, 4007934u,
       4006568u, 4016153u, 4015803u, 4014442u},
      {4569565u, 4572939u, 4569707u, 4567503u, 4569215u, 4567453u, 4569165u,
       4570877u, 4572589u, 4567645u, 4569357u},
      {4578100u, 4581468u, 4578242u, 4576041u, 4577750u, 4575991u, 4577700u,
       4579409u, 4581118u, 4576183u, 4577892u},
      {5091504u, 5091504u, 5091504u, 5087748u, 5087748u, 5087748u, 5089451u,
       5089451u, 5089451u, 5091154u, 5091154u},
      {5595243u, 5596952u, 6101385u, 6097667u, 6602100u, 6100032u, 6101735u,
       6602450u, 6097973u, 6099682u, 5593534u},
      {5596952u, 5598661u, 6605818u, 6605960u, 6603957u, 6605660u, 6606168u,
       6604159u, 6099682u, 6604115u, 6097967u},
      {6611679u, 6615047u, 6611821u, 6609620u, 6611329u, 6609570u, 6611279u,
       6612988u, 6614697u, 6609762u, 6611471u},
      {6629710u, 6628343u, 6630760u, 6630410u, 6629043u, 6627676u, 6627326u,
       6625959u, 6631777u, 6631427u, 6630060u},
      {4270u, 4619116957812549222u, 4610245468926199884u, 4628433779541671936u,
       4613982578042564516u},
  };

  sim::SchedulePolicy shuffle;
  shuffle.tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle;
  shuffle.seed = 7;
  const struct {
    core::IntranodeTransport transport;
    sim::SchedulePolicy policy;
    const Schedule& expected;
  } cases[] = {
      {core::IntranodeTransport::kRc, {}, rc_insertion},
      {core::IntranodeTransport::kRc, shuffle, rc_shuffled},
      {core::IntranodeTransport::kShm, {}, shm_insertion},
      {core::IntranodeTransport::kShm, shuffle, shm_shuffled},
  };
  for (const auto& c : cases) {
    const Schedule actual = run_schedule(c.transport, c.policy);
    EXPECT_EQ(actual, c.expected) << render(actual);
  }
}

}  // namespace
}  // namespace odcm::shmem
