// Tests for the MPI-lite layer and the unified-runtime property.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/mpi.hpp"
#include "shmem/job.hpp"

namespace odcm::mpi {
namespace {

/// Environment with one MpiComm per rank over a shmem job's conduits
/// (hybrid setting), or pure conduits.
struct Env {
  explicit Env(std::uint32_t ranks, std::uint32_t ppn,
               shmem::RegistrationMode registration =
                   shmem::RegistrationMode::kEager) {
    shmem::ShmemJobConfig config;
    config.job.ranks = ranks;
    config.job.ranks_per_node = ppn;
    config.shmem.heap_bytes = 1 << 16;
    config.shmem.registration = registration;
    config.shmem.reg_chunk_bytes = 4096;
    config.shmem.shared_memory_base = 100 * sim::usec;
    config.shmem.shared_memory_per_pe = 10 * sim::usec;
    config.shmem.init_misc = 10 * sim::usec;
    job = std::make_unique<shmem::ShmemJob>(engine, config);
    comms.resize(ranks);
    for (RankId r = 0; r < ranks; ++r) {
      comms[r] = std::make_unique<MpiComm>(job->conduit_job().conduit(r));
    }
  }

  void run_pure(std::function<sim::Task<>(MpiComm&)> body) {
    auto shared = std::make_shared<std::function<sim::Task<>(MpiComm&)>>(
        std::move(body));
    job->conduit_job().spawn_all(
        [this, shared](core::Conduit& c) -> sim::Task<> {
          MpiComm& comm = *comms[c.rank()];
          co_await comm.init();
          co_await (*shared)(comm);
          co_await comm.barrier();
        });
    engine.run();
  }

  sim::Engine engine;
  std::unique_ptr<shmem::ShmemJob> job;
  std::vector<std::unique_ptr<MpiComm>> comms;
};

std::vector<std::byte> encode_int(int value) {
  std::vector<std::byte> out(sizeof(int));
  std::memcpy(out.data(), &value, sizeof(int));
  return out;
}

int decode_int(const std::vector<std::byte>& bytes) {
  int value = -1;
  if (bytes.size() == sizeof(int)) {
    std::memcpy(&value, bytes.data(), sizeof(int));
  }
  return value;
}

TEST(Mpi, SendRecvRoundTrip) {
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      co_await comm.send_value<std::uint64_t>(1, 7, 12345);
      std::uint64_t back = co_await comm.recv_value<std::uint64_t>(1, 8);
      EXPECT_EQ(back, 54321u);
    } else {
      std::uint64_t got = co_await comm.recv_value<std::uint64_t>(0, 7);
      EXPECT_EQ(got, 12345u);
      co_await comm.send_value<std::uint64_t>(0, 8, 54321);
    }
  });
}

TEST(Mpi, TagsKeepMessagesApart) {
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      co_await comm.send_value<int>(1, 1, 100);
      co_await comm.send_value<int>(1, 2, 200);
    } else {
      // Receive in reverse tag order.
      int second = co_await comm.recv_value<int>(0, 2);
      int first = co_await comm.recv_value<int>(0, 1);
      EXPECT_EQ(first, 100);
      EXPECT_EQ(second, 200);
    }
  });
}

TEST(Mpi, SameTagPreservesOrder) {
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        co_await comm.send_value<int>(1, 5, i);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int got = co_await comm.recv_value<int>(0, 5);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(Mpi, LargeMessage) {
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    const std::size_t len = 256 * 1024;
    if (comm.rank() == 0) {
      std::vector<std::byte> data(len);
      for (std::size_t i = 0; i < len; ++i) {
        data[i] = static_cast<std::byte>(i % 251);
      }
      co_await comm.send(1, 3, data);
    } else {
      std::vector<std::byte> got = co_await comm.recv(0, 3);
      EXPECT_EQ(got.size(), len);
      bool ok = true;
      for (std::size_t i = 0; i < len; ++i) {
        ok = ok && got[i] == static_cast<std::byte>(i % 251);
      }
      EXPECT_TRUE(ok);
    }
  });
}

TEST(Mpi, BcastFromEveryRoot) {
  Env env(6, 3);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    for (RankId root = 0; root < 6; ++root) {
      std::uint64_t value = comm.rank() == root ? 4000 + root : 0;
      std::span<std::byte> view(reinterpret_cast<std::byte*>(&value), 8);
      co_await comm.bcast(root, view);
      EXPECT_EQ(value, 4000u + root);
    }
  });
}

TEST(Mpi, AllreduceSumAndMax) {
  Env env(8, 4);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    std::vector<std::int64_t> sum{static_cast<std::int64_t>(comm.rank()), 1};
    co_await comm.allreduce<std::int64_t>(sum, ReduceOp::kSum);
    EXPECT_EQ(sum[0], 28);  // 0+..+7
    EXPECT_EQ(sum[1], 8);

    std::vector<std::int64_t> max{static_cast<std::int64_t>(comm.rank() * 3)};
    co_await comm.allreduce<std::int64_t>(max, ReduceOp::kMax);
    EXPECT_EQ(max[0], 21);
  });
}

TEST(Mpi, ReduceToNonZeroRoot) {
  Env env(5, 5);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    std::vector<std::int64_t> v{1};
    co_await comm.reduce<std::int64_t>(3, v, ReduceOp::kSum);
    if (comm.rank() == 3) {
      EXPECT_EQ(v[0], 5);
    }
    co_await comm.barrier();
  });
}

TEST(Mpi, Allgather) {
  constexpr std::uint32_t kRanks = 7;
  Env env(kRanks, 4);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    std::uint64_t mine = 900 + comm.rank();
    std::vector<std::byte> out(8 * kRanks);
    co_await comm.allgather(
        std::span<const std::byte>(reinterpret_cast<std::byte*>(&mine), 8),
        out);
    for (RankId r = 0; r < kRanks; ++r) {
      std::uint64_t value = 0;
      std::memcpy(&value, out.data() + r * 8, 8);
      EXPECT_EQ(value, 900u + r);
    }
  });
}

TEST(Mpi, BarrierSynchronizes) {
  Env env(4, 2);
  std::vector<sim::Time> passed(4, 0);
  env.run_pure([&passed](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 2) {
      co_await comm.conduit().engine().delay(1 * sim::msec);
    }
    co_await comm.barrier();
    passed[comm.rank()] = comm.conduit().engine().now();
  });
  for (RankId r = 0; r < 4; ++r) EXPECT_GE(passed[r], 1 * sim::msec);
}

TEST(Hybrid, ShmemAndMpiShareConnections) {
  // The unified-runtime property: SHMEM put + MPI send to the same peer use
  // one connection, not two.
  Env env(2, 1);
  env.job->spawn_all([&env](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    MpiComm& comm = *env.comms[pe.rank()];
    shmem::SymAddr slot = pe.heap().allocate(8);
    if (pe.rank() == 0) {
      co_await pe.put_value<std::uint64_t>(1, slot, 1);
      co_await comm.send_value<int>(1, 1, 2);
    } else {
      int got = co_await comm.recv_value<int>(0, 1);
      EXPECT_EQ(got, 2);
    }
    co_await pe.finalize();
  });
  env.engine.run();
  EXPECT_EQ(env.job->pe(0).stats().counter("connections_established"), 1);
  EXPECT_EQ(env.job->pe(0).communicating_peers(), 1u);
}

TEST(Hybrid, MpiCoexistsWithOnDemandRegistration) {
  // On-demand registration registers OpenSHMEM's rkey-fault AM handler in
  // start_pes, next to the MPI handler on the same conduit. The two ids
  // used to be equal, so start_pes threw "duplicate id".
  Env env(4, 2, shmem::RegistrationMode::kOnDemand);
  env.job->spawn_all([&env](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    MpiComm& comm = *env.comms[pe.rank()];
    const shmem::SymAddr slot = pe.heap().allocate(8);
    co_await pe.barrier_all();
    // A cross-node put faults the target's chunk in over the handler.
    co_await pe.put_value<std::uint64_t>((pe.rank() + 2) % pe.n_pes(), slot,
                                         pe.rank());
    std::vector<std::int64_t> sum{static_cast<std::int64_t>(pe.rank())};
    co_await comm.allreduce<std::int64_t>(sum, ReduceOp::kSum);
    EXPECT_EQ(sum[0], 6);  // 0+1+2+3
    co_await pe.finalize();
  });
  env.engine.run();
  EXPECT_GT(env.job->pe(0).stats().counter("reg_rkey_misses"), 0);
}

TEST(Mpi, MatchboxesAreReclaimedWhenDrained) {
  // The per-(src, tag) mailboxes used to be created on first message and
  // never reclaimed, so cycling through tags leaked one mailbox per tag
  // ever used. A fully drained communicator must be back to zero.
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    constexpr int kTags = 32;
    if (comm.rank() == 0) {
      for (int t = 0; t < kTags; ++t) {
        co_await comm.send_value<int>(1, 100 + t, t);
      }
    } else {
      for (int t = 0; t < kTags; ++t) {
        int got = co_await comm.recv_value<int>(0, 100 + t);
        EXPECT_EQ(got, t);
      }
    }
  });
  EXPECT_EQ(env.comms[0]->matchbox_count(), 0u);
  EXPECT_EQ(env.comms[1]->matchbox_count(), 0u);
  // Reclaim is per-drain, not per-teardown: created == reclaimed.
  EXPECT_EQ(env.comms[1]->conduit().stats().counter("mpi_matchbox_created"),
            env.comms[1]->conduit().stats().counter("mpi_matchbox_reclaimed"));
}

TEST(Mpi, BackToBackSameTagSendsStayFifoUnderShuffledSchedules) {
  // MPI's non-overtaking rule, pinned under perturbed event schedules:
  // back-to-back isends with the same (src, tag) — and the irecvs matching
  // them, all posted before any send — must pair up in posting order for
  // every tie-break seed. Seed 0 is the historical insertion order.
  constexpr int kMessages = 8;
  for (std::uint64_t schedule_seed : {0ull, 1ull, 9ull, 23ull, 40ull}) {
    Env env(2, 1);
    if (schedule_seed != 0) {
      sim::SchedulePolicy policy;
      policy.tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle;
      policy.seed = schedule_seed;
      env.engine.set_schedule_policy(policy);
    }
    env.run_pure([schedule_seed](MpiComm& comm) -> sim::Task<> {
      if (comm.rank() == 0) {
        // Let the receiver post every irecv first.
        co_await comm.conduit().engine().delay(10 * sim::usec);
        std::vector<MpiComm::Request> sends;
        for (int i = 0; i < kMessages; ++i) {
          sends.push_back(comm.isend(1, 5, encode_int(111 * (i + 1))));
        }
        co_await comm.waitall(std::move(sends));
      } else {
        std::vector<MpiComm::Request> recvs;
        for (int i = 0; i < kMessages; ++i) recvs.push_back(comm.irecv(0, 5));
        for (int i = 0; i < kMessages; ++i) {
          std::vector<std::byte> m = co_await comm.wait(recvs[i]);
          EXPECT_EQ(decode_int(m), 111 * (i + 1))
              << "message " << i << ", schedule_seed=" << schedule_seed;
        }
      }
    });
    EXPECT_EQ(env.comms[1]->matchbox_count(), 0u);
  }
}

TEST(Mpi, OutOfRangePeerOrRootThrows) {
  // A peer or root >= size() must throw at the call, not wrap around to a
  // real rank, wait forever, or fail later in a detached task.
  Env env(2, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    EXPECT_THROW((void)comm.isend(2, 1, encode_int(1)), std::out_of_range);
    EXPECT_THROW((void)comm.irecv(7, 1), std::out_of_range);
    co_return;
  });
  using Body = std::function<sim::Task<>(MpiComm&)>;
  const std::vector<std::pair<const char*, Body>> collectives = {
      {"bcast",
       [](MpiComm& comm) -> sim::Task<> {
         std::vector<std::byte> data(4);
         co_await comm.bcast(5, data);
       }},
      {"reduce",
       [](MpiComm& comm) -> sim::Task<> {
         std::vector<std::int64_t> data(1, 1);
         co_await comm.reduce<std::int64_t>(2, data, ReduceOp::kSum);
       }},
      {"gather",
       [](MpiComm& comm) -> sim::Task<> {
         std::vector<std::byte> block(4);
         std::vector<std::byte> out(8);
         co_await comm.gather(2, block, out);
       }},
      {"scatter",
       [](MpiComm& comm) -> sim::Task<> {
         std::vector<std::byte> in(8);
         std::vector<std::byte> out(4);
         co_await comm.scatter(3, in, out);
       }},
  };
  for (const auto& [name, body] : collectives) {
    Env bad_root(2, 1);
    EXPECT_THROW(bad_root.run_pure(body), std::out_of_range) << name;
  }
}

TEST(Mpi, ShortReduceContributionThrows) {
  // A child whose partial is shorter than the root's buffer must be
  // rejected, not read past the end of its payload.
  Env env(2, 1);
  EXPECT_THROW(env.run_pure([](MpiComm& comm) -> sim::Task<> {
    std::vector<std::uint64_t> data(comm.rank() == 0 ? 4 : 1, 1);
    co_await comm.reduce<std::uint64_t>(0, data, ReduceOp::kSum);
  }),
               std::runtime_error);
}

TEST(Mpi, ShortRecvValuePayloadThrows) {
  Env env(2, 1);
  EXPECT_THROW(env.run_pure([](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 4, std::vector<std::byte>(1));
    } else {
      (void)co_await comm.recv_value<std::uint64_t>(0, 4);
    }
  }),
               std::runtime_error);
}

TEST(Mpi, WtimeAdvances) {
  Env env(1, 1);
  env.run_pure([](MpiComm& comm) -> sim::Task<> {
    double t0 = comm.wtime();
    co_await comm.conduit().engine().delay(2 * sim::msec);
    double t1 = comm.wtime();
    EXPECT_NEAR(t1 - t0, 0.002, 1e-9);
  });
}

}  // namespace
}  // namespace odcm::mpi
