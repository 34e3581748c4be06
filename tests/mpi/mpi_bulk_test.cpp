// MPI-lite large-message tiering: messages above the rendezvous threshold
// ride the conduit's one rendezvous (RTS / CTS / RDMA-write fragment
// stream / FIN) inside the per-destination non-overtaking send chain.
// Pins:
//  * rendezvous payloads arrive intact and in posting order, interleaved
//    with eager messages on the same (src, tag), under insertion-order and
//    seeded-shuffle schedules;
//  * zero-byte sends still match a posted recv (MPI envelope semantics)
//    but never enter the rendezvous path or consume credits;
//  * every stream's fragments reconcile at its initiator, credit stalls
//    show up when concurrent streams exhaust the per-QP window, and the
//    invariant checker audits MPI streams like one-sided ones.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "core/observer.hpp"
#include "mpi/mpi.hpp"
#include "shmem/job.hpp"

namespace odcm::mpi {
namespace {

/// Pure-conduit MPI environment with a tiering-enabled conduit config.
struct BulkEnv {
  explicit BulkEnv(std::uint32_t ranks, core::ConduitConfig conduit) {
    shmem::ShmemJobConfig config;
    config.job.ranks = ranks;
    config.job.ranks_per_node = 1;
    config.job.conduit = conduit;
    config.shmem.heap_bytes = 1 << 16;
    config.shmem.shared_memory_base = 100 * sim::usec;
    config.shmem.shared_memory_per_pe = 10 * sim::usec;
    config.shmem.init_misc = 10 * sim::usec;
    job = std::make_unique<shmem::ShmemJob>(engine, config);
    comms.resize(ranks);
    for (RankId r = 0; r < ranks; ++r) {
      comms[r] = std::make_unique<MpiComm>(job->conduit_job().conduit(r));
    }
  }

  void run(std::function<sim::Task<>(MpiComm&)> body) {
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

  [[nodiscard]] sim::StatSet totals() {
    return job->conduit_job().aggregate_stats();
  }

  sim::Engine engine;
  std::unique_ptr<shmem::ShmemJob> job;
  std::vector<std::unique_ptr<MpiComm>> comms;
};

core::ConduitConfig tiered_design() {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.eager_threshold = 256;
  conduit.rendezvous_threshold = 1024;
  conduit.bulk_chunk_bytes = 512;
  conduit.qp_credits = 2;
  return conduit;
}

std::vector<std::byte> pattern(std::uint64_t salt, std::size_t len) {
  std::vector<std::byte> out(len);
  for (std::size_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::byte>((salt * 131 + i) & 0xff);
  }
  return out;
}

TEST(MpiBulk, RendezvousMessageArrivesIntact) {
  // Single-credit window. One stream's in-flight window equals the credit
  // window, so it never finds the pool empty; a point-to-point stream and a
  // concurrent broadcast stream toward the same peer must stall instead.
  core::ConduitConfig conduit = tiered_design();
  conduit.qp_credits = 1;
  BulkEnv env(2, conduit);
  env.run([](MpiComm& comm) -> sim::Task<> {
    const std::vector<std::byte> payload = pattern(7, 10000);
    std::vector<std::byte> broadcast = pattern(8, 10000);
    if (comm.rank() == 0) {
      MpiComm::Request send = comm.isend(1, 42, payload);
      co_await comm.bcast(0, broadcast);
      (void)co_await comm.wait(send);
    } else {
      std::vector<std::byte> got = co_await comm.recv(0, 42);
      EXPECT_EQ(got, payload);
      std::vector<std::byte> bcast_in(broadcast.size());
      co_await comm.bcast(0, bcast_in);
      EXPECT_EQ(bcast_in, broadcast);
    }
  });
  sim::StatSet totals = env.totals();
  EXPECT_EQ(totals.counter("rdv_rts_sent"), 2);
  EXPECT_EQ(totals.counter("rdv_cts_sent"), 2);
  // 2 x 10000 bytes in 512-byte fragments under a 1-credit window: the
  // sender must have stalled for credits along the way, and every fragment
  // it sent was delivered.
  EXPECT_EQ(totals.counter("bulk_fragments_sent"), 40);
  EXPECT_EQ(totals.counter("bulk_fragments_sent"),
            totals.counter("bulk_fragments_delivered"));
  EXPECT_GT(totals.counter("credit_stalls"), 0);
}

TEST(MpiBulk, RendezvousIsAuditedByChecker) {
  // An MPI rendezvous is a conduit stream: it shows up on the protocol
  // event stream, and the checker's rendezvous and conservation audits
  // cover it.
  BulkEnv env(2, tiered_design());
  core::EventLog log;
  check::InvariantChecker checker;
  env.job->conduit_job().add_observer(&log);
  env.job->conduit_job().add_observer(&checker);
  env.run([](MpiComm& comm) -> sim::Task<> {
    const std::vector<std::byte> payload = pattern(5, 3000);
    if (comm.rank() == 0) {
      co_await comm.send(1, 3, payload);
    } else {
      std::vector<std::byte> got = co_await comm.recv(0, 3);
      EXPECT_EQ(got, payload);
    }
  });
  auto seen = [&log](core::ProtocolEvent::Kind kind, RankId self,
                     RankId peer) {
    for (const core::ProtocolEvent& e : log.events()) {
      if (e.kind == kind && e.self == self && e.peer == peer) return true;
    }
    return false;
  };
  EXPECT_TRUE(seen(core::ProtocolEvent::Kind::kRtsIssued, 0, 1));
  EXPECT_TRUE(seen(core::ProtocolEvent::Kind::kCtsIssued, 1, 0));
  EXPECT_TRUE(seen(core::ProtocolEvent::Kind::kBulkFragmentSent, 0, 1));
  EXPECT_TRUE(seen(core::ProtocolEvent::Kind::kRendezvousDone, 0, 1));
  EXPECT_NO_THROW(checker.check_final(env.job->conduit_job(),
                                      /*after_teardown=*/true));
}

/// Switches `env` to seeded-shuffle tie-breaking; seed 0 keeps insertion
/// order.
void apply_schedule(BulkEnv& env, std::uint64_t seed) {
  if (seed == 0) return;
  sim::SchedulePolicy policy;
  policy.tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle;
  policy.seed = seed;
  env.engine.set_schedule_policy(policy);
}

void check_mixed_sizes_keep_posting_order(std::uint64_t seed) {
  // Non-overtaking: an eager message posted after a rendezvous message on
  // the same (dst, tag) must be received after it, even though the eager
  // path has no RTS round trip to wait for. The rendezvous delivery runs at
  // FIN arrival and must stay ordered against the eager bounce-copy chain
  // under every tie-break order.
  BulkEnv env(2, tiered_design());
  apply_schedule(env, seed);
  env.run([](MpiComm& comm) -> sim::Task<> {
    const std::vector<std::byte> big = pattern(3, 5000);
    const std::vector<std::byte> small = pattern(4, 64);
    if (comm.rank() == 0) {
      MpiComm::Request s0 = comm.isend(1, 9, big);
      MpiComm::Request s1 = comm.isend(1, 9, small);
      MpiComm::Request s2 = comm.isend(1, 9, big);
      std::vector<MpiComm::Request> sends{s0, s1, s2};
      co_await comm.waitall(std::move(sends));
    } else {
      std::vector<std::byte> m0 = co_await comm.recv(0, 9);
      std::vector<std::byte> m1 = co_await comm.recv(0, 9);
      std::vector<std::byte> m2 = co_await comm.recv(0, 9);
      EXPECT_EQ(m0, big);
      EXPECT_EQ(m1, small);
      EXPECT_EQ(m2, big);
    }
  });
}

TEST(MpiBulk, RendezvousGatherFromMoreRanksThanLandingSegments) {
  // Fan-in: 299 ranks send rendezvous-sized gather blocks to the root at
  // once, more concurrent streams than a rank has landing segments (255).
  // The root must throttle the surplus, not fail, and every block must
  // land intact in its place.
  constexpr std::uint32_t kRanks = 300;
  constexpr std::size_t kBlock = 1500;  // above the 1024 B threshold
  BulkEnv env(kRanks, tiered_design());
  env.run([](MpiComm& comm) -> sim::Task<> {
    const std::vector<std::byte> block = pattern(comm.rank(), kBlock);
    std::vector<std::byte> out(comm.rank() == 0 ? kRanks * kBlock : 0);
    co_await comm.gather(0, block, out);
    if (comm.rank() == 0) {
      for (RankId r = 0; r < kRanks; ++r) {
        const auto first =
            out.begin() + static_cast<std::ptrdiff_t>(r * kBlock);
        EXPECT_EQ(std::vector<std::byte>(first, first + kBlock),
                  pattern(r, kBlock))
            << "block of rank " << r;
      }
    }
  });
}

TEST(MpiBulk, EagerBounceCopyKeepsArrivalOrder) {
  // Two eager messages (both under the rendezvous threshold) posted
  // big-then-small to one (dst, tag): the receiver charges a
  // size-proportional bounce-copy delay, so the later, smaller message
  // (8 B, or 0 B with no copy at all) is ready while the big one is still
  // copying (50KB at 8 B/ns dwarfs the ~2us inter-arrival gap). It must
  // still be received second — deliveries from one source become visible
  // in arrival order (non-overtaking).
  for (const std::size_t small_len : {std::size_t{8}, std::size_t{0}}) {
    core::ConduitConfig conduit = tiered_design();
    conduit.rendezvous_threshold = 1 << 16;  // keep a 50KB message eager
    BulkEnv env(2, conduit);
    env.run([small_len](MpiComm& comm) -> sim::Task<> {
      const std::vector<std::byte> big = pattern(11, 50000);
      const std::vector<std::byte> small = pattern(12, small_len);
      if (comm.rank() == 0) {
        MpiComm::Request s0 = comm.isend(1, 13, big);
        MpiComm::Request s1 = comm.isend(1, 13, small);
        std::vector<MpiComm::Request> sends{s0, s1};
        co_await comm.waitall(std::move(sends));
      } else {
        std::vector<std::byte> m0 = co_await comm.recv(0, 13);
        std::vector<std::byte> m1 = co_await comm.recv(0, 13);
        EXPECT_EQ(m0, big) << "small message of " << small_len << " B";
        EXPECT_EQ(m1, small) << "small message of " << small_len << " B";
      }
    });
    sim::StatSet totals = env.totals();
    EXPECT_EQ(totals.counter("rdv_rts_sent"), 0);  // both stayed eager
  }
}

TEST(MpiBulk, CrossTagVisibilityWaitsForEarlierCopy) {
  // A later small message on another tag is matched on arrival but becomes
  // visible only with the earlier 50KB message from the same source: both
  // receives complete at the big message's copy end, though the small one
  // is received first.
  core::ConduitConfig conduit = tiered_design();
  conduit.rendezvous_threshold = 64 << 10;  // keep a 50KB message eager
  BulkEnv env(2, conduit);
  sim::Time small_done = 0;
  sim::Time big_done = 0;
  env.run([&](MpiComm& comm) -> sim::Task<> {
    const std::vector<std::byte> big = pattern(21, 50000);
    const std::vector<std::byte> small = pattern(22, 8);
    if (comm.rank() == 0) {
      MpiComm::Request s0 = comm.isend(1, 1, big);
      MpiComm::Request s1 = comm.isend(1, 2, small);
      std::vector<MpiComm::Request> sends{s0, s1};
      co_await comm.waitall(std::move(sends));
    } else {
      EXPECT_EQ(co_await comm.recv(0, 2), small);
      small_done = env.engine.now();
      EXPECT_EQ(co_await comm.recv(0, 1), big);
      big_done = env.engine.now();
    }
  });
  EXPECT_EQ(small_done, 1302014);
  EXPECT_EQ(big_done, 1302014);
}

TEST(MpiBulk, ZeroByteSendMatchesWithoutRendezvous) {
  BulkEnv env(2, tiered_design());
  env.run([](MpiComm& comm) -> sim::Task<> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 5, std::vector<std::byte>{});
      std::vector<std::byte> back = co_await comm.recv(1, 6);
      EXPECT_TRUE(back.empty());
    } else {
      std::vector<std::byte> got = co_await comm.recv(0, 5);
      EXPECT_TRUE(got.empty());
      co_await comm.send(0, 6, std::vector<std::byte>{});
    }
  });
  sim::StatSet totals = env.totals();
  EXPECT_EQ(totals.counter("rdv_rts_sent"), 0);
  EXPECT_EQ(totals.counter("bulk_fragments_sent"), 0);
  EXPECT_EQ(totals.counter("credit_stalls"), 0);
}

void check_many_concurrent_rendezvous_streams(std::uint64_t seed) {
  // Four ranks, each streaming a distinct large message to every other
  // rank concurrently: per-sequence landing buffers at the receivers must
  // not mix streams, and every initiator's fragment ledger must balance.
  constexpr std::uint32_t kRanks = 4;
  BulkEnv env(kRanks, tiered_design());
  apply_schedule(env, seed);
  env.run([](MpiComm& comm) -> sim::Task<> {
    const RankId me = comm.rank();
    std::vector<MpiComm::Request> recvs;
    std::vector<MpiComm::Request> sends;
    for (RankId peer = 0; peer < comm.size(); ++peer) {
      if (peer == me) continue;
      recvs.push_back(comm.irecv(peer, 77));
      sends.push_back(
          comm.isend(peer, 77, pattern(me * 100 + peer, 3000)));
    }
    std::size_t i = 0;
    for (RankId peer = 0; peer < comm.size(); ++peer) {
      if (peer == me) continue;
      std::vector<std::byte> got = co_await comm.wait(recvs[i++]);
      EXPECT_EQ(got, pattern(peer * 100 + me, 3000));
    }
    co_await comm.waitall(std::move(sends));
  });
  sim::StatSet totals = env.totals();
  EXPECT_EQ(totals.counter("rdv_rts_sent"), kRanks * (kRanks - 1));
  for (RankId r = 0; r < kRanks; ++r) {
    const sim::StatSet& stats = env.comms[r]->conduit().stats();
    EXPECT_EQ(stats.counter("bulk_fragments_sent"),
              stats.counter("bulk_fragments_delivered"));
  }
}

TEST(MpiBulk, MixedSizesKeepPostingOrderPerTag) {
  check_mixed_sizes_keep_posting_order(0);
}

TEST(MpiBulk, ManyConcurrentRendezvousStreamsReconcile) {
  check_many_concurrent_rendezvous_streams(0);
}

/// The same scenarios under seeded-shuffle tie-breaks.
class MpiBulkSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpiBulkSchedule, MixedSizesKeepPostingOrderPerTag) {
  check_mixed_sizes_keep_posting_order(GetParam());
}

TEST_P(MpiBulkSchedule, ManyConcurrentRendezvousStreamsReconcile) {
  check_many_concurrent_rendezvous_streams(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Schedules, MpiBulkSchedule,
                         ::testing::Values(3u, 11u));

}  // namespace
}  // namespace odcm::mpi
