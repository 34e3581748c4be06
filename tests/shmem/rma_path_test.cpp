// The OpenSHMEM RMA data path through `Conduit::rma` (DESIGN.md §5.18).
//
//  * A symmetric address whose `addr + len` wraps past 2^64 is rejected up
//    front — before any connection, registration fault or credit — under
//    both registration modes.
//  * A put/get/atomic that throws out of the RC issue (a QP driven into
//    the error state) still returns its flow-control credit, so the
//    finalize audit `credits_granted == credits_returned` holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

ShmemJobConfig credited_job(std::uint32_t ranks,
                            RegistrationMode registration) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.qp_credits = 2;
  ShmemJobConfig config = small_job(ranks, 1, conduit);
  config.shmem.registration = registration;
  config.shmem.reg_chunk_bytes = 4096;
  return config;
}

void expect_wrapping_address_rejected(RegistrationMode registration) {
  JobEnv env(credited_job(4, registration));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    co_await pe.barrier_all();
    const RankId dst = (pe.rank() + 1) % pe.n_pes();
    std::vector<core::PeerPhase> phases;
    for (RankId p = 0; p < pe.n_pes(); ++p) {
      phases.push_back(pe.conduit().peer_phase(p));
    }
    sim::StatSet& stats = pe.stats();
    const double faults = stats.counter("reg_rkey_misses");
    const double credits = stats.counter("credits_granted");

    // addr + 8 wraps to 0, which a naive `addr + len > size` accepts.
    constexpr SymAddr kWrapping = UINT64_MAX - 7;
    std::vector<std::byte> buf(8);
    int rejected = 0;
    try {
      co_await pe.put(dst, kWrapping, buf);
    } catch (const std::out_of_range&) {
      ++rejected;
    }
    try {
      co_await pe.get(dst, kWrapping, buf);
    } catch (const std::out_of_range&) {
      ++rejected;
    }
    try {
      (void)co_await pe.atomic_fetch_add(dst, kWrapping, 1);
    } catch (const std::out_of_range&) {
      ++rejected;
    }
    EXPECT_EQ(rejected, 3);

    for (RankId p = 0; p < pe.n_pes(); ++p) {
      EXPECT_EQ(pe.conduit().peer_phase(p), phases[p])
          << "rejected op changed the connection phase toward " << p;
    }
    EXPECT_EQ(stats.counter("reg_rkey_misses"), faults);
    EXPECT_EQ(stats.counter("credits_granted"), credits);
    co_await pe.barrier_all();
  }));
}

TEST(RmaPath, WrappingAddressRejectedUnderEagerRegistration) {
  expect_wrapping_address_rejected(RegistrationMode::kEager);
}

TEST(RmaPath, WrappingAddressRejectedUnderOnDemandRegistration) {
  expect_wrapping_address_rejected(RegistrationMode::kOnDemand);
}

void expect_credits_survive_failed_issue(RegistrationMode registration) {
  // Three PEs on three nodes: the barrier tree joins 0-1 and 0-2, so the
  // 1 -> 2 connection carries only the RMAs under test.
  JobEnv env(credited_job(3, registration));
  int thrown = 0;
  env.run(with_init([&thrown](ShmemPe& pe) -> sim::Task<> {
    const SymAddr slot = pe.heap().allocate(64, 8);
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      std::vector<std::byte> buf(8);
      co_await pe.put(2, slot, buf);  // connects (and faults the chunk in)
      fabric::QueuePair* qp = co_await pe.conduit().connected_qp(2);
      qp->set_error();
      try {
        co_await pe.put(2, slot, buf);
      } catch (const std::logic_error&) {
        ++thrown;
      }
      try {
        co_await pe.get(2, slot, buf);
      } catch (const std::logic_error&) {
        ++thrown;
      }
      try {
        (void)co_await pe.atomic_fetch_add(2, slot, 1);
      } catch (const std::logic_error&) {
        ++thrown;
      }
    }
    co_await pe.barrier_all();
  }));
  EXPECT_EQ(thrown, 3);
  for (RankId r = 0; r < 3; ++r) {
    const sim::StatSet& stats = env.job.pe(r).stats();
    EXPECT_GT(stats.counter("credits_granted"), 0);
    EXPECT_EQ(stats.counter("credits_granted"),
              stats.counter("credits_returned"))
        << "credit leaked at pe" << r;
  }
}

TEST(RmaPath, CreditReturnedWhenIssueThrowsUnderEagerRegistration) {
  expect_credits_survive_failed_issue(RegistrationMode::kEager);
}

TEST(RmaPath, CreditReturnedWhenIssueThrowsUnderOnDemandRegistration) {
  expect_credits_survive_failed_issue(RegistrationMode::kOnDemand);
}

}  // namespace
}  // namespace odcm::shmem
