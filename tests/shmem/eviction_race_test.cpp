// Eviction races that only show at job scale, pinned with the protocol
// invariant checker attached.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "check/invariants.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::with_init;

/// Longest time any (self, peer) pair spent in kDraining. On a lossless
/// fabric a drain resolves within one notice or ack flight.
class DrainTimer final : public core::ProtocolObserver {
 public:
  void on_event(const core::ProtocolEvent& event) override {
    if (event.kind != core::ProtocolEvent::Kind::kPhaseChange) return;
    auto key = std::make_pair(event.self, event.peer);
    if (event.to == core::PeerPhase::kDraining) {
      since_[key] = event.time;
    } else if (event.from == core::PeerPhase::kDraining) {
      longest = std::max(longest, event.time - since_[key]);
    }
  }

  sim::Time longest = 0;

 private:
  std::map<std::pair<RankId, RankId>, sim::Time> since_;
};

/// 64 PEs at 8 per node, each putting to a 12-peer working set for three
/// rounds under a 16-connection cap. Paper-sized start-up costs, as in the
/// adaptive-cap ablation, so evictions cross at the same instants.
void run_capped_working_set(std::uint64_t fabric_seed) {
  constexpr std::uint32_t kRanks = 64;
  constexpr std::uint32_t kPpn = 8;
  constexpr std::uint32_t kWorkingSet = 12;
  ShmemJobConfig config;
  config.job.ranks = kRanks;
  config.job.ranks_per_node = kPpn;
  config.job.conduit = core::proposed_design();
  config.job.conduit.max_active_connections = 16;
  if (fabric_seed != 0) config.job.fabric.seed = fabric_seed;
  config.shmem.heap_bytes = 64 << 10;
  config.shmem.modeled_heap_bytes = 256ULL << 20;
  JobEnv env(config);
  check::InvariantChecker::Options options;
  options.payloads_expected = true;
  options.ranks_per_node = kPpn;
  check::InvariantChecker checker(options);
  env.job.conduit_job().add_observer(&checker);
  DrainTimer drains;
  env.job.conduit_job().add_observer(&drains);

  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8ULL * kRanks, 8);
    co_await pe.barrier_all();
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (std::uint32_t k = 1; k <= kWorkingSet; ++k) {
        auto peer = static_cast<RankId>((pe.rank() + k * 5) % kRanks);
        if (peer == pe.rank()) continue;
        co_await pe.put_value<std::uint64_t>(peer, slot + 8ULL * pe.rank(),
                                             round);
      }
    }
  }));

  checker.check_final(env.job.conduit_job(), true);
  std::uint64_t evictions = 0;
  for (RankId r = 0; r < kRanks; ++r) {
    core::Conduit& conduit = env.job.conduit_job().conduit(r);
    evictions += static_cast<std::uint64_t>(
        conduit.stats().counter("conn_evictions"));
    for (RankId peer = 0; peer < kRanks; ++peer) {
      EXPECT_NE(conduit.peer_phase(peer), core::PeerPhase::kDraining)
          << "pe" << r << " still draining peer " << peer;
    }
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_LT(drains.longest, 100 * sim::usec);
}

// Rank 1 evicts peer 26 at the instant 26's notice for the same epoch
// arrives: the notice resolves rank 1's drain before rank 1's eviction task
// has run. That task must still send its notice, on the now-retired QP, or
// peer 26 stays draining until rank 1 happens to reconnect.
TEST(EvictionRace, CrossingNoticeBeforeEvictionTaskRuns) {
  run_capped_working_set(0);
}

TEST(EvictionRace, CrossingNoticeBeforeEvictionTaskRunsSeed1) {
  run_capped_working_set(1);
}

}  // namespace
}  // namespace odcm::shmem
