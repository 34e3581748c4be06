// Registration torture (ctest labels: torture, registration): on-demand
// memory registration under a tiny pin cap, CROSSED with on-demand
// connection eviction (max_active_connections = 2) and scripted UD fault
// plans. Every run carries the full invariant checker — rkey liveness,
// pin-cap accounting, no use after invalidation — plus an exact
// data-integrity audit: RC is reliable, so every atomic lands exactly once
// and every put's last value survives, no matter how often chunks are
// drained, connections are evicted, or UD datagrams are dropped.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/fault_plan.hpp"
#include "check/invariants.hpp"
#include "shmem/job.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

constexpr std::uint32_t kRanks = 6;
constexpr std::uint64_t kChunk = 8192;   // 8 chunks of the 64 KiB heap
constexpr std::uint64_t kPinCap = 2 * kChunk;
constexpr std::uint32_t kRounds = 8;

struct RegTortureResult {
  bool ok = true;
  std::string failure{};
  std::uint64_t events_seen = 0;
  std::int64_t evictions = 0;
  std::int64_t faults_served = 0;
};

/// One seeded run: random puts/atomics from every PE across random peers
/// and chunks, then a global audit of the final heap contents.
/// `schedule_seed` != 0 additionally permutes same-timestamp event order
/// (sim::SchedulePolicy::kSeededShuffle), crossing the registration
/// protocol with schedule perturbation.
RegTortureResult run_reg_torture(std::uint64_t seed, std::uint32_t recipe,
                                 std::uint64_t schedule_seed = 0) {
  RegTortureResult result;

  core::ConduitConfig conduit = core::proposed_design();
  conduit.max_active_connections = 2;  // connection eviction in the mix
  ShmemJobConfig config = small_job(kRanks, /*ppn=*/1, conduit);
  config.shmem.registration = RegistrationMode::kOnDemand;
  config.shmem.reg_chunk_bytes = kChunk;
  config.shmem.reg_pinned_max_bytes = kPinCap;

  JobEnv env(config);
  if (schedule_seed != 0) {
    sim::SchedulePolicy policy;
    policy.tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle;
    policy.seed = schedule_seed;
    env.engine.set_schedule_policy(policy);
  }

  check::FaultPlan plan = check::FaultPlan::from_recipe(recipe, seed, kRanks);
  plan.install(env.job.conduit_job().fabric());

  check::InvariantChecker::Options options;
  options.payloads_expected = true;
  options.ranks_per_node = 1;
  options.reg_chunk_bytes = kChunk;
  options.reg_pinned_max_bytes = kPinCap;
  options.reg_heap_bytes = config.shmem.heap_bytes;
  check::InvariantChecker checker(options);
  env.job.conduit_job().add_observer(&checker);

  // Layout per chunk: [0] atomic counter, [8 + 8*writer] one put slot per
  // writer rank. Single writer per slot + order-independent sums => the
  // final image is fully predictable.
  std::vector<std::vector<std::uint64_t>> adds(kRanks,
                                               std::vector<std::uint64_t>(8));
  std::vector<std::vector<std::uint64_t>> last_put(
      kRanks, std::vector<std::uint64_t>(8 * kRanks));

  env.job.spawn_all(with_init([&, seed](ShmemPe& pe) -> sim::Task<> {
    const RankId me = pe.rank();
    co_await pe.barrier_all();
    sim::Rng traffic(seed * 1000003ULL + me);
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      auto dst = static_cast<RankId>(traffic.next_below(kRanks));
      if (dst == me) dst = (dst + 1) % kRanks;
      auto chunk = static_cast<std::uint32_t>(traffic.next_below(8));
      SymAddr base = std::uint64_t{chunk} * kChunk;
      if (traffic.chance(0.5)) {
        ++adds[dst][chunk];
        (void)co_await pe.atomic_fetch_add(dst, base, 1);
      } else {
        std::uint64_t value =
            (std::uint64_t{me} << 32) | (round + 1);
        last_put[dst][chunk * kRanks + me] = value;
        co_await pe.put_value<std::uint64_t>(dst, base + 8 + 8 * me, value);
      }
    }
    co_await pe.barrier_all();
  }));

  try {
    env.engine.run();
    checker.check_final(env.job.conduit_job(), /*after_teardown=*/true);
  } catch (const std::exception& error) {
    result.failure = error.what();
  }

  if (result.failure.empty()) {
    for (RankId r = 0; r < kRanks; ++r) {
      ShmemPe& pe = env.job.pe(r);
      for (std::uint32_t chunk = 0; chunk < 8; ++chunk) {
        SymAddr base = std::uint64_t{chunk} * kChunk;
        std::uint64_t landed = pe.local_read<std::uint64_t>(base);
        if (landed != adds[r][chunk]) {
          result.failure = "atomic adds lost or duplicated at rank " +
                           std::to_string(r) + " chunk " +
                           std::to_string(chunk) + ": expected " +
                           std::to_string(adds[r][chunk]) + ", landed " +
                           std::to_string(landed);
          break;
        }
        for (RankId w = 0; w < kRanks; ++w) {
          std::uint64_t expect = last_put[r][chunk * kRanks + w];
          std::uint64_t got =
              pe.local_read<std::uint64_t>(base + 8 + 8 * w);
          if (got != expect) {
            result.failure =
                "put slot corrupted at rank " + std::to_string(r) +
                " chunk " + std::to_string(chunk) + " writer " +
                std::to_string(w) + ": expected " + std::to_string(expect) +
                ", got " + std::to_string(got);
            break;
          }
        }
        if (!result.failure.empty()) break;
      }
      if (!result.failure.empty()) break;
    }
  }

  result.ok = result.failure.empty();
  result.events_seen = checker.events_seen();
  sim::StatSet totals = env.job.conduit_job().aggregate_stats();
  result.evictions = totals.counter("reg_evictions");
  result.faults_served = totals.counter("reg_faults_served");
  if (!result.ok) {
    result.failure += "\n  seed=" + std::to_string(seed) +
                      " recipe=" + check::FaultPlan::recipe_name(recipe) +
                      " schedule_seed=" + std::to_string(schedule_seed) +
                      "\n  plan: " + plan.describe();
  }
  return result;
}

TEST(RegTorture, SweepAllRecipes) {
  std::int64_t total_evictions = 0;
  std::int64_t total_faults = 0;
  for (std::uint32_t recipe = 0; recipe < check::FaultPlan::kRecipeCount;
       ++recipe) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      RegTortureResult result = run_reg_torture(5000 + i, recipe);
      ASSERT_TRUE(result.ok) << result.failure;
      EXPECT_GT(result.events_seen, 0u);
      total_evictions += result.evictions;
      total_faults += result.faults_served;
    }
  }
  // The sweep must actually exercise the eviction drain, not just warm
  // hits: 8 chunks per target under a 2-chunk cap guarantees churn.
  EXPECT_GT(total_evictions, 0);
  EXPECT_GT(total_faults, 0);
}

TEST(RegTorture, SurvivesPerturbedSchedules) {
  // Schedule exploration crossed with the registration recipes: the pin-cap
  // drain, the rkey-fault protocol and the connection-eviction drain all
  // stay correct under seeded tie-break permutations of the event queue.
  for (std::uint32_t recipe : {0u, 1u, 4u}) {
    for (std::uint64_t schedule_seed : {5ull, 29ull}) {
      RegTortureResult result =
          run_reg_torture(6000 + schedule_seed, recipe, schedule_seed);
      ASSERT_TRUE(result.ok) << result.failure;
    }
  }
}

TEST(RegTorture, EvictionChurnSurvivesRequestDrops) {
  // Recipe 1 (UD ConnectRequest loss) while both the pin cap AND the
  // connection cap force constant eviction: the worst crossing of the two
  // protocols. A single deep run with more rounds than the sweep.
  RegTortureResult result = run_reg_torture(/*seed=*/424242, /*recipe=*/1);
  ASSERT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.evictions, 0);
}

}  // namespace
}  // namespace odcm::shmem
