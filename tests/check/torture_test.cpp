// The torture suite (ctest label: torture): multi-seed sweeps of the
// on-demand handshake under scripted fault plans, across connection modes,
// with the invariant checker attached to every run. On failure each case
// prints the exact `check_sweep` replay command.
#include <gtest/gtest.h>

#include <string>

#include "check/torture.hpp"
#include "sim/engine.hpp"

namespace odcm::check {
namespace {

/// Sweep `seeds_per_recipe` seeds over every recipe in [0, recipes) for
/// one mode; returns the number of cases run, failing the test (with
/// replay instructions) on the first violation.
std::uint32_t sweep(TortureMode mode, std::uint32_t recipes,
                    std::uint32_t seeds_per_recipe,
                    std::uint64_t seed_base) {
  std::uint32_t cases = 0;
  for (std::uint32_t recipe = 0; recipe < recipes; ++recipe) {
    for (std::uint32_t i = 0; i < seeds_per_recipe; ++i) {
      TortureCase c;
      c.seed = seed_base + i;
      c.recipe = recipe;
      c.mode = mode;
      TortureResult result = run_case(c);
      EXPECT_TRUE(result.ok)
          << "mode=" << to_string(mode)
          << " recipe=" << FaultPlan::recipe_name(recipe) << "\n"
          << result.failure;
      if (!result.ok) return cases;
      ++cases;
    }
  }
  return cases;
}

TEST(Torture, ModeNamesAreTheCheckSweepSpelling) {
  EXPECT_STREQ(to_string(TortureMode::kOnDemand), "on-demand");
  EXPECT_STREQ(to_string(TortureMode::kStatic), "static");
  EXPECT_STREQ(to_string(TortureMode::kEvictionCapped), "eviction-capped");
  EXPECT_STREQ(to_string(TortureMode::kShm), "intranode-shm");
  EXPECT_STREQ(to_string(TortureMode::kMpiHybrid), "mpi-hybrid");
}

TEST(Torture, OnDemandSweep) {
  EXPECT_EQ(sweep(TortureMode::kOnDemand, FaultPlan::kRecipeCount,
                  /*seeds_per_recipe=*/60, /*seed_base=*/1000),
            8u * 60u);
}

TEST(Torture, EvictionCappedSweep) {
  EXPECT_EQ(sweep(TortureMode::kEvictionCapped, FaultPlan::kRecipeCount,
                  /*seeds_per_recipe=*/50, /*seed_base=*/2000),
            8u * 50u);
}

TEST(Torture, StaticSweep) {
  // Static mode does not use the UD control channel, but the invariant
  // checker and data-integrity audit still apply; a few recipes suffice.
  EXPECT_EQ(sweep(TortureMode::kStatic, /*recipes=*/4,
                  /*seeds_per_recipe=*/40, /*seed_base=*/3000),
            4u * 40u);
}

TEST(Torture, IntranodeShmSweep) {
  // Mixed-coherence pin: same-node traffic rides the shm transport while
  // cross-node traffic handshakes over the lossy UD channel; the
  // data-integrity audit (exact atomic sums, AM accounting) and the
  // invariant checker must hold under every fault recipe.
  EXPECT_EQ(sweep(TortureMode::kShm, FaultPlan::kRecipeCount,
                  /*seeds_per_recipe=*/40, /*seed_base=*/4000),
            8u * 40u);
}

TEST(Torture, IntranodeShmCarriesTrafficUnderUdLoss) {
  // The shm path must actually be exercised (not silently routed over RC)
  // even while UD ConnectRequest loss is hammering the cross-node pairs.
  TortureCase c;
  c.seed = 4242;
  c.recipe = 1;  // request_drop: UD ConnectRequest loss
  c.mode = TortureMode::kShm;
  TortureResult result = run_case(c);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.shm_ops, 0u);
  EXPECT_GT(result.ud_datagrams, 0u);  // cross-node handshakes still happen
}

TEST(Torture, MpiHybridSweep) {
  // MPI two-sided traffic (ring isend/irecv with per-round tags) layered
  // over the same on-demand conduit, under every fault recipe. Each case
  // also audits FIFO matching for back-to-back same-(src, tag) sends and
  // that every matchbox is reclaimed once drained.
  EXPECT_EQ(sweep(TortureMode::kMpiHybrid, FaultPlan::kRecipeCount,
                  /*seeds_per_recipe=*/30, /*seed_base=*/5000),
            8u * 30u);
}

TEST(Torture, MpiHybridCarriesTwoSidedTraffic) {
  TortureCase c;
  c.seed = 4711;
  c.recipe = 4;  // chaos_mix
  c.mode = TortureMode::kMpiHybrid;
  TortureResult result = run_case(c);
  EXPECT_TRUE(result.ok) << result.failure;
  // 2 isends per PE per round, plus whatever the collectives add.
  EXPECT_GE(result.mpi_msgs, 2ull * 6 * 4);
}

// ---- large-message tiering under faults (ctest label: bulkproto) ----

/// Like sweep(), with the bulk-protocol traffic mix (rendezvous ring
/// puts, pipelined fragment streams, read-back gets, and — in hybrid
/// mode — above-threshold tagged messages) layered on every round.
std::uint32_t bulk_sweep(TortureMode mode, std::uint32_t recipes,
                         std::uint32_t seeds_per_recipe,
                         std::uint64_t seed_base) {
  std::uint32_t cases = 0;
  for (std::uint32_t recipe = 0; recipe < recipes; ++recipe) {
    for (std::uint32_t i = 0; i < seeds_per_recipe; ++i) {
      TortureCase c;
      c.seed = seed_base + i;
      c.recipe = recipe;
      c.mode = mode;
      c.bulkproto = true;
      TortureResult result = run_case(c);
      EXPECT_TRUE(result.ok)
          << "mode=" << to_string(mode)
          << " recipe=" << FaultPlan::recipe_name(recipe) << " (bulkproto)\n"
          << result.failure;
      if (!result.ok) return cases;
      ++cases;
    }
  }
  return cases;
}

TEST(Torture, BulkprotoSweepAllRecipes) {
  // Credit/fragment conservation and the rendezvous state machine must
  // hold under every UD fault recipe, in the plain on-demand mode and the
  // two dangerous compositions: eviction-capped (a QP can be evicted
  // between a CTS and its fragment stream) and hybrid (MPI rendezvous
  // control rides the same AM channel the faults are hammering).
  EXPECT_EQ(bulk_sweep(TortureMode::kOnDemand, FaultPlan::kRecipeCount,
                       /*seeds_per_recipe=*/12, /*seed_base=*/6000),
            8u * 12u);
  EXPECT_EQ(bulk_sweep(TortureMode::kEvictionCapped, FaultPlan::kRecipeCount,
                       /*seeds_per_recipe=*/12, /*seed_base=*/6200),
            8u * 12u);
  EXPECT_EQ(bulk_sweep(TortureMode::kMpiHybrid, FaultPlan::kRecipeCount,
                       /*seeds_per_recipe=*/8, /*seed_base=*/6400),
            8u * 8u);
  EXPECT_EQ(bulk_sweep(TortureMode::kShm, FaultPlan::kRecipeCount,
                       /*seeds_per_recipe=*/8, /*seed_base=*/6600),
            8u * 8u);
  EXPECT_EQ(bulk_sweep(TortureMode::kStatic, /*recipes=*/4,
                       /*seeds_per_recipe=*/8, /*seed_base=*/6800),
            4u * 8u);
}

TEST(Torture, BulkprotoActuallyMovesFragments) {
  // Guard against the sweep silently degrading to eager-only traffic: a
  // clean bulkproto case must stream a healthy number of fragments.
  TortureCase c;
  c.seed = 6100;
  c.recipe = 0;  // clean
  c.bulkproto = true;
  TortureResult result = run_case(c);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_GT(result.bulk_fragments, 0u);
}

TEST(Torture, BulkprotoEvictionMidRendezvousUnderPerturbedSchedules) {
  // The dangerous interleaving the issue calls out: a rendezvous stream
  // in flight while the connection manager evicts QPs under a 2-slot cap,
  // re-run under perturbed tie-break seeds and jitter so the
  // eviction-vs-CTS and eviction-vs-fragment races actually fire.
  const std::uint32_t recipes[] = {2, 4, 6};  // heavy_loss, chaos_mix,
                                              // reply_drop
  for (std::uint32_t recipe : recipes) {
    TortureCase base;
    base.seed = 9100 + recipe;
    base.recipe = recipe;
    base.mode = TortureMode::kEvictionCapped;
    base.bulkproto = true;
    ScheduleExploration plain = explore_schedules(base, /*schedule_seeds=*/4,
                                                  /*schedule_seed_base=*/1);
    EXPECT_TRUE(plain.ok) << "recipe=" << FaultPlan::recipe_name(recipe)
                          << " (bulkproto)\n" << plain.failure.failure
                          << "\n  replay: " << plain.replay;
    ScheduleExploration jittered = explore_schedules(
        base, /*schedule_seeds=*/2, /*schedule_seed_base=*/101,
        /*jitter=*/200);
    EXPECT_TRUE(jittered.ok)
        << "recipe=" << FaultPlan::recipe_name(recipe)
        << " (bulkproto, jittered)\n" << jittered.failure.failure
        << "\n  replay: " << jittered.replay;
  }
}

TEST(Torture, BulkprotoReplayCommandRoundTrips) {
  TortureCase c;
  c.seed = 11;
  c.bulkproto = true;
  std::string command = replay_command(c);
  EXPECT_NE(command.find("--bulkproto"), std::string::npos) << command;
}

TEST(Torture, BulkprotoCaseIsDeterministic) {
  TortureCase c;
  c.seed = 171;
  c.recipe = 4;  // chaos_mix
  c.mode = TortureMode::kEvictionCapped;
  c.bulkproto = true;
  c.schedule_seed = 3;
  TortureResult first = run_case(c);
  TortureResult second = run_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.events_seen, second.events_seen);
  EXPECT_EQ(first.bulk_fragments, second.bulk_fragments);
  EXPECT_EQ(first.fault_decisions, second.fault_decisions);
}

TEST(Torture, ReplayCommandRoundTrips) {
  TortureCase c;
  c.seed = 424242;
  c.recipe = 6;
  c.mode = TortureMode::kEvictionCapped;
  c.schedule_seed = 17;
  c.schedule_jitter = 250;
  c.inject_schedule_race_bug = true;
  std::string command = replay_command(c);
  EXPECT_NE(command.find("--seed 424242"), std::string::npos) << command;
  EXPECT_NE(command.find("--recipe 6"), std::string::npos) << command;
  EXPECT_NE(command.find("--mode 2"), std::string::npos) << command;
  EXPECT_NE(command.find("--schedule-seed 17"), std::string::npos) << command;
  EXPECT_NE(command.find("--schedule-jitter 250"), std::string::npos)
      << command;
  EXPECT_NE(command.find("--inject-schedule-bug"), std::string::npos)
      << command;
}

TEST(Torture, CaseIsDeterministic) {
  TortureCase c;
  c.seed = 77;
  c.recipe = 4;  // chaos_mix
  TortureResult first = run_case(c);
  TortureResult second = run_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.events_seen, second.events_seen);
  EXPECT_EQ(first.ud_datagrams, second.ud_datagrams);
  EXPECT_EQ(first.fault_decisions, second.fault_decisions);
  EXPECT_EQ(first.plan, second.plan);
}

TEST(Torture, InjectedDuplicateSuppressionBugIsCaughtQuickly) {
  // Acceptance criterion: a deliberately broken protocol (the server
  // treats duplicate requests for an established connection as fresh ones)
  // must be caught by the checker within 100 seeds. The reply-drop recipe
  // forces the exact trigger: the server's ConnectReply is lost, so the
  // client's RTO retransmit arrives while the server is already Connected
  // and the buggy branch re-serves it (an illegal phase transition).
  std::uint32_t caught_at = 0;
  for (std::uint32_t i = 1; i <= 100; ++i) {
    TortureCase c;
    c.seed = i;
    c.recipe = 6;  // reply_drop
    c.inject_duplicate_suppression_bug = true;
    TortureResult result = run_case(c);
    if (!result.ok) {
      caught_at = i;
      EXPECT_NE(result.failure.find("illegal transition"), std::string::npos)
          << result.failure;
      break;
    }
  }
  EXPECT_GT(caught_at, 0u)
      << "checker failed to catch the injected bug within 100 seeds";
  EXPECT_LE(caught_at, 100u);
}

TEST(Torture, ScheduleSweepAllModesClean) {
  // The tentpole sweep: every connection mode crossed with every fault
  // recipe, each base case re-run under perturbed tie-break seeds (plus a
  // jitter pass). All current protocols must hold under every explored
  // schedule; when one does not, the minimized replay line pinpoints it.
  const TortureMode modes[] = {TortureMode::kOnDemand, TortureMode::kStatic,
                               TortureMode::kEvictionCapped,
                               TortureMode::kShm, TortureMode::kMpiHybrid};
  for (TortureMode mode : modes) {
    for (std::uint32_t recipe = 0; recipe < FaultPlan::kRecipeCount;
         ++recipe) {
      TortureCase base;
      base.seed = 9000 + recipe;
      base.recipe = recipe;
      base.mode = mode;
      ScheduleExploration plain = explore_schedules(base, /*schedule_seeds=*/4,
                                                    /*schedule_seed_base=*/1);
      EXPECT_TRUE(plain.ok) << "mode=" << to_string(mode)
                            << " recipe=" << FaultPlan::recipe_name(recipe)
                            << "\n" << plain.failure.failure
                            << "\n  replay: " << plain.replay;
      ScheduleExploration jittered = explore_schedules(
          base, /*schedule_seeds=*/2, /*schedule_seed_base=*/101,
          /*jitter=*/200);
      EXPECT_TRUE(jittered.ok)
          << "mode=" << to_string(mode)
          << " recipe=" << FaultPlan::recipe_name(recipe) << " (jittered)\n"
          << jittered.failure.failure << "\n  replay: " << jittered.replay;
    }
  }
}

TEST(Torture, SeededScheduleBugFoundWithinBudget) {
  // Acceptance criterion for the explorer: a deliberately seeded
  // ordering-sensitive bug (ensure_connected trusts the established-gate
  // wakeup without re-checking the peer phase) is INVISIBLE under the
  // historical insertion order for this case, and must be flushed out
  // within a 64-schedule-seed budget.
  TortureCase base;
  base.seed = 1000;
  base.recipe = 2;  // heavy_loss: retransmissions + eviction churn
  base.mode = TortureMode::kEvictionCapped;
  base.inject_schedule_race_bug = true;

  TortureResult insertion = run_case(base);
  ASSERT_TRUE(insertion.ok)
      << "expected the seeded bug to hide under insertion order, got:\n"
      << insertion.failure;

  ScheduleExploration exploration =
      explore_schedules(base, /*schedule_seeds=*/64, /*schedule_seed_base=*/1);
  ASSERT_FALSE(exploration.ok)
      << "explorer missed the seeded ordering bug within 64 schedule seeds";
  EXPECT_LE(exploration.schedules_run, 64u);
  EXPECT_NE(exploration.failure.failure.find("seeded ordering bug"),
            std::string::npos)
      << exploration.failure.failure;
  EXPECT_NE(exploration.replay.find("--schedule-seed"), std::string::npos)
      << exploration.replay;
  EXPECT_NE(exploration.replay.find("--inject-schedule-bug"),
            std::string::npos)
      << exploration.replay;
}

TEST(Torture, PinnedIrecvMatchingOrderRegression) {
  // Regression pin for the race the exploration sweep found in MpiComm:
  // two irecvs posted for the same (src, tag) raced their detached
  // receiver tasks for the mailbox, so a perturbed tie-break order matched
  // them out of posting order (MPI's non-overtaking rule). Minimized
  // replay: clean fabric, one round, schedule seed 1. Fixed by the
  // per-(src, tag) receive chain in MpiComm::irecv.
  TortureCase c;
  c.seed = 1000;
  c.recipe = 0;  // clean: the race needs no faults, only the schedule
  c.mode = TortureMode::kMpiHybrid;
  c.rounds = 1;
  c.schedule_seed = 1;
  TortureResult result = run_case(c);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(Torture, PerturbedCaseIsDeterministic) {
  // The replay contract: (case, schedule_seed, jitter) fully determines
  // the run, including under perturbation.
  TortureCase c;
  c.seed = 77;
  c.recipe = 4;  // chaos_mix
  c.mode = TortureMode::kEvictionCapped;
  c.schedule_seed = 13;
  c.schedule_jitter = 300;
  TortureResult first = run_case(c);
  TortureResult second = run_case(c);
  EXPECT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.events_seen, second.events_seen);
  EXPECT_EQ(first.ud_datagrams, second.ud_datagrams);
  EXPECT_EQ(first.fault_decisions, second.fault_decisions);
}

TEST(Torture, KilledUdEndpointFailsLoudlyNotSilently) {
  // Killing the server's UD QP mid-handshake must surface as a loud,
  // deterministic error (retry budget exhausted or engine deadlock
  // detection), never as a hang or silent data loss.
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 2;
  config.ranks_per_node = 2;
  config.conduit = core::proposed_design();
  core::ConduitJob job(engine, config);

  FaultPlan plan(1);
  FaultRule kill;
  kill.klass = PacketClass::kConnectRequest;
  kill.dst = 1;
  kill.count = 1;
  kill.kill_dst_qp = true;
  plan.add_rule(kill);
  plan.install(job.fabric());

  job.spawn_all([](core::Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](fabric::RankId,
                              std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
    }
    co_await c.barrier_intranode();
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

}  // namespace
}  // namespace odcm::check
