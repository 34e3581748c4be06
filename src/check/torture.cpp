#include "check/torture.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "fabric/address_space.hpp"
#include "mpi/mpi.hpp"
#include "sim/engine.hpp"

namespace odcm::check {

const char* to_string(TortureMode mode) noexcept {
  switch (mode) {
    case TortureMode::kOnDemand: return "on-demand";
    case TortureMode::kStatic: return "static";
    case TortureMode::kEvictionCapped: return "eviction-capped";
    case TortureMode::kShm: return "intranode-shm";
    case TortureMode::kMpiHybrid: return "mpi-hybrid";
  }
  return "?";
}

std::string replay_command(const TortureCase& c) {
  std::ostringstream out;
  out << "check_sweep --seed " << c.seed << " --recipe " << c.recipe
      << " --mode " << static_cast<int>(c.mode) << " --ranks " << c.ranks
      << " --ppn " << c.ppn << " --rounds " << c.rounds;
  if (c.schedule_seed != 0) {
    out << " --schedule-seed " << c.schedule_seed;
  }
  if (c.schedule_jitter != 0) {
    out << " --schedule-jitter " << c.schedule_jitter;
  }
  if (c.bulkproto) {
    out << " --bulkproto";
  }
  if (c.inject_duplicate_suppression_bug) {
    out << " --inject-dup-bug";
  }
  if (c.inject_schedule_race_bug) {
    out << " --inject-schedule-bug";
  }
  return out.str();
}

namespace {

core::JobConfig make_config(const TortureCase& c) {
  core::JobConfig config;
  config.ranks = c.ranks;
  config.ranks_per_node = c.ppn;
  switch (c.mode) {
    case TortureMode::kOnDemand:
      config.conduit = core::proposed_design();
      break;
    case TortureMode::kStatic:
      config.conduit = core::current_design();
      break;
    case TortureMode::kEvictionCapped:
      config.conduit = core::proposed_design();
      config.conduit.max_active_connections = 2;
      break;
    case TortureMode::kShm:
      config.conduit = core::proposed_design();
      config.conduit.intranode_transport = core::IntranodeTransport::kShm;
      break;
    case TortureMode::kMpiHybrid:
      config.conduit = core::proposed_design();
      config.conduit.max_active_connections = 3;
      break;
  }
  if (c.bulkproto) {
    // Small thresholds + a tiny credit window so a few-KB transfer spans
    // many fragments and every stream hits the flow-control stall path.
    config.conduit.qp_credits = 2;
    config.conduit.eager_threshold = 256;
    config.conduit.rendezvous_threshold = 2048;
    config.conduit.bulk_chunk_bytes = 512;
  }
  config.conduit.test_skip_duplicate_suppression =
      c.inject_duplicate_suppression_bug;
  config.conduit.test_skip_established_recheck = c.inject_schedule_race_bug;
  return config;
}

sim::SchedulePolicy schedule_policy_for(const TortureCase& c) {
  sim::SchedulePolicy policy;
  if (c.schedule_seed != 0) {
    policy.tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle;
    policy.seed = c.schedule_seed;
  }
  policy.jitter_max = c.schedule_jitter;
  return policy;
}

std::vector<std::byte> encode_rank(fabric::RankId rank) {
  std::vector<std::byte> out(8);
  std::uint64_t value = rank;
  std::memcpy(out.data(), &value, 8);
  return out;
}

// Bulkproto segment layout: bytes [0, 8) stay the atomic counter; the
// rendezvous-tier and pipelined-tier streams land in disjoint regions so
// the post-run audit can check both final images independently.
constexpr std::uint64_t kBulkRdvOffset = 8;
constexpr std::uint64_t kBulkRdvLen = 3000;  ///< > rendezvous_threshold
constexpr std::uint64_t kBulkPipeOffset = 4096;
constexpr std::uint64_t kBulkPipeLen = 1500;  ///< eager < len <= rdv

/// Deterministic byte pattern for bulk payloads: a (writer, round, salt)
/// triple fully determines the region image, so the audit recomputes it.
std::vector<std::byte> bulk_pattern(fabric::RankId writer,
                                    std::uint32_t round, std::uint64_t salt,
                                    std::uint64_t len) {
  std::vector<std::byte> out(len);
  for (std::uint64_t i = 0; i < len; ++i) {
    out[i] = static_cast<std::byte>(
        (writer * 131 + round * 17 + salt * 101 + i) & 0xff);
  }
  return out;
}

}  // namespace

TortureResult run_case(const TortureCase& c) {
  TortureResult result;
  const bool on_demand = c.mode != TortureMode::kStatic;
  const bool hybrid = c.mode == TortureMode::kMpiHybrid;

  sim::Engine engine;
  engine.set_schedule_policy(schedule_policy_for(c));
  core::JobConfig config = make_config(c);
  core::ConduitJob job(engine, config);

  FaultPlan plan = FaultPlan::from_recipe(c.recipe, c.seed, c.ranks);
  result.plan = plan.describe();
  plan.install(job.fabric());

  InvariantChecker::Options options;
  options.payloads_expected = on_demand;
  options.intranode_shm = c.mode == TortureMode::kShm;
  options.ranks_per_node = c.ppn;
  InvariantChecker checker(options);
  job.add_observer(&checker);

  // Per-rank RMA targets and traffic bookkeeping (the sim is single
  // threaded, so plain shared vectors are race free).
  std::vector<std::unique_ptr<fabric::AddressSpace>> spaces;
  spaces.reserve(c.ranks);
  const std::uint64_t space_bytes = c.bulkproto ? 16384 : 4096;
  for (fabric::RankId r = 0; r < c.ranks; ++r) {
    spaces.push_back(std::make_unique<fabric::AddressSpace>(
        r, fabric::make_va_base(r), space_bytes));
  }
  std::vector<fabric::MemoryRegion> mrs(c.ranks);
  std::vector<std::uint64_t> am_sent(c.ranks, 0);
  std::vector<std::uint64_t> am_received(c.ranks, 0);
  std::vector<std::uint64_t> adds_sent(c.ranks, 0);
  std::vector<std::unique_ptr<mpi::MpiComm>> comms(hybrid ? c.ranks : 0);
  std::string body_failure;

  job.spawn_all([&](core::Conduit& conduit) -> sim::Task<> {
    fabric::RankId self = conduit.rank();
    if (hybrid) {
      comms[self] = std::make_unique<mpi::MpiComm>(conduit);
    }
    conduit.register_handler(
        20, [&am_received, self](fabric::RankId,
                                 std::vector<std::byte>) -> sim::Task<> {
          ++am_received[self];
          co_return;
        });
    if (on_demand) {
      conduit.set_payload_hooks(
          [self](fabric::RankId) { return encode_rank(self); },
          [&body_failure](fabric::RankId peer,
                          std::span<const std::byte> payload) {
            std::uint64_t value = ~0ULL;
            if (payload.size() == 8) {
              std::memcpy(&value, payload.data(), 8);
            }
            if (value != peer) {
              body_failure = "piggybacked payload mismatch: expected rank " +
                             std::to_string(peer) + ", decoded " +
                             std::to_string(value);
            }
          });
    }
    if (c.bulkproto) {
      // The whole segment is registered eagerly below, so an incoming RTS
      // resolves to a single range under the segment-wide rkey.
      conduit.set_rendezvous_sink(
          [&mrs, self](fabric::RankId, core::RdvOp, fabric::VirtAddr raddr,
                       std::uint64_t len)
              -> sim::Task<std::vector<core::RdvRange>> {
            co_return std::vector<core::RdvRange>{
                core::RdvRange{raddr, len, mrs[self].rkey}};
          });
    }
    co_await conduit.init();
    mrs[self] = co_await conduit.hca().register_memory(
        *spaces[self], spaces[self]->base(), spaces[self]->size());
    // Cross-map the segment for same-node peers (no-op unless the shm
    // transport is enabled); the barrier below guarantees every peer has
    // exported before traffic starts.
    co_await conduit.shm_export(*spaces[self], spaces[self]->base(),
                                spaces[self]->size());
    if (on_demand) {
      conduit.set_ready();
    }
    co_await conduit.barrier_global();

    // Seeded traffic: each PE mixes AMs and remote atomics toward random
    // peers. RC is reliable, so every atomic must land exactly once no
    // matter what the fault plan does to the UD control channel.
    sim::Rng traffic(c.seed * 1000003ULL + self);
    for (std::uint32_t round = 0; round < c.rounds; ++round) {
      auto dst =
          static_cast<fabric::RankId>(traffic.next_below(c.ranks));
      if (traffic.chance(0.5)) {
        ++am_sent[dst];
        co_await conduit.am_send(dst, 20, std::vector<std::byte>(16));
      } else {
        ++adds_sent[dst];
        fabric::Completion wc = co_await conduit.rma(
            dst, {.kind = core::RmaKind::kFetchAdd,
                  .raddr = mrs[dst].addr,
                  .operand = 1,
                  .rkey = mrs[dst].rkey});
        if (!wc.ok() && body_failure.empty()) {
          body_failure = "atomic_fetch_add failed toward rank " +
                         std::to_string(dst);
        }
      }
      if (c.bulkproto) {
        // Large-message ring: every PE streams a rendezvous-tier and a
        // pipelined-tier put into its right neighbor each round (rounds are
        // sequential per PE, so the neighbor's final image is exactly the
        // last round's pattern). Same-node peers under the shm transport
        // carry no rendezvous — the tiers only exist on the RC path — so
        // those rides go over shm and the audit stays byte-exact.
        const auto right = static_cast<fabric::RankId>((self + 1) % c.ranks);
        std::vector<std::byte> big =
            bulk_pattern(self, round, /*salt=*/1, kBulkRdvLen);
        std::vector<std::byte> mid =
            bulk_pattern(self, round, /*salt=*/2, kBulkPipeLen);
        const fabric::VirtAddr rdv_addr =
            spaces[right]->base() + kBulkRdvOffset;
        const fabric::VirtAddr pipe_addr =
            spaces[right]->base() + kBulkPipeOffset;
        const fabric::RKey rkey = mrs[right].rkey;
        fabric::Completion w0 = co_await conduit.rma(
            right, {.kind = core::RmaKind::kPut,
                    .raddr = rdv_addr,
                    .src = big,
                    .rkey = rkey});
        fabric::Completion w1 = co_await conduit.rma(
            right, {.kind = core::RmaKind::kPut,
                    .raddr = pipe_addr,
                    .src = mid,
                    .rkey = rkey});
        if ((!w0.ok() || !w1.ok()) && body_failure.empty()) {
          body_failure = "bulk put failed toward rank " +
                         std::to_string(right);
        }
        if (!conduit.shm_routes(right) && traffic.chance(0.25)) {
          // Read-back audit mid-run: the stream above drained before
          // returning, so a pipelined get must see exactly what we put.
          std::vector<std::byte> back(kBulkPipeLen);
          (void)co_await conduit.rma(right, {.kind = core::RmaKind::kGet,
                                             .raddr = pipe_addr,
                                             .dest = back,
                                             .rkey = rkey});
          if (back != mid && body_failure.empty()) {
            body_failure = "pipelined read-back mismatch at rank " +
                           std::to_string(self) + " round " +
                           std::to_string(round);
          }
        }
      }
      if (hybrid) {
        // Ring of tagged two-sided exchanges layered over the same conduit:
        // every PE posts two back-to-back isends with the SAME (dst, tag) to
        // its right neighbor and two irecvs from its left, then checks the
        // payloads arrive in posting order (MPI's non-overtaking rule). The
        // per-round tag also churns the matchbox table, which the audit
        // below requires to drain back to zero.
        mpi::MpiComm& comm = *comms[self];
        const auto right = static_cast<fabric::RankId>((self + 1) % c.ranks);
        const auto left =
            static_cast<fabric::RankId>((self + c.ranks - 1) % c.ranks);
        auto encode = [](std::uint64_t v) {
          std::vector<std::byte> out(8);
          std::memcpy(out.data(), &v, 8);
          return out;
        };
        const std::uint64_t base =
            (static_cast<std::uint64_t>(self) << 32) | (round * 2ULL);
        mpi::MpiComm::Request r0 = comm.irecv(left, round);
        mpi::MpiComm::Request r1 = comm.irecv(left, round);
        mpi::MpiComm::Request s0 = comm.isend(right, round, encode(base));
        mpi::MpiComm::Request s1 =
            comm.isend(right, round, encode(base + 1));
        std::vector<mpi::MpiComm::Request> sends;
        sends.push_back(s0);
        sends.push_back(s1);
        // Bulkproto: one above-threshold tagged message per round rides
        // the conduit's rendezvous (RTS / CTS / fragment stream / FIN) on
        // top of the eager FIFO pair above; its distinct tag keeps it out
        // of the non-overtaking chain under audit.
        std::vector<mpi::MpiComm::Request> bulk_recv;
        std::vector<std::byte> bulk_want;
        if (c.bulkproto) {
          const std::uint64_t btag = 1000000ULL + round;
          bulk_recv.push_back(comm.irecv(left, btag));
          sends.push_back(comm.isend(
              right, btag, bulk_pattern(self, round, /*salt=*/3,
                                        kBulkRdvLen)));
          bulk_want = bulk_pattern(left, round, /*salt=*/3, kBulkRdvLen);
        }
        std::vector<std::byte> m0 = co_await comm.wait(r0);
        std::vector<std::byte> m1 = co_await comm.wait(r1);
        if (!bulk_recv.empty()) {
          std::vector<std::byte> bm = co_await comm.wait(bulk_recv.front());
          if (bm != bulk_want && body_failure.empty()) {
            body_failure = "MPI rendezvous payload mismatch at rank " +
                           std::to_string(self) + " round " +
                           std::to_string(round);
          }
        }
        co_await comm.waitall(std::move(sends));
        const std::uint64_t want =
            (static_cast<std::uint64_t>(left) << 32) | (round * 2ULL);
        std::uint64_t v0 = ~0ULL, v1 = ~0ULL;
        if (m0.size() == 8) std::memcpy(&v0, m0.data(), 8);
        if (m1.size() == 8) std::memcpy(&v1, m1.data(), 8);
        if ((v0 != want || v1 != want + 1) && body_failure.empty()) {
          body_failure =
              "MPI FIFO violation at rank " + std::to_string(self) +
              " round " + std::to_string(round) + ": expected " +
              std::to_string(want) + "," + std::to_string(want + 1) +
              ", got " + std::to_string(v0) + "," + std::to_string(v1);
        }
      }
    }
    co_await conduit.barrier_global();
    if (hybrid && comms[self]->matchbox_count() != 0 &&
        body_failure.empty()) {
      body_failure = "matchboxes leaked at rank " + std::to_string(self) +
                     ": " + std::to_string(comms[self]->matchbox_count()) +
                     " live after quiesce";
    }
  });

  try {
    engine.run();
    checker.check_final(job, /*after_teardown=*/true);
  } catch (const std::exception& error) {
    result.failure = error.what();
  }

  if (result.failure.empty() && !body_failure.empty()) {
    result.failure = body_failure;
  }
  if (result.failure.empty()) {
    // Data integrity: counters in each PE's segment and AM tallies must
    // reconcile exactly with what was sent.
    for (fabric::RankId r = 0; r < c.ranks; ++r) {
      std::uint64_t landed = 0;
      std::memcpy(&landed, spaces[r]->bytes().data(), 8);
      if (landed != adds_sent[r]) {
        result.failure = "atomic adds lost or duplicated at rank " +
                         std::to_string(r) + ": expected " +
                         std::to_string(adds_sent[r]) + ", landed " +
                         std::to_string(landed);
        break;
      }
      if (am_received[r] != am_sent[r]) {
        result.failure = "active messages lost at rank " +
                         std::to_string(r) + ": expected " +
                         std::to_string(am_sent[r]) + ", received " +
                         std::to_string(am_received[r]);
        break;
      }
      if (c.bulkproto && c.rounds > 0) {
        // The left neighbor wrote both bulk regions once per round, rounds
        // strictly in order, so the final image must be the last round's
        // pattern — any lost, duplicated or reordered fragment shows up as
        // a byte mismatch here.
        const auto left =
            static_cast<fabric::RankId>((r + c.ranks - 1) % c.ranks);
        const std::uint32_t last = c.rounds - 1;
        const std::vector<std::byte> rdv_want =
            bulk_pattern(left, last, /*salt=*/1, kBulkRdvLen);
        const std::vector<std::byte> pipe_want =
            bulk_pattern(left, last, /*salt=*/2, kBulkPipeLen);
        std::span<const std::byte> image = spaces[r]->bytes();
        if (!std::equal(rdv_want.begin(), rdv_want.end(),
                        image.begin() + kBulkRdvOffset)) {
          result.failure = "rendezvous region corrupt at rank " +
                           std::to_string(r) + " (writer " +
                           std::to_string(left) + ")";
          break;
        }
        if (!std::equal(pipe_want.begin(), pipe_want.end(),
                        image.begin() + kBulkPipeOffset)) {
          result.failure = "pipelined region corrupt at rank " +
                           std::to_string(r) + " (writer " +
                           std::to_string(left) + ")";
          break;
        }
      }
    }
  }

  result.ok = result.failure.empty();
  result.events_seen = checker.events_seen();
  {
    sim::StatSet totals = job.aggregate_stats();
    result.shm_ops = static_cast<std::uint64_t>(
        totals.counter("rma_put_shm") + totals.counter("rma_get_shm") +
        totals.counter("rma_atomic_shm") + totals.counter("am_sent_shm"));
    result.mpi_msgs =
        static_cast<std::uint64_t>(totals.counter("mpi_send"));
    result.bulk_fragments =
        static_cast<std::uint64_t>(totals.counter("bulk_fragments_sent"));
  }
  result.ud_datagrams = job.fabric().ud_datagrams_sent();
  result.fault_decisions = plan.decisions();
  if (!result.ok) {
    result.failure += "\n  replay: " + replay_command(c) + "\n  plan: " +
                      result.plan;
  }
  return result;
}

ScheduleExploration explore_schedules(TortureCase base,
                                      std::uint32_t schedule_seeds,
                                      std::uint64_t schedule_seed_base,
                                      sim::Time jitter) {
  ScheduleExploration out;
  out.minimized = base;
  for (std::uint32_t i = 0; i < schedule_seeds; ++i) {
    TortureCase trial = base;
    trial.schedule_seed = schedule_seed_base + i;
    trial.schedule_jitter = jitter;
    ++out.schedules_run;
    if (run_case(trial).ok) continue;

    out.ok = false;
    out.failing = trial;
    // Greedy first-failure minimization: each step re-runs under the SAME
    // schedule seed (the simulation is deterministic, so "still fails" is
    // a yes/no question, not a probability) and keeps the shrink only if
    // the failure survives.
    TortureCase minimized = trial;
    auto still_fails = [](const TortureCase& t) { return !run_case(t).ok; };
    if (minimized.recipe != 0) {
      TortureCase t = minimized;
      t.recipe = 0;  // weaken the fault plan to the clean recipe
      if (still_fails(t)) minimized = t;
    }
    if (minimized.schedule_jitter != 0) {
      TortureCase t = minimized;
      t.schedule_jitter = 0;
      if (still_fails(t)) minimized = t;
    }
    while (minimized.rounds > 1) {
      TortureCase t = minimized;
      t.rounds /= 2;
      if (!still_fails(t)) break;
      minimized = t;
    }
    out.minimized = minimized;
    out.failure = run_case(minimized);
    out.replay = replay_command(minimized);
    return out;
  }
  return out;
}

}  // namespace odcm::check
