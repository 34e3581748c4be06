// Unit tests for the protocol invariant checker: the legality table, the
// observer-mirror cross-check, and end-to-end operation on real jobs.
#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.hpp"
#include "sim/engine.hpp"

namespace odcm::check {
namespace {

using core::PeerPhase;
using core::PeerRole;
using core::ProtocolEvent;

ProtocolEvent phase_event(fabric::RankId self, fabric::RankId peer,
                          PeerPhase from, PeerPhase to,
                          PeerRole role = PeerRole::kClient) {
  ProtocolEvent event;
  event.kind = ProtocolEvent::Kind::kPhaseChange;
  event.self = self;
  event.peer = peer;
  event.from = from;
  event.to = to;
  event.role = role;
  return event;
}

ProtocolEvent simple(ProtocolEvent::Kind kind, fabric::RankId self,
                     fabric::RankId peer) {
  ProtocolEvent event;
  event.kind = kind;
  event.self = self;
  event.peer = peer;
  return event;
}

TEST(InvariantChecker, AcceptsTheCanonicalClientPath) {
  InvariantChecker checker;
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kRequesting));
  checker.on_event(phase_event(0, 1, PeerPhase::kRequesting,
                               PeerPhase::kEstablishing));
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  checker.on_event(phase_event(0, 1, PeerPhase::kEstablishing,
                               PeerPhase::kConnected));
  EXPECT_EQ(checker.events_seen(), 4u);
}

TEST(InvariantChecker, RejectsIllegalTransition) {
  InvariantChecker checker;
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  EXPECT_THROW(checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                                            PeerPhase::kConnected,
                                            PeerRole::kClient)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsUnobservedMutation) {
  // The event claims the conduit was in kRequesting but the observer never
  // saw it leave kIdle: some code path mutated the phase directly.
  InvariantChecker checker;
  EXPECT_THROW(checker.on_event(phase_event(0, 1, PeerPhase::kRequesting,
                                            PeerPhase::kEstablishing)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsConnectedWithoutQp) {
  InvariantChecker checker;
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kEstablishing,
                               PeerRole::kServer));
  EXPECT_THROW(checker.on_event(phase_event(0, 1, PeerPhase::kEstablishing,
                                            PeerPhase::kConnected,
                                            PeerRole::kServer)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsConnectedBeforePayloadWhenExpected) {
  InvariantChecker::Options options;
  options.payloads_expected = true;
  InvariantChecker checker(options);
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kEstablishing,
                               PeerRole::kServer));
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  EXPECT_THROW(checker.on_event(phase_event(0, 1, PeerPhase::kEstablishing,
                                            PeerPhase::kConnected,
                                            PeerRole::kServer)),
               InvariantViolation);
}

TEST(InvariantChecker, AcceptsConnectedAfterPayload) {
  InvariantChecker::Options options;
  options.payloads_expected = true;
  InvariantChecker checker(options);
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kEstablishing,
                               PeerRole::kServer));
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  checker.on_event(simple(ProtocolEvent::Kind::kPayloadInstalled, 0, 1));
  checker.on_event(phase_event(0, 1, PeerPhase::kEstablishing,
                               PeerPhase::kConnected, PeerRole::kServer));
}

TEST(InvariantChecker, RejectsRetransmitOverBudget) {
  InvariantChecker checker;
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kRequesting));
  ProtocolEvent retransmit = simple(ProtocolEvent::Kind::kRetransmit, 0, 1);
  retransmit.attempt = core::kConnMaxRetries;
  checker.on_event(retransmit);
  retransmit.attempt = core::kConnMaxRetries + 1;
  EXPECT_THROW(checker.on_event(retransmit), InvariantViolation);
}

TEST(InvariantChecker, RejectsCollisionWonByHigherRank) {
  InvariantChecker checker;
  checker.on_event(phase_event(3, 5, PeerPhase::kIdle,
                               PeerPhase::kRequesting));
  // Rank 3 absorbing a collision with rank 5 means the higher rank's
  // request won: the deterministic tie-break is broken.
  EXPECT_THROW(checker.on_event(simple(ProtocolEvent::Kind::kCollision, 3, 5)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsDoubleQpBind) {
  InvariantChecker checker;
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  EXPECT_THROW(checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsRmaTowardUnconnectedPeer) {
  InvariantChecker checker;
  EXPECT_THROW(
      checker.on_event(simple(ProtocolEvent::Kind::kRdmaIssued, 0, 1)),
      InvariantViolation);
}

TEST(InvariantChecker, ViolationReportCarriesHistory) {
  InvariantChecker checker;
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kRequesting));
  try {
    checker.on_event(simple(ProtocolEvent::Kind::kRdmaIssued, 0, 1));
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    std::string what = violation.what();
    EXPECT_NE(what.find("recent events"), std::string::npos) << what;
    EXPECT_NE(what.find("Idle->Requesting"), std::string::npos) << what;
  }
}

TEST(InvariantChecker, ShmIssuedToSameNodePeerNeedsNoConnection) {
  // Regression (transport selection): with the shm transport enabled,
  // same-node pairs legitimately produce ZERO connection events — a shm op
  // with no preceding handshake must be legal.
  InvariantChecker::Options options;
  options.intranode_shm = true;
  options.ranks_per_node = 4;
  InvariantChecker checker(options);
  checker.on_event(simple(ProtocolEvent::Kind::kShmIssued, 0, 1));
  checker.on_event(simple(ProtocolEvent::Kind::kShmIssued, 3, 0));
  EXPECT_EQ(checker.events_seen(), 2u);
}

TEST(InvariantChecker, RejectsShmIssuedAcrossNodes) {
  InvariantChecker::Options options;
  options.intranode_shm = true;
  options.ranks_per_node = 4;
  InvariantChecker checker(options);
  // Ranks 0 and 5 live on different nodes: shared memory cannot reach.
  EXPECT_THROW(
      checker.on_event(simple(ProtocolEvent::Kind::kShmIssued, 0, 5)),
      InvariantViolation);
}

TEST(InvariantChecker, RejectsShmIssuedWhenShmDisabled) {
  InvariantChecker checker;
  EXPECT_THROW(
      checker.on_event(simple(ProtocolEvent::Kind::kShmIssued, 0, 1)),
      InvariantViolation);
}

TEST(InvariantChecker, RejectsRcRmaTowardSameNodePeerUnderShm) {
  // A connection to a same-node peer may exist (static mode still builds
  // the full mesh), but routing RC RMA over it bypasses transport
  // selection.
  InvariantChecker::Options options;
  options.intranode_shm = true;
  options.ranks_per_node = 4;
  InvariantChecker checker(options);
  checker.on_event(phase_event(0, 1, PeerPhase::kIdle,
                               PeerPhase::kRequesting));
  checker.on_event(phase_event(0, 1, PeerPhase::kRequesting,
                               PeerPhase::kEstablishing));
  checker.on_event(simple(ProtocolEvent::Kind::kQpBound, 0, 1));
  checker.on_event(phase_event(0, 1, PeerPhase::kEstablishing,
                               PeerPhase::kConnected));
  EXPECT_THROW(
      checker.on_event(simple(ProtocolEvent::Kind::kRdmaIssued, 0, 1)),
      InvariantViolation);
}

// ---- registration invariants (on-demand memory registration) ----

ProtocolEvent reg_event(ProtocolEvent::Kind kind, fabric::RankId self,
                        fabric::RankId peer, std::uint32_t chunk,
                        std::uint64_t rkey) {
  ProtocolEvent event;
  event.kind = kind;
  event.self = self;
  event.peer = peer;
  event.attempt = chunk;
  event.detail = rkey;
  return event;
}

InvariantChecker::Options reg_options(std::uint64_t cap = 0) {
  InvariantChecker::Options options;
  options.reg_chunk_bytes = 8192;
  options.reg_pinned_max_bytes = cap;
  return options;
}

TEST(InvariantChecker, RejectsRegEventsWhenNotConfigured) {
  InvariantChecker checker;  // reg_chunk_bytes == 0
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsSeededUseAfterInvalidationAck) {
  // The acceptance scenario: target 1 pins chunk 2 under rkey 50, the
  // initiator 0 acknowledges its invalidation, and then a (seeded-buggy)
  // initiator uses the dead rkey anyway. The checker must reject the use
  // even though the target has not deregistered yet.
  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkEvicted, 1, 1, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegRkeyInvalidated, 0, 1, 2, 50));
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegRkeyUsed, 0, 1, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, AcceptsUseDuringDrainByUnackedSharer) {
  // A *different* initiator that has not acked yet may legally keep using
  // the rkey while the drain is in flight — the target holds the
  // registration until every sharer acked.
  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkEvicted, 1, 1, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegRkeyInvalidated, 0, 1, 2, 50));
  // Initiator 3 never saw (or never acked) the notice: still legal.
  checker.on_event(reg_event(ProtocolEvent::Kind::kRegRkeyUsed, 3, 1, 2, 50));
  EXPECT_EQ(checker.events_seen(), 4u);
}

TEST(InvariantChecker, RejectsUseOfUnregisteredRkey) {
  InvariantChecker checker(reg_options());
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegRkeyUsed, 0, 1, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsUseAfterDeregistration) {
  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkEvicted, 1, 1, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkDeregistered, 1, 1, 2, 50));
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegRkeyUsed, 0, 1, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsGrantOfUnpinnedRkey) {
  InvariantChecker checker(reg_options());
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegFaultServed, 0, 1, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsRkeyReuseAndDoublePin) {
  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  // Same rkey again (rkeys are never reused per HCA).
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 3, 50)),
               InvariantViolation);
  // Same chunk under a second rkey while still live.
  InvariantChecker checker2(reg_options());
  checker2.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  EXPECT_THROW(checker2.on_event(reg_event(
                   ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 51)),
               InvariantViolation);
}

TEST(InvariantChecker, RejectsPinOverCap) {
  // Cap of exactly one 8192-byte chunk: a second simultaneous pin must
  // blow the budget.
  InvariantChecker checker(reg_options(8192));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 0, 50));
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 1, 51)),
               InvariantViolation);
}

TEST(InvariantChecker, PartialLastChunkCountsExactBytes) {
  // Heap of 20 KiB with 8 KiB chunks: chunk 2 is only 4 KiB. With the
  // heap size configured, pinning all three chunks fits a 20 KiB cap.
  InvariantChecker::Options options = reg_options(20 * 1024);
  options.reg_heap_bytes = 20 * 1024;
  InvariantChecker checker(options);
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 0, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 1, 51));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 52));
  EXPECT_EQ(checker.events_seen(), 3u);
}

TEST(InvariantChecker, RejectsDeregWithoutEviction) {
  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  EXPECT_THROW(checker.on_event(reg_event(
                   ProtocolEvent::Kind::kRegChunkDeregistered, 1, 1, 2, 50)),
               InvariantViolation);
}

TEST(InvariantChecker, FinalAuditRejectsOpenDrain) {
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 2;
  config.ranks_per_node = 1;
  core::ConduitJob job(engine, config);

  InvariantChecker checker(reg_options());
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkPinned, 1, 0, 2, 50));
  checker.on_event(
      reg_event(ProtocolEvent::Kind::kRegChunkEvicted, 1, 1, 2, 50));
  // The eviction drain never completed: the run must not end like this.
  EXPECT_THROW(checker.check_final(job, false), InvariantViolation);
}

TEST(InvariantChecker, ShmJobPassesEndToEndWithZeroSameNodeHandshakes) {
  // End-to-end regression: an on-demand job with the shm transport sends to
  // every peer; same-node traffic never leaves Idle, cross-node traffic
  // handshakes normally, and the checker accepts the whole run.
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 6;
  config.ranks_per_node = 3;
  config.conduit = core::proposed_design();
  config.conduit.intranode_transport = core::IntranodeTransport::kShm;
  core::ConduitJob job(engine, config);
  InvariantChecker::Options options;
  options.intranode_shm = true;
  options.ranks_per_node = config.ranks_per_node;
  InvariantChecker checker(options);
  job.add_observer(&checker);

  job.spawn_all([](core::Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](fabric::RankId,
                              std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    for (fabric::RankId peer = 0; peer < 6; ++peer) {
      co_await c.am_send(peer, 20, std::vector<std::byte>(8));
    }
    co_await c.barrier_global();
  });
  engine.run();
  checker.check_final(job, /*after_teardown=*/true);
  EXPECT_GT(checker.events_seen(), 0u);
  for (fabric::RankId r = 0; r < 6; ++r) {
    for (fabric::RankId p = 0; p < 6; ++p) {
      if (r / 3 == p / 3) {
        EXPECT_EQ(job.conduit(r).peer_phase(p), core::PeerPhase::kIdle)
            << r << "->" << p;
      }
    }
  }
}

TEST(InvariantChecker, CleanJobPassesEndToEnd) {
  // Observe a real 4-rank on-demand job: no violations, and the final
  // audit (including the QP-leak check) passes.
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 4;
  config.ranks_per_node = 2;
  config.conduit = core::proposed_design();
  core::ConduitJob job(engine, config);
  InvariantChecker checker;
  job.add_observer(&checker);

  job.spawn_all([](core::Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](fabric::RankId,
                              std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    for (fabric::RankId peer = 0; peer < 4; ++peer) {
      co_await c.am_send(peer, 20, std::vector<std::byte>(8));
    }
    co_await c.barrier_global();
  });
  engine.run();
  checker.check_final(job, /*after_teardown=*/true);
  EXPECT_GT(checker.events_seen(), 0u);
}

TEST(InvariantChecker, StaticJobPassesEndToEnd) {
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 4;
  config.ranks_per_node = 2;
  config.conduit = core::current_design();
  core::ConduitJob job(engine, config);
  InvariantChecker checker;
  job.add_observer(&checker);

  job.spawn_all([](core::Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](fabric::RankId,
                              std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, std::vector<std::byte>(8));
    co_await c.barrier_global();
  });
  engine.run();
  checker.check_final(job, /*after_teardown=*/true);
  EXPECT_GT(checker.events_seen(), 0u);
}

}  // namespace
}  // namespace odcm::check
