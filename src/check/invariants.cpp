#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace odcm::check {

using core::PeerPhase;
using core::PeerRole;
using core::ProtocolEvent;

void InvariantChecker::remember(const ProtocolEvent& event) {
  if (history_.size() == kHistoryLimit) history_.pop_front();
  history_.push_back(event);
}

std::string InvariantChecker::history() const {
  std::ostringstream out;
  for (const ProtocolEvent& past : history_) {
    out << "  " << core::describe(past) << "\n";
  }
  return out.str();
}

void InvariantChecker::fail(const ProtocolEvent& event,
                            const std::string& reason) const {
  std::ostringstream out;
  out << "protocol invariant violated: " << reason << "\n  at event: ["
      << core::describe(event) << "]\n  recent events (oldest first):\n"
      << history();
  throw InvariantViolation(out.str());
}

void InvariantChecker::check_phase_change(const ProtocolEvent& event,
                                          PairState& pair) {
  if (event.from != pair.phase) {
    fail(event, "phase mutated outside set_phase (observer saw " +
                    std::string(to_string(pair.phase)) +
                    ", conduit reports " + to_string(event.from) + ")");
  }
  // The table holds no self-edge, so setting a phase to its current value
  // is illegal too.
  if (!core::legal_transition(event.from, event.to, event.role)) {
    std::string reason = std::string("illegal transition ") +
                         to_string(event.from) + " -> " + to_string(event.to) +
                         "; legal exits:";
    for (const core::PhaseEdge& edge : core::kPhaseEdges) {
      if (edge.from != event.from) continue;
      reason += std::string(" ") + to_string(edge.to) + " (" + edge.why + ")";
    }
    fail(event, reason);
  }
  if (event.to == PeerPhase::kConnected) {
    if (!pair.has_qp) {
      fail(event, "reached Connected without an RC QP bound");
    }
    if (event.role == PeerRole::kNone) {
      fail(event, "reached Connected without a role");
    }
    if (options_.payloads_expected && event.self != event.peer &&
        event.role != PeerRole::kStatic && !pair.payload_installed) {
      fail(event,
           "reached Connected before the peer's piggybacked payload was "
           "installed (segment keys would be missing)");
    }
    pair.last_attempt = 0;
    ++pair.connect_count;
  }
  if (event.from == PeerPhase::kConnected) {
    // The next establishment must install a fresh payload.
    pair.payload_installed = false;
  }
  pair.phase = event.to;
  pair.role = event.role;
}

void InvariantChecker::on_event(const ProtocolEvent& event) {
  ++events_seen_;
  PairState& pair = pairs_[{event.self, event.peer}];
  switch (event.kind) {
    case ProtocolEvent::Kind::kPhaseChange:
      check_phase_change(event, pair);
      break;
    case ProtocolEvent::Kind::kRetransmit:
      if (event.attempt > core::kConnMaxRetries) {
        fail(event, "retransmit attempt exceeds kConnMaxRetries");
      }
      if (pair.phase != PeerPhase::kRequesting) {
        fail(event, "retransmit while not in Requesting");
      }
      pair.last_attempt = event.attempt;
      break;
    case ProtocolEvent::Kind::kConnectFailed:
      if (pair.phase != PeerPhase::kRequesting) {
        fail(event, "connect failure reported while not in Requesting");
      }
      if (event.attempt <= core::kConnMaxRetries) {
        fail(event, "connect failure reported before the retry budget "
                    "was exhausted");
      }
      break;
    case ProtocolEvent::Kind::kReplyResend:
      if (pair.phase != PeerPhase::kConnected ||
          pair.role != PeerRole::kServer) {
        fail(event, "cached reply resent by a non-server or before "
                    "Connected (duplicate suppression broken)");
      }
      break;
    case ProtocolEvent::Kind::kCollision:
      if (event.peer >= event.self) {
        fail(event, "collision resolved in favor of the higher rank");
      }
      if (pair.phase != PeerPhase::kRequesting) {
        fail(event, "collision absorbed while not in Requesting");
      }
      break;
    case ProtocolEvent::Kind::kRequestHeld:
      break;  // informational
    case ProtocolEvent::Kind::kQpBound:
      if (pair.has_qp) {
        fail(event, "RC QP bound over an existing binding (leak)");
      }
      pair.has_qp = true;
      break;
    case ProtocolEvent::Kind::kQpUnbound:
      if (!pair.has_qp) {
        fail(event, "QP unbound twice");
      }
      pair.has_qp = false;
      break;
    case ProtocolEvent::Kind::kPayloadInstalled:
      pair.payload_installed = true;
      break;
    case ProtocolEvent::Kind::kRdmaIssued:
      if (options_.intranode_shm && same_node(event.self, event.peer)) {
        fail(event, "RC RMA issued toward a same-node peer while the shm "
                    "transport is enabled (transport selection bypassed)");
      }
      if (pair.phase != PeerPhase::kConnected) {
        fail(event, "RMA issued toward a peer that is not Connected");
      }
      if (options_.payloads_expected && event.self != event.peer &&
          pair.role != PeerRole::kStatic && !pair.payload_installed) {
        fail(event, "RMA issued before the peer's segment keys (payload) "
                    "were installed");
      }
      break;
    case ProtocolEvent::Kind::kShmIssued:
      // Shm ops involve no connection: same-node pairs legitimately show
      // zero ConnectRequest traffic, and this event is the only protocol
      // footprint of their data path.
      if (!options_.intranode_shm) {
        fail(event, "shm transport op observed but the checker was not "
                    "configured with intranode_shm");
      }
      if (options_.ranks_per_node != 0 &&
          !same_node(event.self, event.peer)) {
        fail(event, "shm transport op issued toward a peer on a different "
                    "node");
      }
      break;
    case ProtocolEvent::Kind::kRegFault:
    case ProtocolEvent::Kind::kRegFaultServed:
    case ProtocolEvent::Kind::kRegChunkPinned:
    case ProtocolEvent::Kind::kRegChunkEvicted:
    case ProtocolEvent::Kind::kRegChunkDeregistered:
    case ProtocolEvent::Kind::kRegRkeyInvalidated:
    case ProtocolEvent::Kind::kRegRkeyUsed:
      check_reg_event(event);
      break;
    case ProtocolEvent::Kind::kRtsIssued:
    case ProtocolEvent::Kind::kCtsIssued:
    case ProtocolEvent::Kind::kRendezvousDone:
    case ProtocolEvent::Kind::kCreditStall:
    case ProtocolEvent::Kind::kBulkFragmentSent:
    case ProtocolEvent::Kind::kBulkFragmentDelivered:
      check_bulk_event(event);
      break;
  }
  remember(event);
}

std::uint64_t InvariantChecker::reg_chunk_len(std::uint32_t chunk) const {
  if (options_.reg_heap_bytes == 0) return options_.reg_chunk_bytes;
  std::uint64_t offset =
      static_cast<std::uint64_t>(chunk) * options_.reg_chunk_bytes;
  if (offset >= options_.reg_heap_bytes) return 0;
  return std::min(options_.reg_chunk_bytes, options_.reg_heap_bytes - offset);
}

void InvariantChecker::check_reg_event(const ProtocolEvent& event) {
  if (options_.reg_chunk_bytes == 0) {
    fail(event, "registration-protocol event observed but the checker was "
                "not configured with reg_chunk_bytes");
  }
  switch (event.kind) {
    case ProtocolEvent::Kind::kRegFault:
      break;  // informational (latency pairing lives in telemetry)
    case ProtocolEvent::Kind::kRegFaultServed: {
      // A grant must name a chunk the target currently holds registered.
      RegState& target = reg_[event.peer];
      if (target.live.count(event.detail) == 0 &&
          target.draining.count(event.detail) == 0) {
        fail(event, "rkey granted that the target never pinned (or already "
                    "deregistered)");
      }
      break;
    }
    case ProtocolEvent::Kind::kRegChunkPinned: {
      RegState& self = reg_[event.self];
      if (self.live.count(event.detail) != 0) {
        fail(event, "rkey pinned twice (rkeys must be unique per HCA)");
      }
      for (const auto& [rkey, chunk] : self.live) {
        if (chunk == event.attempt) {
          fail(event, "chunk pinned while already live under rkey " +
                          std::to_string(rkey));
        }
      }
      self.live.emplace(event.detail, event.attempt);
      self.pinned_bytes += reg_chunk_len(event.attempt);
      if (options_.reg_pinned_max_bytes != 0 &&
          self.pinned_bytes > options_.reg_pinned_max_bytes) {
        fail(event, "pinned bytes exceed reg_pinned_max_bytes (" +
                        std::to_string(self.pinned_bytes) + " > " +
                        std::to_string(options_.reg_pinned_max_bytes) + ")");
      }
      break;
    }
    case ProtocolEvent::Kind::kRegChunkEvicted: {
      RegState& self = reg_[event.self];
      auto it = self.live.find(event.detail);
      if (it == self.live.end()) {
        fail(event, "eviction of a chunk that is not live");
      }
      self.draining.emplace(it->first, it->second);
      self.live.erase(it);
      break;
    }
    case ProtocolEvent::Kind::kRegChunkDeregistered: {
      RegState& self = reg_[event.self];
      auto it = self.draining.find(event.detail);
      if (it == self.draining.end()) {
        fail(event, "deregistration of a chunk that was never drained "
                    "(eviction must precede it)");
      }
      self.draining.erase(it);
      std::uint64_t len = reg_chunk_len(event.attempt);
      if (self.pinned_bytes < len) {
        fail(event, "pinned-bytes accounting underflow");
      }
      self.pinned_bytes -= len;
      break;
    }
    case ProtocolEvent::Kind::kRegRkeyInvalidated:
      reg_invalidated_[{event.self, event.peer}].insert(event.detail);
      break;
    case ProtocolEvent::Kind::kRegRkeyUsed: {
      // The core invariant: every rkey an initiator resolves for an RMA
      // must still be registered at the target, and must not have been
      // invalidated at this initiator.
      auto inval = reg_invalidated_.find({event.self, event.peer});
      if (inval != reg_invalidated_.end() &&
          inval->second.count(event.detail) != 0) {
        fail(event, "rkey used after this PE acknowledged its invalidation");
      }
      RegState& target = reg_[event.peer];
      if (target.live.count(event.detail) == 0 &&
          target.draining.count(event.detail) == 0) {
        fail(event, "rkey used that is not registered at the target "
                    "(use-after-deregistration)");
      }
      break;
    }
    default:
      break;
  }
}

void InvariantChecker::check_bulk_event(const ProtocolEvent& event) {
  switch (event.kind) {
    case ProtocolEvent::Kind::kRtsIssued: {
      const PairState& pair = pairs_[{event.self, event.peer}];
      if (pair.phase != PeerPhase::kConnected) {
        fail(event, "RTS issued toward a peer that is not Connected");
      }
      auto [it, inserted] =
          rdv_.try_emplace({event.self, event.peer, event.attempt});
      if (!inserted) {
        fail(event, "duplicate rendezvous sequence for this pair");
      }
      it->second.has_rts = true;
      break;
    }
    case ProtocolEvent::Kind::kCtsIssued: {
      // Emitted at the target; the stream it answers is (peer -> self).
      auto it = rdv_.find({event.peer, event.self, event.attempt});
      if (it == rdv_.end()) {
        fail(event, "CTS issued for a rendezvous whose RTS was never "
                    "observed");
      }
      if (it->second.cts_seen) {
        fail(event, "duplicate CTS for one rendezvous sequence");
      }
      it->second.cts_seen = true;
      break;
    }
    case ProtocolEvent::Kind::kBulkFragmentSent: {
      // `detail` carries the stream sequence; pipelined windows create
      // their stream here (no RTS), rendezvous streams must have one.
      RdvState& st = rdv_[{event.self, event.peer,
                           static_cast<std::uint32_t>(event.detail)}];
      if (st.has_rts && !st.cts_seen) {
        fail(event, "rendezvous fragment issued before the CTS arrived");
      }
      if (st.done) {
        fail(event, "fragment issued after the stream reported done");
      }
      if (event.attempt != st.next_frag) {
        fail(event, "fragment issued out of order (expected idx " +
                        std::to_string(st.next_frag) + ")");
      }
      ++st.next_frag;
      ++st.sent;
      break;
    }
    case ProtocolEvent::Kind::kBulkFragmentDelivered: {
      auto it = rdv_.find({event.self, event.peer,
                           static_cast<std::uint32_t>(event.detail)});
      if (it == rdv_.end()) {
        fail(event, "fragment delivered on an unknown stream");
      }
      if (++it->second.delivered > it->second.sent) {
        fail(event, "more fragments delivered than sent (conservation "
                    "broken)");
      }
      break;
    }
    case ProtocolEvent::Kind::kRendezvousDone: {
      auto it = rdv_.find({event.self, event.peer, event.attempt});
      if (it == rdv_.end()) {
        fail(event, "rendezvous-done without an observed RTS");
      }
      RdvState& st = it->second;
      if (!st.has_rts) {
        fail(event, "rendezvous-done on a bare pipelined stream");
      }
      if (!st.cts_seen) {
        fail(event, "rendezvous completed without a CTS");
      }
      if (st.sent != st.delivered) {
        fail(event, "rendezvous completed with fragments still in flight");
      }
      st.done = true;
      break;
    }
    case ProtocolEvent::Kind::kCreditStall:
      break;  // informational (latency lives in telemetry)
    default:
      break;
  }
}

void InvariantChecker::check_final(core::ConduitJob& job,
                                   bool after_teardown) {
  ProtocolEvent none;  // placeholder for fail()'s report
  none.kind = ProtocolEvent::Kind::kPhaseChange;

  for (fabric::RankId r = 0; r < job.ranks(); ++r) {
    core::Conduit& conduit = job.conduit(r);
    const sim::StatSet& stats = conduit.stats();
    std::uint64_t connected = conduit.connected_peer_count();
    none.self = r;
    auto counter = [&stats](const char* name) {
      return static_cast<std::uint64_t>(stats.counter(name));
    };
    if (counter("qp_created_rc") < connected) {
      fail(none, "stats: qp_created_rc < connected peer count at pe" +
                     std::to_string(r));
    }
    if (counter("connections_established") < connected) {
      fail(none, "stats: connections_established < connected peer count "
                 "at pe" + std::to_string(r));
    }
    std::uint64_t budget = counter("conn_requests_initiated") *
                           static_cast<std::uint64_t>(core::kConnMaxRetries);
    if (counter("conn_retransmits") > budget) {
      fail(none, "stats: conn_retransmits exceeds the per-request retry "
                 "budget at pe" + std::to_string(r));
    }
    // Credit conservation: every credit granted at connect (or re-connect)
    // must be back in the pool by finalize — an evicted QP returns its
    // credits through the set_phase flush, stragglers through the stale-
    // epoch release path. Both counters are zero when credits are off.
    if (counter("credits_granted") != counter("credits_returned")) {
      fail(none, "stats: credits_granted (" +
                     std::to_string(counter("credits_granted")) +
                     ") != credits_returned (" +
                     std::to_string(counter("credits_returned")) +
                     ") at pe" + std::to_string(r));
    }
    // Fragment conservation: every stream (RMA or two-sided message)
    // counts its fragments sent and delivered at its initiator.
    if (counter("bulk_fragments_sent") != counter("bulk_fragments_delivered")) {
      fail(none, "stats: bulk fragments sent (" +
                     std::to_string(counter("bulk_fragments_sent")) +
                     ") != delivered (" +
                     std::to_string(counter("bulk_fragments_delivered")) +
                     ") at pe" + std::to_string(r));
    }
  }

  for (const auto& [key, pair] : pairs_) {
    none.self = key.first;
    none.peer = key.second;
    if (pair.phase == PeerPhase::kRequesting ||
        pair.phase == PeerPhase::kEstablishing) {
      fail(none, "run ended with a handshake still in flight");
    }
    if (pair.phase == PeerPhase::kConnected && key.first != key.second) {
      auto mirror = pairs_.find({key.second, key.first});
      if (mirror != pairs_.end() &&
          mirror->second.phase == PeerPhase::kConnected &&
          pair.role == PeerRole::kClient &&
          mirror->second.role == PeerRole::kClient) {
        fail(none, "both endpoints of an established pair believe they are "
                   "the client (collision resolution broke)");
      }
    }
  }

  for (const auto& [rank, reg] : reg_) {
    none.self = rank;
    none.peer = rank;
    if (!reg.draining.empty()) {
      fail(none, "run ended with a registration eviction drain still in "
                 "flight (invalidation acks missing)");
    }
  }

  for (const auto& [key, st] : rdv_) {
    none.self = std::get<0>(key);
    none.peer = std::get<1>(key);
    if (st.has_rts && !st.done) {
      fail(none, "run ended with rendezvous seq " +
                     std::to_string(std::get<2>(key)) + " still open");
    }
    if (st.sent != st.delivered) {
      fail(none, "run ended with bulk fragments in flight (seq " +
                     std::to_string(std::get<2>(key)) + ": sent " +
                     std::to_string(st.sent) + ", delivered " +
                     std::to_string(st.delivered) + ")");
    }
  }

  if (after_teardown) {
    for (fabric::NodeId n = 0; n < job.fabric().node_count(); ++n) {
      if (job.fabric().hca(n).qps_active() != 0) {
        none.self = 0;
        none.peer = 0;
        fail(none, "QP leak: node " + std::to_string(n) + " still has " +
                       std::to_string(job.fabric().hca(n).qps_active()) +
                       " active QPs after finalize");
      }
    }
  }
}

}  // namespace odcm::check
