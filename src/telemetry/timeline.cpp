#include "telemetry/timeline.hpp"

namespace odcm::telemetry {

using core::PeerPhase;
using core::PeerRole;
using core::ProtocolEvent;

ConnectionTimeline::PairState& ConnectionTimeline::state(
    fabric::RankId self, fabric::RankId peer) {
  return pairs_[{self, peer}];
}

ConnectionTimeline::Handshake* ConnectionTimeline::open_handshake(
    PairState& s) {
  if (s.open_handshake == 0) return nullptr;
  return &handshakes_[s.open_handshake - 1];
}

void ConnectionTimeline::on_event(const ProtocolEvent& event) {
  ++events_seen_;

  switch (event.kind) {
    case ProtocolEvent::Kind::kRegFault:
    case ProtocolEvent::Kind::kRegFaultServed:
    case ProtocolEvent::Kind::kRegChunkPinned:
    case ProtocolEvent::Kind::kRegChunkEvicted:
    case ProtocolEvent::Kind::kRegChunkDeregistered:
    case ProtocolEvent::Kind::kRegRkeyInvalidated:
    case ProtocolEvent::Kind::kRegRkeyUsed:
      // Registration-protocol events are point marks, not phase spans; they
      // never attach to a handshake record.
      on_reg_event(event);
      return;
    case ProtocolEvent::Kind::kRtsIssued:
    case ProtocolEvent::Kind::kCtsIssued:
    case ProtocolEvent::Kind::kRendezvousDone:
    case ProtocolEvent::Kind::kCreditStall:
    case ProtocolEvent::Kind::kBulkFragmentSent:
    case ProtocolEvent::Kind::kBulkFragmentDelivered:
      // Large-message protocol events: point marks as well.
      on_bulk_event(event);
      return;
    default:
      break;
  }

  PairState& s = state(event.self, event.peer);

  if (event.kind != ProtocolEvent::Kind::kPhaseChange) {
    // Protocol annotation: attach to the in-flight handshake when there is
    // one, and aggregate into the registry either way.
    Annotation note{event.kind, event.time, event.attempt};
    if (Handshake* hs = open_handshake(s)) {
      hs->annotations.push_back(note);
      switch (event.kind) {
        case ProtocolEvent::Kind::kRetransmit: ++hs->retransmits; break;
        case ProtocolEvent::Kind::kCollision: ++hs->collisions; break;
        case ProtocolEvent::Kind::kRequestHeld: ++hs->held_requests; break;
        case ProtocolEvent::Kind::kReplyResend: ++hs->reply_resends; break;
        default: break;
      }
    }
    if (registry_ != nullptr) {
      switch (event.kind) {
        case ProtocolEvent::Kind::kRetransmit:
          registry_->add("conn/retransmits");
          break;
        case ProtocolEvent::Kind::kCollision:
          registry_->add("conn/collisions");
          break;
        case ProtocolEvent::Kind::kRequestHeld:
          registry_->add("conn/requests_held");
          break;
        case ProtocolEvent::Kind::kReplyResend:
          registry_->add("conn/reply_resends");
          break;
        case ProtocolEvent::Kind::kConnectFailed:
          registry_->add("conn/connect_failures");
          break;
        case ProtocolEvent::Kind::kQpBound:
          registry_->add("conn/qp_bound");
          break;
        case ProtocolEvent::Kind::kQpUnbound:
          registry_->add("conn/qp_unbound");
          break;
        case ProtocolEvent::Kind::kPayloadInstalled:
          registry_->add("conn/payloads_installed");
          break;
        case ProtocolEvent::Kind::kRdmaIssued:
          registry_->add("conn/rdma_issued");
          break;
        case ProtocolEvent::Kind::kShmIssued:
          registry_->add("conn/shm_issued");
          break;
        default: break;
      }
    }
    return;
  }

  // Phase change: close the current interval, open the next.
  if (s.phase != PeerPhase::kIdle) {
    intervals_.push_back(PhaseInterval{event.self, event.peer, s.phase,
                                       s.role, s.phase_start, event.time,
                                       true});
  }
  // The conduit reports the role *at the moment of the transition*; keep
  // the last non-None one so Connected/Draining intervals stay attributed.
  if (event.role != PeerRole::kNone) s.role = event.role;

  if (core::opens_attempt(s.phase, event.to) && s.open_handshake == 0) {
    handshakes_.push_back(Handshake{event.self, event.peer, s.role,
                                    event.time, event.time, false, 0, 0, 0,
                                    0, {}});
    s.open_handshake = handshakes_.size();
  }
  if (event.to == PeerPhase::kConnected) {
    if (Handshake* hs = open_handshake(s)) {
      hs->established = event.time;
      hs->complete = true;
      hs->role = s.role;
      if (registry_ != nullptr) {
        registry_->observe("conn/handshake_time", event.time - hs->start);
        registry_->add("conn/handshakes_completed");
      }
      s.open_handshake = 0;
    }
  }

  s.phase = event.to;
  s.phase_start = event.time;
}

void ConnectionTimeline::on_reg_event(const ProtocolEvent& event) {
  reg_marks_.push_back(RegMark{event.kind, event.self, event.peer,
                               event.attempt, event.detail, event.time});
  if (registry_ == nullptr) return;
  switch (event.kind) {
    case ProtocolEvent::Kind::kRegFault:
      registry_->add("reg/faults");
      open_faults_[{event.self, event.peer, event.attempt}] = event.time;
      break;
    case ProtocolEvent::Kind::kRegFaultServed: {
      registry_->add("reg/faults_served");
      auto it = open_faults_.find({event.self, event.peer, event.attempt});
      if (it != open_faults_.end()) {
        registry_->observe("reg/fault_latency", event.time - it->second);
        open_faults_.erase(it);
      }
      break;
    }
    case ProtocolEvent::Kind::kRegChunkPinned:
      registry_->add("reg/chunks_pinned");
      break;
    case ProtocolEvent::Kind::kRegChunkEvicted:
      registry_->add("reg/chunks_evicted");
      break;
    case ProtocolEvent::Kind::kRegChunkDeregistered:
      registry_->add("reg/chunks_deregistered");
      break;
    case ProtocolEvent::Kind::kRegRkeyInvalidated:
      registry_->add("reg/rkeys_invalidated");
      break;
    case ProtocolEvent::Kind::kRegRkeyUsed:
      registry_->add("reg/rkey_uses");
      break;
    default:
      break;
  }
}

void ConnectionTimeline::on_bulk_event(const ProtocolEvent& event) {
  bulk_marks_.push_back(BulkMark{event.kind, event.self, event.peer,
                                 event.attempt, event.detail, event.time});
  if (registry_ == nullptr) return;
  switch (event.kind) {
    case ProtocolEvent::Kind::kRtsIssued:
      registry_->add("bulk/rts");
      break;
    case ProtocolEvent::Kind::kCtsIssued:
      registry_->add("bulk/cts");
      break;
    case ProtocolEvent::Kind::kRendezvousDone:
      registry_->add("bulk/rendezvous_done");
      break;
    case ProtocolEvent::Kind::kCreditStall:
      registry_->add("bulk/credit_stalls");
      registry_->observe("bulk/credit_stall_time",
                         static_cast<sim::Time>(event.detail));
      break;
    case ProtocolEvent::Kind::kBulkFragmentSent:
      registry_->add("bulk/fragments_sent");
      break;
    case ProtocolEvent::Kind::kBulkFragmentDelivered:
      registry_->add("bulk/fragments_delivered");
      break;
    default:
      break;
  }
}

void ConnectionTimeline::finish(sim::Time now) {
  for (auto& [key, s] : pairs_) {
    if (s.phase != PeerPhase::kIdle) {
      intervals_.push_back(PhaseInterval{key.first, key.second, s.phase,
                                         s.role, s.phase_start, now, false});
      s.phase = PeerPhase::kIdle;
      s.phase_start = now;
    }
    s.open_handshake = 0;
  }
}

}  // namespace odcm::telemetry
