#include "core/observer.hpp"

#include <ostream>
#include <sstream>

namespace odcm::core {

namespace {

using Kind = ProtocolEvent::Kind;

/// The event text after the "peN peer=M" prefix: the phase edge for a
/// phase change, otherwise the kind name and its kind-specific fields.
void write_what(std::ostream& out, const ProtocolEvent& event) {
  if (event.kind == Kind::kPhaseChange) {
    out << to_string(event.from) << "->" << to_string(event.to)
        << " role=" << to_string(event.role);
    return;
  }
  out << to_string(event.kind);
  switch (event.kind) {
    case Kind::kRetransmit: out << " attempt=" << event.attempt; break;
    case Kind::kConnectFailed: out << " attempts=" << event.attempt; break;
    case Kind::kRegFault: out << " chunk=" << event.attempt; break;
    case Kind::kRegFaultServed:
    case Kind::kRegChunkPinned:
    case Kind::kRegChunkEvicted:
    case Kind::kRegChunkDeregistered:
    case Kind::kRegRkeyInvalidated:
    case Kind::kRegRkeyUsed:
      out << " chunk=" << event.attempt << " rkey=" << event.detail;
      break;
    case Kind::kRtsIssued:
      out << " seq=" << event.attempt << " len=" << event.detail;
      break;
    case Kind::kCtsIssued: out << " seq=" << event.attempt; break;
    case Kind::kRendezvousDone:
      out << " seq=" << event.attempt
          << (event.detail != 0 ? " (aborted)" : "");
      break;
    case Kind::kCreditStall: out << " ns=" << event.detail; break;
    case Kind::kBulkFragmentSent:
    case Kind::kBulkFragmentDelivered:
      out << " seq=" << event.detail << " idx=" << event.attempt;
      break;
    default: break;
  }
}

}  // namespace

const char* to_string(ProtocolEvent::Kind kind) noexcept {
  switch (kind) {
    case Kind::kPhaseChange: return "phase_change";
    case Kind::kRetransmit: return "retransmit";
    case Kind::kConnectFailed: return "connect_failed";
    case Kind::kReplyResend: return "reply_resend";
    case Kind::kCollision: return "collision";
    case Kind::kRequestHeld: return "request_held";
    case Kind::kQpBound: return "qp_bound";
    case Kind::kQpUnbound: return "qp_unbound";
    case Kind::kPayloadInstalled: return "payload_installed";
    case Kind::kRdmaIssued: return "rdma_issued";
    case Kind::kShmIssued: return "shm_issued";
    case Kind::kRegFault: return "reg_fault";
    case Kind::kRegFaultServed: return "reg_fault_served";
    case Kind::kRegChunkPinned: return "reg_chunk_pinned";
    case Kind::kRegChunkEvicted: return "reg_chunk_evicted";
    case Kind::kRegChunkDeregistered: return "reg_chunk_deregistered";
    case Kind::kRegRkeyInvalidated: return "reg_rkey_invalidated";
    case Kind::kRegRkeyUsed: return "reg_rkey_used";
    case Kind::kRtsIssued: return "rts";
    case Kind::kCtsIssued: return "cts";
    case Kind::kRendezvousDone: return "rendezvous_done";
    case Kind::kCreditStall: return "credit_stall";
    case Kind::kBulkFragmentSent: return "frag_sent";
    case Kind::kBulkFragmentDelivered: return "frag_delivered";
  }
  return "?";
}

std::string describe(const ProtocolEvent& event) {
  std::ostringstream out;
  out << "pe" << event.self << " peer=" << event.peer << " ";
  write_what(out, event);
  return out.str();
}

void EventLog::write_csv(std::ostream& out) const {
  out << "time_ns,self,peer,event\n";
  for (const ProtocolEvent& event : events_) {
    out << event.time << ',' << event.self << ',' << event.peer << ',';
    write_what(out, event);
    out << '\n';
  }
}

}  // namespace odcm::core
