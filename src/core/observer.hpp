// Protocol observation hooks for the conduit's connection state machine.
//
// Every consequential step of the on-demand handshake — phase transitions,
// retransmissions, collisions, QP binding, piggyback-payload installation,
// RMA issue — is reported to the `ProtocolObserver`s attached to the
// `ConduitJob`. This is the runtime's one observation stream: the
// deterministic event sequence `check::InvariantChecker` validates
// (DESIGN.md §6), `telemetry::ConnectionTimeline` folds into spans, and
// `EventLog` keeps as a CSV-printable record. With no observer attached the
// hooks cost one branch per event.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fabric/types.hpp"
#include "sim/time.hpp"

namespace odcm::core {

/// Connection phase of one `(self, peer)` endpoint pair. Its legal edges
/// are the rows of `kPhaseEdges`.
enum class PeerPhase : std::uint8_t {
  kIdle,
  kRequesting,
  kEstablishing,
  kConnected,
  kDraining,
};

/// Role this endpoint played when the connection was created.
enum class PeerRole : std::uint8_t { kNone, kClient, kServer, kStatic };

[[nodiscard]] constexpr const char* to_string(PeerPhase phase) noexcept {
  switch (phase) {
    case PeerPhase::kIdle: return "Idle";
    case PeerPhase::kRequesting: return "Requesting";
    case PeerPhase::kEstablishing: return "Establishing";
    case PeerPhase::kConnected: return "Connected";
    case PeerPhase::kDraining: return "Draining";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(PeerRole role) noexcept {
  switch (role) {
    case PeerRole::kNone: return "None";
    case PeerRole::kClient: return "Client";
    case PeerRole::kServer: return "Server";
    case PeerRole::kStatic: return "Static";
  }
  return "?";
}

/// One legal edge of the Fig. 4 phase machine.
struct PhaseEdge {
  PeerPhase from;
  PeerPhase to;
  bool static_only;    ///< Taken only with role kStatic.
  bool opens_attempt;  ///< Starts a connection attempt (a handshake span).
  const char* why;
};

/// The Fig. 4 phase machine: `check::InvariantChecker` rejects any other
/// edge and `telemetry::ConnectionTimeline` opens a handshake span on the
/// `opens_attempt` ones.
inline constexpr PhaseEdge kPhaseEdges[] = {
    {PeerPhase::kIdle, PeerPhase::kRequesting, false, true,
     "client initiates"},
    {PeerPhase::kIdle, PeerPhase::kEstablishing, false, true,
     "server accepts / self-connect"},
    {PeerPhase::kIdle, PeerPhase::kConnected, true, true,
     "static connector only"},
    {PeerPhase::kRequesting, PeerPhase::kEstablishing, false, false,
     "reply received / collision takeover"},
    {PeerPhase::kRequesting, PeerPhase::kIdle, false, false,
     "handshake failed after retry exhaustion"},
    {PeerPhase::kEstablishing, PeerPhase::kConnected, false, false,
     "RC QP at RTS"},
    {PeerPhase::kConnected, PeerPhase::kDraining, false, false,
     "active eviction"},
    {PeerPhase::kConnected, PeerPhase::kIdle, false, false,
     "passive drain on the peer's notice"},
    {PeerPhase::kDraining, PeerPhase::kIdle, false, false,
     "drain ack / symmetric eviction"},
    {PeerPhase::kDraining, PeerPhase::kEstablishing, false, true,
     "the peer's new request doubles as the drain ack"},
};

[[nodiscard]] constexpr bool legal_transition(PeerPhase from, PeerPhase to,
                                              PeerRole role) noexcept {
  for (const PhaseEdge& edge : kPhaseEdges) {
    if (edge.from == from && edge.to == to) {
      return !edge.static_only || role == PeerRole::kStatic;
    }
  }
  return false;
}

[[nodiscard]] constexpr bool opens_attempt(PeerPhase from,
                                           PeerPhase to) noexcept {
  for (const PhaseEdge& edge : kPhaseEdges) {
    if (edge.from == from && edge.to == to) return edge.opens_attempt;
  }
  return false;
}

/// One observed protocol step at PE `self` concerning `peer`.
struct ProtocolEvent {
  enum class Kind : std::uint8_t {
    kPhaseChange,       ///< `from` → `to` (role is the role at that moment).
    kRetransmit,        ///< Client retransmitted; `attempt` is the ordinal.
    kConnectFailed,     ///< Client gave up; `attempt` is the total attempts.
    kReplyResend,       ///< Server re-sent a cached reply for a dup request.
    kCollision,         ///< Simultaneous connect absorbed at `self`.
    kRequestHeld,       ///< Request held until the upper layer is ready.
    kQpBound,           ///< An RC QP was bound to the peer slot.
    kQpUnbound,         ///< The peer's RC QP was retired/unbound.
    kPayloadInstalled,  ///< Piggybacked payload consumed for `peer`.
    kRdmaIssued,        ///< A put/get/atomic was issued toward `peer`.
    kShmIssued,         ///< An op was routed over the intra-node shm
                        ///< transport (no connection involved).

    // ---- on-demand registration protocol (fabric/reg, DESIGN.md §5.15).
    // Only emitted when `registration == on_demand`; the eager default
    // produces none of these, keeping its event stream bit-identical.
    kRegFault,          ///< `self` sent an rkey-fault for `peer`'s chunk
                        ///< (`attempt` = chunk index).
    kRegFaultServed,    ///< The fault reply arrived at `self`; `attempt` =
                        ///< chunk, `detail` = granted rkey.
    kRegChunkPinned,    ///< `self` (the target) registered chunk `attempt`
                        ///< under rkey `detail`; `peer` = requester (or
                        ///< `self` for cap-driven internal pins).
    kRegChunkEvicted,   ///< `self` selected chunk `attempt` (rkey `detail`)
                        ///< for eviction and began the invalidation drain.
    kRegChunkDeregistered,  ///< All invalidation acks arrived; chunk
                            ///< `attempt` (rkey `detail`) was deregistered.
    kRegRkeyInvalidated,    ///< `self` dropped its cached rkey `detail` for
                            ///< `peer`'s chunk `attempt` on a notice.
    kRegRkeyUsed,       ///< `self` resolved rkey `detail` of `peer`'s chunk
                        ///< `attempt` for an RMA (invariant: must be live).

    // ---- large-message tiering + flow control (DESIGN.md §5.17). Only
    // emitted when tiering / credits are enabled; the default config
    // produces none of these, keeping its event stream bit-identical.
    kRtsIssued,          ///< `self` (initiator) sent an RTS toward `peer`;
                         ///< `attempt` = rendezvous seq, `detail` = length.
    kCtsIssued,          ///< `self` (target) answered `peer`'s RTS
                         ///< (`attempt` = seq) with a CTS.
    kRendezvousDone,     ///< The rendezvous transfer `attempt` completed at
                         ///< the initiator `self`.
    kCreditStall,        ///< A sender at `self` stalled on credit
                         ///< exhaustion toward `peer`; `detail` = stall ns.
    kBulkFragmentSent,   ///< Fragment `attempt` of stream `detail` was
                         ///< issued toward `peer` (strictly in order).
    kBulkFragmentDelivered,  ///< Fragment `attempt` of stream `detail`
                             ///< completed.
  };

  Kind kind = Kind::kPhaseChange;
  fabric::RankId self = 0;
  fabric::RankId peer = 0;
  PeerPhase from = PeerPhase::kIdle;  ///< kPhaseChange only.
  PeerPhase to = PeerPhase::kIdle;    ///< kPhaseChange only.
  PeerRole role = PeerRole::kNone;
  std::uint32_t attempt = 0;  ///< kRetransmit attempt / kReg* chunk index.
  /// Kind-specific payload: the rkey for kReg* events, 0 elsewhere.
  std::uint64_t detail = 0;
  /// Virtual time of the event; filled in by the conduit at report time so
  /// timeline consumers (telemetry::ConnectionTimeline) need no engine
  /// access.
  sim::Time time = 0;
};

/// Snake-case name of `kind` ("phase_change", "retransmit",
/// "reg_fault_served", ...), as used by the Chrome trace exporter.
[[nodiscard]] const char* to_string(ProtocolEvent::Kind kind) noexcept;

/// One-line description of `event` without its time, e.g.
/// "pe0 peer=1 Idle->Requesting role=Client" or
/// "pe2 peer=3 reg_fault_served chunk=4 rkey=17".
[[nodiscard]] std::string describe(const ProtocolEvent& event);

/// Interface for job-wide protocol observation. Implementations may throw
/// from `on_event` (e.g. on an invariant violation); the exception unwinds
/// through the conduit task that caused the event and surfaces from
/// `Engine::run`, and observers attached after the thrower never see that
/// event.
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;
  virtual void on_event(const ProtocolEvent& event) = 0;
};

/// Records every event it observes, in order. `write_csv` prints the log as
/// `time_ns,self,peer,event` rows, the event column being `describe`'s text
/// after the "peN peer=M" prefix. Two identically-seeded runs produce
/// byte-identical CSV, which makes it a regression golden.
class EventLog final : public ProtocolObserver {
 public:
  void on_event(const ProtocolEvent& event) override {
    events_.push_back(event);
  }

  [[nodiscard]] const std::vector<ProtocolEvent>& events() const noexcept {
    return events_;
  }

  void write_csv(std::ostream& out) const;

 private:
  std::vector<ProtocolEvent> events_{};
};

}  // namespace odcm::core
