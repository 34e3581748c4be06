// Protocol invariant checking for the on-demand connection handshake.
//
// `InvariantChecker` observes the job-wide `ProtocolEvent` stream (see
// core/observer.hpp) and validates, after every event:
//
//   * phase transitions are edges of `core::kPhaseEdges`;
//   * the observer's mirror of each (self, peer) phase matches what the
//     conduit reports in the event — an unobserved mutation (a `p.phase =`
//     that bypassed `set_phase`) is itself a violation;
//   * a pair reaches kConnected only with an RC QP bound, a role assigned,
//     and (when the upper layer piggybacks payloads) the peer's payload
//     installed first;
//   * a QP is never bound over an existing binding, never unbound twice;
//   * retransmit attempts never exceed the configured budget;
//   * collisions resolve in favor of the lower rank (the event fires at the
//     higher-ranked absorber);
//   * RMA is issued only toward kConnected peers whose payload (segment
//     keys) is installed;
//   * large-message streams obey the rendezvous protocol: RTS only on an
//     established pair, at most one CTS per sequence, fragments issued in
//     strict order and only after the CTS, never more delivered than sent,
//     and done only once the stream drained (DESIGN.md §5.17).
//
// `check_final` then audits end-of-run state: terminal phases, role
// complementarity, stats reconciliation (qp_created_rc >= connected peers,
// retransmits within budget, and per rank credits granted == returned and
// fragments sent == delivered) and — after teardown — that no QP leaked.
//
// A violation throws `InvariantViolation` whose message embeds the recent
// event tail, so a torture-runner failure is immediately diagnosable.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/conduit.hpp"
#include "core/observer.hpp"

namespace odcm::check {

class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::runtime_error(what) {}
};

class InvariantChecker final : public core::ProtocolObserver {
 public:
  struct Options {
    /// The workload installed payload hooks, so non-static remote
    /// connections must install the peer payload before kConnected.
    bool payloads_expected = false;
    /// The job routes same-node traffic over the shared-memory transport
    /// (`ConduitConfig::intranode_transport == kShm`). Same-node pairs
    /// then legitimately produce *zero* ConnectRequest/handshake events;
    /// instead, kShmIssued toward a different-node peer and RC RMA toward
    /// a same-node peer become violations.
    bool intranode_shm = false;
    /// Ranks per node, for same-node classification. Required (non-zero)
    /// to check kShmIssued routing; 0 disables the topology checks.
    std::uint32_t ranks_per_node = 0;
    /// Non-zero: the job runs `registration = kOnDemand` with this chunk
    /// size, enabling the registration invariants (rkey liveness, pin-cap
    /// accounting, no use after invalidation).
    std::uint64_t reg_chunk_bytes = 0;
    /// Mirrors ShmemConfig::reg_pinned_max_bytes (0 = uncapped).
    std::uint64_t reg_pinned_max_bytes = 0;
    /// Per-PE heap size, for exact partial-last-chunk accounting against
    /// the pin cap (0 = assume every chunk is full-sized).
    std::uint64_t reg_heap_bytes = 0;
  };

  /// Recent events kept for the violation report.
  static constexpr std::size_t kHistoryLimit = 48;

  InvariantChecker() = default;
  explicit InvariantChecker(Options options) : options_(options) {}

  void on_event(const core::ProtocolEvent& event) override;

  /// End-of-run audit. Call after `Engine::run` returned; with
  /// `after_teardown` (the job bodies finalized their conduits) it also
  /// checks that no QP leaked.
  void check_final(core::ConduitJob& job, bool after_teardown);

  [[nodiscard]] std::uint64_t events_seen() const noexcept {
    return events_seen_;
  }

  /// The recent-event tail, formatted one per line (for failure reports).
  [[nodiscard]] std::string history() const;

 private:
  struct PairState {
    core::PeerPhase phase = core::PeerPhase::kIdle;
    core::PeerRole role = core::PeerRole::kNone;
    bool has_qp = false;
    bool payload_installed = false;
    std::uint32_t last_attempt = 0;
    std::uint64_t connect_count = 0;  ///< times the pair reached kConnected
  };

  using PairKey = std::pair<fabric::RankId, fabric::RankId>;

  /// Registration-protocol state of one *target* PE (rkeys are only unique
  /// within one HCA, so liveness is tracked per target rank).
  struct RegState {
    /// rkey -> chunk, for every currently-pinned chunk.
    std::map<std::uint64_t, std::uint32_t> live{};
    /// Evicted but not yet deregistered (use is still legal: the drain
    /// holds the registration until every sharer acked).
    std::map<std::uint64_t, std::uint32_t> draining{};
    std::uint64_t pinned_bytes = 0;
  };

  /// One bulk fragment stream — a full RTS/CTS rendezvous (`has_rts`) or a
  /// bare pipelined window — keyed by (initiator, target, sequence).
  struct RdvState {
    bool has_rts = false;
    bool cts_seen = false;
    bool done = false;
    std::uint32_t next_frag = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
  };
  using RdvKey = std::tuple<fabric::RankId, fabric::RankId, std::uint32_t>;

  [[noreturn]] void fail(const core::ProtocolEvent& event,
                         const std::string& reason) const;
  /// Same-node classification per `Options::ranks_per_node` (false when
  /// the topology is unknown).
  [[nodiscard]] bool same_node(fabric::RankId a, fabric::RankId b) const {
    return options_.ranks_per_node != 0 &&
           a / options_.ranks_per_node == b / options_.ranks_per_node;
  }
  void check_phase_change(const core::ProtocolEvent& event, PairState& pair);
  void check_reg_event(const core::ProtocolEvent& event);
  void check_bulk_event(const core::ProtocolEvent& event);
  [[nodiscard]] std::uint64_t reg_chunk_len(std::uint32_t chunk) const;
  void remember(const core::ProtocolEvent& event);

  Options options_{};
  std::map<PairKey, PairState> pairs_{};
  /// Keyed by the target rank that owns the chunks.
  std::map<fabric::RankId, RegState> reg_{};
  /// Rkeys each initiator dropped on an invalidation notice, keyed by
  /// (initiator, target): a later use by that initiator is a violation
  /// even if the target has not deregistered yet.
  std::map<PairKey, std::set<std::uint64_t>> reg_invalidated_{};
  /// Bulk streams, keyed by (initiator, target, sequence).
  std::map<RdvKey, RdvState> rdv_{};
  /// The last kHistoryLimit events, formatted only when reported.
  std::deque<core::ProtocolEvent> history_{};
  std::uint64_t events_seen_ = 0;
};

}  // namespace odcm::check
