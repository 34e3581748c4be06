// Configuration of the conduit layer — the knobs that select between the
// paper's baseline ("current design") and its contribution ("proposed
// design").
#pragma once

#include <cstdint>

#include "fabric/config.hpp"
#include "sim/time.hpp"

namespace odcm::core {

/// How RC connections come into existence (paper §IV).
enum class ConnectionMode : std::uint8_t {
  /// Baseline: every PE creates N QPs and connects to every peer during
  /// initialization (N^2 QPs job-wide).
  kStatic,
  /// Proposed: connections are established lazily at first communication
  /// through the two-phase UD handshake of Fig. 4.
  kOnDemand,
};

/// How the UD/RC endpoint information moves through PMI (paper §III-E).
enum class PmiMode : std::uint8_t {
  kBlocking,     ///< Put + Fence + Get.
  kNonBlocking,  ///< PMIX_Iallgather launched at init, waited on first use.
  /// PMIX_Ring bootstrap (authors' prior work, ref. [16], after Yu et
  /// al.'s ring startup [30]): PMI hands each PE only its ring neighbors'
  /// UD endpoints (constant out-of-band cost); the full table is then
  /// disseminated over the InfiniBand ring in the background. On-demand
  /// mode only; static mode falls back to the blocking exchange.
  kRing,
};

/// Which transport carries traffic between PEs on the *same node*
/// (DESIGN.md §5.14). Orthogonal to `ConnectionMode`, which governs how
/// cross-node RC connections come into existence.
enum class IntranodeTransport : std::uint8_t {
  /// Same-node peers use RC QPs through the HCA loopback path exactly like
  /// remote peers (the paper's evaluation setup).
  kRc,
  /// Same-node peers use the cross-mapped shared-memory transport
  /// (fabric/shm.hpp): no UD handshake, no RC QP, no LRU/cap slot.
  /// Put/get is a CMA-style copy; atomics are node-local and coherent with
  /// RC atomics targeting the same symmetric address.
  kShm,
};

/// Which barrier the runtime uses *during initialization* (paper §IV-E).
enum class BarrierMode : std::uint8_t {
  kGlobal,     ///< shmem_barrier_all across the whole job (baseline).
  kIntraNode,  ///< shared-memory barrier among the PEs of each node.
};

// ---- Calibrated conduit costs (DESIGN.md §5.7) ----
/// Software dispatch cost per received active message.
inline constexpr sim::Time kAmHandlerOverhead = 150 * sim::nsec;
/// Per-hop cost of the shared-memory intra-node barrier.
inline constexpr sim::Time kIntranodeBarrierHop = 300 * sim::nsec;

// ---- UD handshake retransmission (paper Fig. 4) ----
/// First retransmission timeout of a ConnectRequest; it doubles per
/// attempt up to `ConduitConfig::conn_rto_max` (see core/backoff.hpp).
inline constexpr sim::Time kConnRto = 500 * sim::usec;
/// Retransmissions before a handshake fails with "retries exceeded".
inline constexpr std::uint32_t kConnMaxRetries = 64;

struct ConduitConfig {
  ConnectionMode connection_mode = ConnectionMode::kOnDemand;
  PmiMode pmi_mode = PmiMode::kNonBlocking;
  BarrierMode init_barrier_mode = BarrierMode::kIntraNode;
  IntranodeTransport intranode_transport = IntranodeTransport::kRc;

  /// Cap of the ConnectRequest retransmission timeout, which starts at
  /// `kConnRto` and doubles per attempt with deterministic
  /// per-(src, dst, attempt) jitter (see core/backoff.hpp), so colliding
  /// clients never retransmit in lockstep.
  sim::Time conn_rto_max = 8 * sim::msec;

  /// Above this job size the static connector charges the aggregate cost
  /// of the full mesh analytically instead of simulating every handshake
  /// (validated against the fully simulated path in tests; DESIGN.md §2).
  std::uint32_t bulk_connect_threshold = 512;

  /// Adaptive connection management (Yu et al., IPDPS'06 — related work
  /// the paper builds on): cap the number of live RC connections per PE;
  /// exceeding it evicts the least-recently-used connection through a
  /// graceful notice/ack drain, and a later message re-establishes it on
  /// demand. 0 = unlimited (the paper's design). On-demand mode only.
  std::uint32_t max_active_connections = 0;

  // ---- large-message protocol tiering (DESIGN.md §5.17) ----
  // Size-tiered transfer selection, after MVAPICH's eager/rendezvous switch
  // and RAMC's pipelined chunking. Both thresholds default to 0 (disabled):
  // every transfer rides the eager path and the event/time stream is
  // bit-identical to the pre-tiering conduit.

  /// Transfers larger than this leave the eager path and are split into
  /// `bulk_chunk_bytes` fragments streamed under a bounded window.
  /// 0 = tiering disabled (everything is eager).
  std::uint64_t eager_threshold = 0;
  /// Transfers larger than this negotiate an RTS/CTS rendezvous before any
  /// data moves, letting the target post (and, in on-demand registration
  /// mode, pin) the sink first. 0 = rendezvous disabled.
  std::uint64_t rendezvous_threshold = 0;
  /// Fragment size of the pipelined and rendezvous data streams.
  std::uint64_t bulk_chunk_bytes = 65536;
  /// Credit-based flow control per established QP: credits granted when the
  /// connection reaches kConnected, consumed per send toward the peer,
  /// returned on completion; senders suspend on exhaustion, and an evicted
  /// QP flushes its remaining credits. Also bounds the fragment window of
  /// the pipelined/rendezvous streams. 0 = flow control disabled.
  std::uint32_t qp_credits = 0;

  /// True when any bulk tier can trigger (tier selection is active).
  [[nodiscard]] bool tiering_enabled() const noexcept {
    return eager_threshold != 0 || rendezvous_threshold != 0;
  }

  /// TEST ONLY — deliberate protocol-bug injection for the fault-injection
  /// harness (tests/check): when true the server treats a duplicate
  /// ConnectRequest for an already-established connection as a fresh
  /// request instead of resending the cached reply. Exists solely to prove
  /// the invariant checker catches real protocol bugs; never enable
  /// outside the torture suite.
  bool test_skip_duplicate_suppression = false;

  /// TEST ONLY — seeded ordering-sensitive bug for the schedule explorer
  /// (tests/check): when true, a waiter woken by the established gate in
  /// `ensure_connected` trusts the wakeup blindly instead of re-checking the
  /// peer phase. The re-check is what makes the wakeup safe against a
  /// same-timestamp eviction or passive drain sneaking in between the gate
  /// opening and the waiter running; with it skipped, exactly that
  /// interleaving — reachable only under some event tie-break orders —
  /// fails loudly. Exists solely to prove the schedule-perturbation sweep
  /// finds real ordering bugs within a bounded seed budget; never enable
  /// outside the torture suite.
  bool test_skip_established_recheck = false;
};

/// Everything needed to stand up a simulated job.
struct JobConfig {
  std::uint32_t ranks = 2;
  std::uint32_t ranks_per_node = 2;
  ConduitConfig conduit{};
  fabric::FabricConfig fabric{};  ///< `nodes` is derived from ranks/ppn.
};

/// Convenience: the paper's baseline configuration.
inline ConduitConfig current_design() {
  ConduitConfig config;
  config.connection_mode = ConnectionMode::kStatic;
  config.pmi_mode = PmiMode::kBlocking;
  config.init_barrier_mode = BarrierMode::kGlobal;
  return config;
}

/// Convenience: the paper's proposed configuration.
inline ConduitConfig proposed_design() {
  ConduitConfig config;
  config.connection_mode = ConnectionMode::kOnDemand;
  config.pmi_mode = PmiMode::kNonBlocking;
  config.init_barrier_mode = BarrierMode::kIntraNode;
  return config;
}

}  // namespace odcm::core
