// Cost model of the simulated InfiniBand fabric.
//
// The constants are calibrated to the QDR/FDR ConnectX generation used in
// the paper (Cluster-A: MT26428 QDR 32 Gb/s, Cluster-B: MT4099 FDR 56 Gb/s):
// ~1-2 us small-message RC latency, tens of microseconds for QP creation and
// state transitions, and microsecond-scale memory-registration cost per page.
// EXPERIMENTS.md records how measured curves compare with the paper's.
// `FabricConfig` holds only the values a bench or a test varies.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace odcm::fabric {

// ---- Host-side verbs costs (per calling process) ----
inline constexpr sim::Time kQpCreateCost = 130 * sim::usec;
/// Per modify_qp step.
inline constexpr sim::Time kQpTransitionCost = 40 * sim::usec;
inline constexpr sim::Time kQpDestroyCost = 110 * sim::usec;
inline constexpr sim::Time kMemRegBaseCost = 30 * sim::usec;
inline constexpr sim::Time kMemRegPerPageCost = 2 * sim::usec;
inline constexpr std::uint64_t kPageSize = 4096;

// ---- Wire model ----
/// Doorbell + DMA start.
inline constexpr sim::Time kHcaTxOverhead = 300 * sim::nsec;
/// Inter-node, per message.
inline constexpr sim::Time kWireLatency = 900 * sim::nsec;
/// ~QDR effective bandwidth.
inline constexpr double kBytesPerNs = 3.2;
/// Same-node via HCA.
inline constexpr sim::Time kLoopbackLatency = 250 * sim::nsec;
inline constexpr double kLoopbackBytesPerNs = 8.0;
/// RC ack / read response.
inline constexpr sim::Time kAckLatency = 500 * sim::nsec;
inline constexpr sim::Time kResponderOverhead = 200 * sim::nsec;
/// Minimum gap between injections on one HCA (message-rate limit).
inline constexpr sim::Time kMinPacketGap = 50 * sim::nsec;
/// Max UD datagram payload.
inline constexpr std::uint32_t kMtu = 4096;

// ---- Intra-node shared-memory transport (fabric/shm.hpp) ----
// Calibrated distinct from the HCA loopback path above: a cross-mapped
// load/store copy skips the doorbell + DMA round trip, so it has lower
// base latency and higher bandwidth, but pays a one-time mapping cost.
/// One-time cost of cross-mapping a PE's symmetric segment into the
/// node's shared domain at init (shm_open + mmap + page-table setup).
inline constexpr sim::Time kShmAttachCost = 25 * sim::usec;
/// Base latency of a CMA-style process-to-process copy (put/get).
inline constexpr sim::Time kShmCopyLatency = 90 * sim::nsec;
/// Copy bandwidth of the shared mapping (memcpy through the LLC).
inline constexpr double kShmBytesPerNs = 14.0;
/// Node-local atomic on the shared mapping (single cache-line RMW).
inline constexpr sim::Time kShmAtomicLatency = 120 * sim::nsec;
/// Software overhead of enqueueing one shm active message.
inline constexpr sim::Time kShmAmOverhead = 100 * sim::nsec;

// ---- Large-message protocol tiering (DESIGN.md §5.17) ----
/// Bandwidth of the eager bounce-buffer copy at the receiver (two-sided
/// eager messages are copied out of the bounce buffer into the posted
/// receive; rendezvous transfers skip this). Charged only when tiering is
/// enabled so the default config's time stream stays bit-identical.
inline constexpr double kEagerCopyBytesPerNs = 8.0;
/// Cost of posting (and wiring up) the rendezvous sink at the target
/// between RTS arrival and CTS issue.
inline constexpr sim::Time kRendezvousSinkPostCost = 400 * sim::nsec;

struct FabricConfig {
  /// Number of compute nodes; each node has one HCA with a unique LID.
  std::uint32_t nodes = 1;

  // ---- Unreliable Datagram fault injection ----
  double ud_drop_rate = 0.0;       ///< Probability a UD datagram is lost.
  double ud_duplicate_rate = 0.0;  ///< Probability a datagram is delivered twice.
  sim::Time ud_jitter_max = 0;     ///< Uniform extra delay (reordering source).

  // ---- HCA endpoint-cache model (paper §I point 3) ----
  /// Number of QP contexts the HCA can cache on-board; beyond this each
  /// operation pays `cache_miss_penalty` (ICM/context fetch from host).
  /// The penalty defaults to 0 because the loop working set of the paper's
  /// microbenchmarks stays cached even on a fully connected mesh (Fig 7
  /// shows parity); the ablation bench turns it on to study the effect.
  std::uint32_t hca_cache_qps = 256;
  sim::Time cache_miss_penalty = 0;

  std::uint64_t seed = 0x0DC0FFEEULL;
};

}  // namespace odcm::fabric
