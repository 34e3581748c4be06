// OpenSHMEM runtime configuration and cost-model constants.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "sim/time.hpp"

namespace odcm::shmem {

/// SHMEM-facing spelling of the conduit's intra-node transport knob
/// (`ShmemJobConfig::job.conduit.intranode_transport`): same-node peers
/// over RC loopback (the paper's setup) or the cross-mapped shared-memory
/// transport (DESIGN.md §5.14).
using core::IntranodeTransport;

/// When the symmetric heap gets registered with the HCA (DESIGN.md §5.15).
enum class RegistrationMode : std::uint8_t {
  kEager,     ///< Whole heap pinned during start_pes (baseline; default).
  kOnDemand,  ///< Chunks pinned lazily on first remote access (rkey-fault
              ///< protocol, LRU pin-down cache).
};

// ---- Calibrated runtime costs (DESIGN.md §5.7) ----
/// Local (self) put/get cost model.
inline constexpr sim::Time kLocalCopyLatency = 80 * sim::nsec;
inline constexpr double kLocalBytesPerNs = 16.0;
/// Polling interval of shmem_wait_until.
inline constexpr sim::Time kWaitPollInterval = 1 * sim::usec;

struct ShmemConfig {
  /// Bytes of each PE's symmetric heap, the data that puts and gets really
  /// move. Demand-zero: host memory grows only with the pages written
  /// (DESIGN.md §5 item 22). At most `fabric::kSegmentStride`.
  std::uint64_t heap_bytes = 1 << 20;

  /// Heap size used for the memory-registration *cost model* (Fig 1/5b show
  /// registration of production-sized heaps; benches model 256 MiB heaps
  /// over a `heap_bytes` data heap). It sets registration cost and chunk
  /// geometry only. 0 = same as `heap_bytes`.
  std::uint64_t modeled_heap_bytes = 0;

  /// Intra-node shared-memory setup (segment creation, mmap, bootstrap).
  sim::Time shared_memory_base = 500 * sim::msec;
  sim::Time shared_memory_per_pe = 100 * sim::msec;  ///< × PEs on the node.

  /// Constant library bookkeeping during start_pes ("Other" in Fig 1).
  sim::Time init_misc = 400 * sim::msec;

  /// Symmetric-heap registration strategy. The eager default is
  /// observably identical (traces, metrics, heap contents) to the
  /// pre-subsystem behaviour.
  RegistrationMode registration = RegistrationMode::kEager;

  /// On-demand registration granularity. Must be a non-zero multiple of 8
  /// so a 64-bit atomic never straddles a chunk boundary.
  std::uint64_t reg_chunk_bytes = 2 * 1024 * 1024;

  /// Pin-down cache cap in bytes (0 = uncapped): the most heap a PE keeps
  /// registered at once under on-demand registration; LRU chunks beyond it
  /// are invalidated and deregistered.
  std::uint64_t reg_pinned_max_bytes = 0;
};

/// Complete job description: conduit/fabric/PMI config plus SHMEM knobs.
struct ShmemJobConfig {
  core::JobConfig job{};
  ShmemConfig shmem{};
};

}  // namespace odcm::shmem
