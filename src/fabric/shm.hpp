// Intra-node shared-memory transport substrate: per-node cross-mapped
// symmetric segments.
//
// Production on-demand runtimes put same-node peers on a load/store path
// instead of RC loopback: at init every PE maps its symmetric segment into
// a per-node shared region, and same-node peers attach the whole region
// once. After that, put/get is a CMA-style process-to-process copy and
// atomics are plain CPU atomics on the shared mapping. No UD handshake and
// no rkey are involved — the mapping metadata travels through the
// node-local bootstrap exchange.
//
// `ShmDomain` models that per-node region: an export registry keyed by
// rank (the node-local, rkey-free analogue of the HCA registration table).
// The conduit's transport-selection layer (core/conduit.hpp) resolves
// same-node operations through it and charges the shm cost model
// (`FabricConfig::shm_*`), which is calibrated separately from the HCA
// loopback path. Coherence with RC atomics falls out of the object model:
// both paths resolve into the *same* `AddressSpace` bytes and apply each
// RMW through the same `fabric::execute` at a single simulated instant
// (DESIGN.md §5.14).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>

#include "fabric/address_space.hpp"
#include "fabric/types.hpp"
#include "sim/task.hpp"

namespace odcm::fabric {

class Fabric;

/// One per node. Owns the cross-map registry for every PE on that node.
class ShmDomain {
 public:
  ShmDomain(Fabric& fabric, NodeId node);
  ShmDomain(const ShmDomain&) = delete;
  ShmDomain& operator=(const ShmDomain&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// Cross-map `[base, base + len)` of `space` so same-node peers can
  /// load/store it directly. Charges `kShmAttachCost` of virtual time.
  /// `space` must outlive the domain. Re-exporting replaces the mapping.
  [[nodiscard]] sim::Task<> export_segment(RankId rank, AddressSpace& space,
                                           VirtAddr base, std::uint64_t len);

  [[nodiscard]] bool exported(RankId rank) const noexcept {
    return exports_.contains(rank);
  }

  /// Resolve `(rank, va, len)` against the export registry. Empty when the
  /// rank never exported or the range falls outside its mapping — the shm
  /// analogue of an rkey violation, surfaced as `kRemoteAccessError`.
  [[nodiscard]] std::optional<std::span<std::byte>> resolve(RankId rank,
                                                            VirtAddr va,
                                                            std::size_t len);

  /// Number of segments ever exported into this domain (resource report).
  [[nodiscard]] std::uint64_t segments_exported() const noexcept {
    return segments_exported_;
  }

 private:
  struct Export {
    AddressSpace* space;
    VirtAddr base;
    std::uint64_t len;
  };

  Fabric& fabric_;
  NodeId node_;
  std::uint64_t segments_exported_ = 0;
  std::map<RankId, Export> exports_{};
};

}  // namespace odcm::fabric
