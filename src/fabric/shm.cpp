#include "fabric/shm.hpp"

#include "fabric/fabric.hpp"

namespace odcm::fabric {

ShmDomain::ShmDomain(Fabric& fabric, NodeId node)
    : fabric_(fabric), node_(node) {}

sim::Task<> ShmDomain::export_segment(RankId rank, AddressSpace& space,
                                      VirtAddr base, std::uint64_t len) {
  co_await fabric_.engine().delay(kShmAttachCost);
  exports_[rank] = Export{&space, base, len};
  ++segments_exported_;
}

std::optional<std::span<std::byte>> ShmDomain::resolve(RankId rank,
                                                       VirtAddr va,
                                                       std::size_t len) {
  auto it = exports_.find(rank);
  if (it == exports_.end()) return std::nullopt;
  const Export& exp = it->second;
  if (!range_within(exp.base, exp.len, va, len)) return std::nullopt;
  return exp.space->window(va, len);
}

}  // namespace odcm::fabric
