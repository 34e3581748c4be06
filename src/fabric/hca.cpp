#include <algorithm>
#include <stdexcept>

#include "fabric/fabric.hpp"

namespace odcm::fabric {

Hca::Hca(Fabric& fabric, NodeId node, Lid lid)
    : fabric_(fabric), node_(node), lid_(lid) {}

void Hca::attach_pe(RankId rank) {
  if (srqs_.empty()) srq_base_ = rank;
  if (rank < srq_base_) {
    throw std::logic_error("Hca::attach_pe: ranks attach in ascending order");
  }
  std::size_t slot = rank - srq_base_;
  if (srqs_.size() <= slot) srqs_.resize(slot + 1);
  if (srqs_[slot] != nullptr) {
    throw std::logic_error("Hca::attach_pe: rank already attached");
  }
  srqs_[slot] = std::make_unique<sim::Mailbox<RcMessage>>(fabric_.engine());
}

sim::Task<QueuePair*> Hca::create_qp(QpType type, RankId owner) {
  co_await fabric_.engine().delay(kQpCreateCost);
  co_return &materialize_qp(type, owner);
}

QueuePair& Hca::materialize_qp(QpType type, RankId owner) {
  Qpn qpn = next_qpn_++;
  if (qps_.size() <= qpn) qps_.resize(qpn + 1);
  qps_[qpn] = std::make_unique<QueuePair>(*this, qpn, type, owner);
  ++qps_live_;
  ++qps_created_;
  return *qps_[qpn];
}

sim::Task<> Hca::destroy_qp(Qpn qpn) {
  QueuePair* qp = find_qp(qpn);
  if (qp == nullptr) {
    throw std::logic_error("Hca::destroy_qp: unknown qpn");
  }
  if (qp->outstanding() != 0) {
    throw std::logic_error(
        "Hca::destroy_qp: QP has outstanding work (owner rank " +
        std::to_string(qp->owner()) + ", type " +
        std::to_string(static_cast<int>(qp->type())) + ", outstanding " +
        std::to_string(qp->outstanding()) + ")");
  }
  return destroy_qp_impl(qpn);
}

sim::Task<> Hca::destroy_qp_impl(Qpn qpn) {
  sim::Time done = reserve_command_window(kQpDestroyCost);
  co_await fabric_.engine().delay(done - fabric_.engine().now());
  // A second destroy issued while this one was in flight finds the slot
  // already empty.
  if (qps_[qpn] != nullptr) {
    qps_[qpn].reset();
    --qps_live_;
  }
}

sim::Task<MemoryRegion> Hca::register_memory(AddressSpace& space,
                                             VirtAddr start, std::uint64_t len,
                                             std::uint64_t modeled_len) {
  if (!space.contains(start, len)) {
    throw std::out_of_range("Hca::register_memory: range outside space");
  }
  return register_memory_impl(space, start, len, modeled_len);
}

sim::Task<MemoryRegion> Hca::register_memory_impl(AddressSpace& space,
                                                  VirtAddr start,
                                                  std::uint64_t len,
                                                  std::uint64_t modeled_len) {
  std::uint64_t cost_len = modeled_len != 0 ? modeled_len : len;
  std::uint64_t pages = (cost_len + kPageSize - 1) / kPageSize;
  co_await fabric_.engine().delay(kMemRegBaseCost + pages * kMemRegPerPageCost);
  RKey rkey = next_rkey_++;
  if (regions_.size() <= rkey) regions_.resize(rkey + 1);
  regions_[rkey] = Region{&space, start, len};
  ++regions_live_;
  co_return MemoryRegion{start, len, rkey};
}

void Hca::deregister_memory(RKey rkey) {
  if (rkey >= regions_.size() || regions_[rkey].space == nullptr) {
    throw std::logic_error("Hca::deregister_memory: unknown rkey");
  }
  regions_[rkey] = Region{};
  --regions_live_;
}

std::optional<std::span<std::byte>> Hca::resolve(VirtAddr raddr, RKey rkey,
                                                 std::size_t len) {
  if (rkey >= regions_.size()) return std::nullopt;
  const Region& region = regions_[rkey];
  if (region.space == nullptr ||
      !range_within(region.start, region.len, raddr, len)) {
    return std::nullopt;
  }
  return region.space->window(raddr, len);
}

sim::Mailbox<RcMessage>& Hca::srq(RankId rank) {
  std::size_t slot = rank - srq_base_;
  if (rank < srq_base_ || slot >= srqs_.size() || srqs_[slot] == nullptr) {
    throw std::logic_error("Hca::srq: rank not attached to this HCA");
  }
  return *srqs_[slot];
}

sim::Time Hca::reserve_injection_slot() {
  sim::Time now = fabric_.engine().now();
  sim::Time slot = std::max(now, next_injection_);
  next_injection_ = slot + kMinPacketGap;
  return slot;
}

sim::Time Hca::reserve_command_window(sim::Time busy) {
  sim::Time start = std::max(fabric_.engine().now(), command_free_);
  command_free_ = start + busy;
  return command_free_;
}

sim::Time Hca::cache_penalty() const noexcept {
  const auto& cfg = fabric_.config();
  return qps_live_ > cfg.hca_cache_qps ? cfg.cache_miss_penalty : 0;
}

}  // namespace odcm::fabric
