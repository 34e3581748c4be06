// Touched-peer storage for the conduit: one slot per peer a PE touched.
//
// Slots live in a `std::deque` in first-touch order, so references stay
// stable across inserts (`Peer&` is held across co_await throughout the
// protocol code). A rank finds its slot through an open-addressing index
// sized by the touched peers, not the job size: a dense per-PE row would
// cost 4 B per PE pair, 64 MiB at 4,096 PEs. The index is a power-of-two
// array of 4-byte slot numbers with a multiplicative (Fibonacci) hash and
// linear probing, doubled whenever an insert would push its load above
// 3/4. A probe compares against the slot's own `rank`, the line the caller
// loads anyway. The index is never iterated outside a rehash, so nothing
// observable depends on its layout; rank-order walks sort the touched
// slots (`by_rank`). A node-based `std::unordered_map` was measured slower
// on the same lookup (DESIGN.md §5 item 10).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace odcm::core {

/// Empty index bucket.
inline constexpr std::uint32_t kNoPeerSlot = 0xffffffffu;

/// `Peer` must be default-constructible and expose a 32-bit `rank`.
template <typename Peer>
class PeerTable {
 public:
  /// The slot of `rank`, created on first touch.
  Peer& get(std::uint32_t rank) {
    std::size_t at = 0;
    if (!buckets_.empty()) {
      at = bucket(rank);
      if (buckets_[at] != kNoPeerSlot) return slots_[buckets_[at]];
    }
    if ((slots_.size() + 1) * 4 > buckets_.size() * 3) {
      grow();
      at = bucket(rank);
    }
    buckets_[at] = static_cast<std::uint32_t>(slots_.size());
    Peer& p = slots_.emplace_back();
    p.rank = rank;
    return p;
  }

  /// The slot of `rank`, or nullptr if never touched.
  [[nodiscard]] const Peer* find(std::uint32_t rank) const noexcept {
    if (buckets_.empty()) return nullptr;
    const std::uint32_t slot = buckets_[bucket(rank)];
    return slot == kNoPeerSlot ? nullptr : &slots_[slot];
  }
  [[nodiscard]] Peer* find(std::uint32_t rank) noexcept {
    return const_cast<Peer*>(std::as_const(*this).find(rank));
  }

  /// Every slot in first-touch order.
  [[nodiscard]] const std::deque<Peer>& slots() const noexcept {
    return slots_;
  }

  /// Every slot in ascending rank order: O(k log k) in the k touched peers.
  [[nodiscard]] std::vector<Peer*> by_rank() {
    std::vector<Peer*> peers;
    peers.reserve(slots_.size());
    for (Peer& p : slots_) peers.push_back(&p);
    std::sort(peers.begin(), peers.end(),
              [](const Peer* a, const Peer* b) { return a->rank < b->rank; });
    return peers;
  }

  /// Index buckets allocated (a power of two; 0 before the first touch).
  [[nodiscard]] std::size_t index_capacity() const noexcept {
    return buckets_.size();
  }

 private:
  /// The bucket holding `rank`, or the empty bucket that ends its probe.
  /// The probe starts at the top bits of rank · 2^32/φ.
  [[nodiscard]] std::size_t bucket(std::uint32_t rank) const noexcept {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t at = static_cast<std::uint32_t>(rank * 0x9e3779b9u) >> shift_;
    while (buckets_[at] != kNoPeerSlot && slots_[buckets_[at]].rank != rank) {
      at = (at + 1) & mask;
    }
    return at;
  }

  void grow() {
    const std::vector<std::uint32_t> old = std::move(buckets_);
    buckets_.assign(old.empty() ? 2 : 2 * old.size(), kNoPeerSlot);
    shift_ = 32 - static_cast<std::uint32_t>(std::countr_zero(buckets_.size()));
    for (const std::uint32_t slot : old) {
      if (slot != kNoPeerSlot) buckets_[bucket(slots_[slot].rank)] = slot;
    }
  }

  std::deque<Peer> slots_{};
  std::vector<std::uint32_t> buckets_{};
  std::uint32_t shift_ = 32;
};

}  // namespace odcm::core
