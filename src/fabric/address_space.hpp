// Simulated per-PE address space.
//
// Every PE owns one or more byte buffers (its symmetric heap, bounce
// buffers, ...) that are addressable through simulated virtual addresses.
// A fixed per-space VA base keeps addresses unique job-wide so that a
// misdirected RDMA shows up as a protection error rather than silent
// corruption; a space may not outgrow its segment stride, or it would
// overlap the next segment's VA range.
//
// The bytes are demand-zero (DESIGN.md §5 item 22): one private anonymous
// mapping per space, so a new segment reads as zeros and a page becomes
// resident only when it is first written. A 4,096-PE job's heaps cost
// what its puts touch, not 4,096 × heap_bytes. A poisoned redzone page on
// each side keeps AddressSanitizer's overrun reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "fabric/types.hpp"

namespace odcm::fabric {

/// Segments per PE in the `make_va_base` layout; a larger segment number
/// would alias the next PE's VA range.
inline constexpr std::uint32_t kSegmentsPerRank = 256;

/// VA distance between one PE's consecutive segments in the `make_va_base`
/// layout, and so the largest `AddressSpace`.
inline constexpr std::uint64_t kSegmentStride = std::uint64_t{1} << 32;
static_assert(kSegmentsPerRank * kSegmentStride == VirtAddr{1} << 40);

/// True if `[va, va + len)` lies inside `[start, start + size)`. Nothing is
/// summed, so an address near 2^64 cannot wrap past the check; every
/// remote-access resolver (HCA rkeys, shm exports) uses this one rule.
constexpr bool range_within(VirtAddr start, std::uint64_t size, VirtAddr va,
                            std::uint64_t len) noexcept {
  return va >= start && len <= size && va - start <= size - len;
}

/// A contiguous simulated memory segment owned by one PE.
class AddressSpace {
 public:
  /// `va_base` must be unique per space across the job and non-zero;
  /// `size` must not exceed `kSegmentStride`. Throws `std::bad_alloc` if
  /// the mapping fails.
  AddressSpace(RankId owner, VirtAddr va_base, std::size_t size);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  [[nodiscard]] RankId owner() const noexcept { return owner_; }
  [[nodiscard]] VirtAddr base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True if [va, va+len) lies inside this space.
  [[nodiscard]] bool contains(VirtAddr va, std::size_t len) const noexcept {
    return range_within(base_, size_, va, len);
  }

  /// View of [va, va+len); throws if out of range.
  [[nodiscard]] std::span<std::byte> window(VirtAddr va, std::size_t len) {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return bytes().subspan(va - base_, len);
  }

  [[nodiscard]] std::span<const std::byte> window(VirtAddr va,
                                                  std::size_t len) const {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return bytes().subspan(va - base_, len);
  }

  /// Whole-buffer access (local use by the owning PE).
  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    return {data_, size_};
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  RankId owner_;
  VirtAddr base_;
  std::size_t size_;
  std::size_t map_len_;  ///< Redzones + data, whole pages.
  std::byte* map_;
  std::byte* data_;
};

/// Conventional VA-base layout: PE `rank` gets segment `segment` based at
/// ((rank + 1) << 40) + segment × kSegmentStride. Keeps spaces disjoint
/// and non-null.
constexpr VirtAddr make_va_base(RankId rank, std::uint32_t segment = 0) {
  return (static_cast<VirtAddr>(rank) + 1) << 40 |
         static_cast<VirtAddr>(segment) * kSegmentStride;
}

}  // namespace odcm::fabric
