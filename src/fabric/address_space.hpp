// Simulated per-PE address space.
//
// Every PE owns one or more byte buffers (its symmetric heap, bounce
// buffers, ...) that are addressable through simulated virtual addresses.
// A fixed per-space VA base keeps addresses unique job-wide so that a
// misdirected RDMA shows up as a protection error rather than silent
// corruption.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "fabric/types.hpp"

namespace odcm::fabric {

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
  /// `va_base` must be unique per space across the job and non-zero.
  AddressSpace(RankId owner, VirtAddr va_base, std::size_t size)
      : owner_(owner), base_(va_base), bytes_(size) {
    if (va_base == 0) {
      throw std::invalid_argument("AddressSpace: va_base must be non-zero");
    }
  }

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  [[nodiscard]] RankId owner() const noexcept { return owner_; }
  [[nodiscard]] VirtAddr base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

  /// True if [va, va+len) lies inside this space.
  [[nodiscard]] bool contains(VirtAddr va, std::size_t len) const noexcept {
    return range_within(base_, bytes_.size(), va, len);
  }

  /// View of [va, va+len); throws if out of range.
  [[nodiscard]] std::span<std::byte> window(VirtAddr va, std::size_t len) {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return std::span<std::byte>(bytes_).subspan(va - base_, len);
  }

  [[nodiscard]] std::span<const std::byte> window(VirtAddr va,
                                                  std::size_t len) const {
    if (!contains(va, len)) {
      throw std::out_of_range("AddressSpace: window out of range");
    }
    return std::span<const std::byte>(bytes_).subspan(va - base_, len);
  }

  /// Whole-buffer access (local use by the owning PE).
  [[nodiscard]] std::span<std::byte> bytes() noexcept { return bytes_; }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }

 private:
  RankId owner_;
  VirtAddr base_;
  std::vector<std::byte> bytes_;
};

/// Segments per PE in the `make_va_base` layout; a larger segment number
/// would alias the next PE's VA range.
inline constexpr std::uint32_t kSegmentsPerRank = 256;

/// Conventional VA-base layout: PE `rank` gets segment `segment` based at
/// ((rank + 1) << 40) + (segment << 32). Keeps spaces disjoint and non-null.
constexpr VirtAddr make_va_base(RankId rank, std::uint32_t segment = 0) {
  return (static_cast<VirtAddr>(rank) + 1) << 40 |
         static_cast<VirtAddr>(segment) << 32;
}

}  // namespace odcm::fabric
