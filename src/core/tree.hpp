// The one collective tree: every tree collective of the stack — the
// conduit's AM barrier, OpenSHMEM broadcast/reduce and MPI-lite
// bcast/reduce — talks only to its parent and at most kTreeFanout children
// of this k-ary tree, so the collectives share connections and Table I's
// tree peer counts follow from one constant (DESIGN.md §5 item 20).
#pragma once

#include <algorithm>
#include <cstdint>

namespace odcm::core {

/// Fan-out of every collective tree.
inline constexpr std::uint32_t kTreeFanout = 4;

/// One rank's place in the kTreeFanout-ary tree over ranks [0, n) rooted at
/// `root`. The tree is laid out over virtual ranks, which rotate the ranks
/// so the root is vrank 0: vrank v's children are v * kTreeFanout + 1, ...
/// (those below n), its parent (v - 1) / kTreeFanout. Accessors return
/// ranks, not vranks.
class KaryTree {
 public:
  constexpr KaryTree(std::uint32_t n, std::uint32_t rank,
                     std::uint32_t root = 0) noexcept
      : n_(n), root_(root), vrank_(to_vrank(rank)) {}

  [[nodiscard]] constexpr bool is_root() const noexcept { return vrank_ == 0; }
  /// The parent's rank; only meaningful off the root.
  [[nodiscard]] constexpr std::uint32_t parent() const noexcept {
    return to_rank((vrank_ - 1) / kTreeFanout);
  }
  [[nodiscard]] constexpr std::uint32_t child_count() const noexcept {
    const std::uint64_t first =
        static_cast<std::uint64_t>(vrank_) * kTreeFanout + 1;
    if (first >= n_) return 0;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kTreeFanout, n_ - first));
  }
  /// Rank of child `i` (< child_count()); children ascend by vrank.
  [[nodiscard]] constexpr std::uint32_t child(std::uint32_t i) const noexcept {
    return to_rank(vrank_ * kTreeFanout + 1 + i);
  }

  /// Root rotation and its inverse.
  [[nodiscard]] constexpr std::uint32_t to_vrank(
      std::uint32_t rank) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(rank) + n_ - root_) % n_);
  }
  [[nodiscard]] constexpr std::uint32_t to_rank(
      std::uint32_t vrank) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(vrank) + root_) % n_);
  }

 private:
  std::uint32_t n_;
  std::uint32_t root_;
  std::uint32_t vrank_;
};

}  // namespace odcm::core
