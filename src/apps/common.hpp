// Shared infrastructure for the application kernels: process-grid
// decompositions, the compute-time model, and result reporting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "shmem/job.hpp"
#include "sim/task.hpp"

namespace odcm::apps {

using RankId = shmem::RankId;

/// Outcome of one PE's kernel run. `verified` is the logical AND of every
/// data check the kernel performed (halo contents, reference solutions,
/// BFS validation, ...).
struct KernelResult {
  bool verified = true;
  std::string error{};

  void fail(std::string message) {
    verified = false;
    if (error.empty()) error = std::move(message);
  }
};

/// Model `ns` nanoseconds of local computation (virtual time).
inline sim::Task<> compute(shmem::ShmemPe& pe, double ns) {
  co_await pe.engine().delay(static_cast<sim::Time>(ns));
}

/// 2D process grid: the most square px × py factorization of P.
struct Grid2D {
  std::uint32_t px = 1;
  std::uint32_t py = 1;
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  RankId rank = 0;

  static Grid2D decompose(RankId rank, std::uint32_t p) {
    Grid2D grid;
    std::uint32_t px = 1;
    for (std::uint32_t d = 1; d * d <= p; ++d) {
      if (p % d == 0) px = d;
    }
    grid.px = px;
    grid.py = p / px;
    grid.rank = rank;
    grid.x = rank % grid.px;
    grid.y = rank / grid.px;
    return grid;
  }

  /// Neighbor at offset (dx, dy); nullopt outside the grid.
  [[nodiscard]] std::optional<RankId> neighbor(int dx, int dy) const {
    std::int64_t nx = static_cast<std::int64_t>(x) + dx;
    std::int64_t ny = static_cast<std::int64_t>(y) + dy;
    if (nx < 0 || ny < 0 || nx >= px || ny >= py) return std::nullopt;
    return static_cast<RankId>(ny * px + nx);
  }

  /// Neighbor at offset with periodic (torus) wrap-around.
  [[nodiscard]] RankId neighbor_wrap(int dx, int dy) const {
    std::int64_t nx = (static_cast<std::int64_t>(x) + dx + px) % px;
    std::int64_t ny = (static_cast<std::int64_t>(y) + dy + py) % py;
    return static_cast<RankId>(ny * px + nx);
  }
};

/// 3D process grid: most cubic factorization of P.
struct Grid3D {
  std::uint32_t px = 1, py = 1, pz = 1;
  std::uint32_t x = 0, y = 0, z = 0;
  RankId rank = 0;

  static Grid3D decompose(RankId rank, std::uint32_t p) {
    Grid3D grid;
    // Pick px <= py <= pz with px*py*pz == p, as cubic as possible.
    std::uint32_t best_px = 1, best_py = 1;
    double best_score = 1e18;
    for (std::uint32_t a = 1; a * a * a <= p * 4ULL; ++a) {
      if (p % a != 0) continue;
      std::uint32_t rest = p / a;
      for (std::uint32_t b = a; b * b <= rest * 2ULL; ++b) {
        if (rest % b != 0) continue;
        std::uint32_t c = rest / b;
        double score = static_cast<double>(c) - static_cast<double>(a);
        if (score < best_score) {
          best_score = score;
          best_px = a;
          best_py = b;
        }
      }
    }
    grid.px = best_px;
    grid.py = best_py;
    grid.pz = p / (best_px * best_py);
    grid.rank = rank;
    grid.x = rank % grid.px;
    grid.y = (rank / grid.px) % grid.py;
    grid.z = rank / (grid.px * grid.py);
    return grid;
  }

  [[nodiscard]] std::optional<RankId> neighbor(int dx, int dy, int dz) const {
    std::int64_t nx = static_cast<std::int64_t>(x) + dx;
    std::int64_t ny = static_cast<std::int64_t>(y) + dy;
    std::int64_t nz = static_cast<std::int64_t>(z) + dz;
    if (nx < 0 || ny < 0 || nz < 0 || nx >= px || ny >= py || nz >= pz) {
      return std::nullopt;
    }
    return static_cast<RankId>((nz * py + ny) * px + nx);
  }

  /// Neighbor at offset with periodic (torus) wrap-around on every axis.
  [[nodiscard]] RankId neighbor_wrap(int dx, int dy, int dz) const {
    std::int64_t nx = (static_cast<std::int64_t>(x) + dx + px) % px;
    std::int64_t ny = (static_cast<std::int64_t>(y) + dy + py) % py;
    std::int64_t nz = (static_cast<std::int64_t>(z) + dz + pz) % pz;
    return static_cast<RankId>((nz * py + ny) * px + nx);
  }
};

/// Deterministic pattern for halo-content verification: a value every PE
/// can compute for any (sender, iteration, channel, element).
inline double halo_value(RankId sender, std::uint64_t iter,
                         std::uint32_t channel, std::uint32_t element) {
  return static_cast<double>(sender) * 1e6 + static_cast<double>(iter) * 1e3 +
         static_cast<double>(channel) * 16.0 + static_cast<double>(element);
}

}  // namespace odcm::apps
