#include <cmath>
#include <cstring>
#include <vector>

#include "apps/heat2d.hpp"

namespace odcm::apps {

namespace {

/// Interior cells along one axis owned by grid coordinate `c` of `parts`.
std::uint32_t share(std::uint32_t total, std::uint32_t parts,
                    std::uint32_t c) {
  return total / parts + (c < total % parts ? 1 : 0);
}

/// First global interior index (1-based) owned by coordinate `c`.
std::uint32_t offset(std::uint32_t total, std::uint32_t parts,
                     std::uint32_t c) {
  std::uint32_t base = total / parts;
  std::uint32_t extra = total % parts;
  return 1 + c * base + std::min(c, extra);
}

/// Serial reference: Jacobi on the full (n+2)^2 grid, boundary = 1.
std::vector<double> serial_heat(std::uint32_t n, std::uint32_t iters) {
  const std::uint32_t w = n + 2;
  std::vector<double> u0(w * w, 0.0);
  for (std::uint32_t i = 0; i < w; ++i) {
    u0[i] = u0[(w - 1) * w + i] = u0[i * w] = u0[i * w + w - 1] = 1.0;
  }
  std::vector<double> u1 = u0;
  for (std::uint32_t t = 0; t < iters; ++t) {
    std::vector<double>& src = (t % 2 == 0) ? u0 : u1;
    std::vector<double>& dst = (t % 2 == 0) ? u1 : u0;
    for (std::uint32_t j = 1; j <= n; ++j) {
      for (std::uint32_t i = 1; i <= n; ++i) {
        dst[j * w + i] = 0.25 * (src[j * w + i - 1] + src[j * w + i + 1] +
                                 src[(j - 1) * w + i] + src[(j + 1) * w + i]);
      }
    }
  }
  return iters % 2 == 0 ? u0 : u1;
}

}  // namespace

sim::Task<> heat2d_pe(shmem::ShmemPe& pe, Heat2dParams params,
                      KernelResult& result) {
  const std::uint32_t p = pe.n_pes();
  const Grid2D grid = Grid2D::decompose(pe.rank(), p);
  const std::uint32_t n = params.global_n;
  if (n < grid.px || n < grid.py) {
    throw std::invalid_argument("heat2d: grid too small for PE count");
  }

  // Symmetric layout (identical on every PE — max tile sizes).
  const std::uint32_t nx_max = share(n, grid.px, 0);
  const std::uint32_t ny_max = share(n, grid.py, 0);
  const std::uint32_t tile_w = nx_max + 2;
  const std::uint32_t tile_h = ny_max + 2;
  const std::uint64_t tile_bytes = 8ULL * tile_w * tile_h;

  shmem::SymAddr u_addr[2] = {pe.heap().allocate(tile_bytes, 8),
                              pe.heap().allocate(tile_bytes, 8)};
  // Column staging buffers: [from-west / from-east] x iteration parity
  // (a neighbor can run one iteration ahead, so single buffers would race).
  shmem::SymAddr col_recv[2][2] = {
      {pe.heap().allocate(8ULL * ny_max, 8), pe.heap().allocate(8ULL * ny_max, 8)},
      {pe.heap().allocate(8ULL * ny_max, 8), pe.heap().allocate(8ULL * ny_max, 8)}};
  // Per-direction arrival counters (0=from-west, 1=from-east, 2=from-north,
  // 3=from-south). One cumulative counter would double-count a neighbor
  // that runs an iteration ahead and let the wait pass too early.
  shmem::SymAddr halo_flag = pe.heap().allocate(8 * 4, 8);
  shmem::SymAddr red_src = pe.heap().allocate(8, 8);
  shmem::SymAddr red_dst = pe.heap().allocate(8, 8);

  const std::uint32_t nx = share(n, grid.px, grid.x);
  const std::uint32_t ny = share(n, grid.py, grid.y);

  auto cell = [&](int which, std::uint32_t i, std::uint32_t j) {
    return u_addr[which] + 8ULL * (static_cast<std::uint64_t>(j) * tile_w + i);
  };

  // Initialize: interior 0, global boundary 1 (in the ghost layer).
  for (int which = 0; which < 2; ++which) {
    for (std::uint32_t j = 0; j < tile_h; ++j) {
      for (std::uint32_t i = 0; i < tile_w; ++i) {
        bool west_edge = grid.x == 0 && i == 0;
        bool east_edge = grid.x == grid.px - 1 && i == nx + 1;
        bool north_edge = grid.y == 0 && j == 0;
        bool south_edge = grid.y == grid.py - 1 && j == ny + 1;
        double value =
            (west_edge || east_edge || north_edge || south_edge) ? 1.0 : 0.0;
        pe.local_write<double>(cell(which, i, j), value);
      }
    }
  }
  for (int d = 0; d < 4; ++d) {
    pe.local_write<std::uint64_t>(halo_flag + 8 * d, 0);
  }

  auto west = grid.neighbor(-1, 0);
  auto east = grid.neighbor(1, 0);
  auto north = grid.neighbor(0, -1);
  auto south = grid.neighbor(0, 1);

  co_await pe.barrier_all();  // everyone initialized

  std::vector<std::byte> pack(8ULL * ny_max);
  for (std::uint32_t t = 0; t < params.iters; ++t) {
    const int src = static_cast<int>(t % 2);
    const int dst = 1 - src;

    // Jacobi update (real doubles).
    for (std::uint32_t j = 1; j <= ny; ++j) {
      for (std::uint32_t i = 1; i <= nx; ++i) {
        double value = 0.25 * (pe.local_read<double>(cell(src, i - 1, j)) +
                               pe.local_read<double>(cell(src, i + 1, j)) +
                               pe.local_read<double>(cell(src, i, j - 1)) +
                               pe.local_read<double>(cell(src, i, j + 1)));
        pe.local_write<double>(cell(dst, i, j), value);
      }
    }
    co_await compute(pe, params.compute_ns_per_cell * nx * ny);

    // Halo exchange of the freshly written array. Rows are contiguous and
    // go straight into the neighbor's ghost row; columns are packed into a
    // staging buffer on the receiver.
    if (north) {
      // Our top interior row lands in the north neighbor's *south* ghost
      // row, whose index depends on the neighbor's tile height.
      std::uint32_t their_ny = share(n, grid.py, grid.y - 1);
      shmem::SymAddr target =
          u_addr[dst] +
          8ULL * (static_cast<std::uint64_t>(their_ny + 1) * tile_w + 1);
      auto row = pe.local_window(cell(dst, 1, 1), 8ULL * nx);
      co_await pe.put(*north, target, row);
      co_await pe.atomic_inc(*north, halo_flag + 8 * 3);  // their from-south
    }
    if (south) {
      auto row = pe.local_window(cell(dst, 1, ny), 8ULL * nx);
      co_await pe.put(*south, cell(dst, 1, 0), row);
      co_await pe.atomic_inc(*south, halo_flag + 8 * 2);  // their from-north
    }
    if (west) {
      for (std::uint32_t j = 1; j <= ny; ++j) {
        double value = pe.local_read<double>(cell(dst, 1, j));
        std::memcpy(pack.data() + 8ULL * (j - 1), &value, 8);
      }
      co_await pe.put(*west, col_recv[1][t % 2],
                      std::span<const std::byte>(pack.data(), 8ULL * ny));
      co_await pe.atomic_inc(*west, halo_flag + 8 * 1);  // their from-east
    }
    if (east) {
      for (std::uint32_t j = 1; j <= ny; ++j) {
        double value = pe.local_read<double>(cell(dst, nx, j));
        std::memcpy(pack.data() + 8ULL * (j - 1), &value, 8);
      }
      co_await pe.put(*east, col_recv[0][t % 2],
                      std::span<const std::byte>(pack.data(), 8ULL * ny));
      co_await pe.atomic_inc(*east, halo_flag + 8 * 0);  // their from-west
    }

    if (west) {
      co_await pe.wait_until(halo_flag + 8 * 0, shmem::WaitCmp::kGe, t + 1);
    }
    if (east) {
      co_await pe.wait_until(halo_flag + 8 * 1, shmem::WaitCmp::kGe, t + 1);
    }
    if (north) {
      co_await pe.wait_until(halo_flag + 8 * 2, shmem::WaitCmp::kGe, t + 1);
    }
    if (south) {
      co_await pe.wait_until(halo_flag + 8 * 3, shmem::WaitCmp::kGe, t + 1);
    }

    // Unpack the column halos into the ghost columns of dst.
    if (east) {
      for (std::uint32_t j = 1; j <= ny; ++j) {
        double value =
            pe.local_read<double>(col_recv[1][t % 2] + 8ULL * (j - 1));
        pe.local_write<double>(cell(dst, nx + 1, j), value);
      }
    }
    if (west) {
      for (std::uint32_t j = 1; j <= ny; ++j) {
        double value =
            pe.local_read<double>(col_recv[0][t % 2] + 8ULL * (j - 1));
        pe.local_write<double>(cell(dst, 0, j), value);
      }
    }

    if (params.residual_every != 0 && (t + 1) % params.residual_every == 0) {
      double local = 0;
      for (std::uint32_t j = 1; j <= ny; ++j) {
        for (std::uint32_t i = 1; i <= nx; ++i) {
          double diff = pe.local_read<double>(cell(dst, i, j)) -
                        pe.local_read<double>(cell(src, i, j));
          local += diff * diff;
        }
      }
      pe.local_write<double>(red_src, local);
      co_await pe.reduce<double>(red_dst, red_src, 1, shmem::ReduceOp::kSum);
    }
  }

  co_await pe.barrier_all();

  if (params.verify && pe.rank() == 0) {
    std::vector<double> reference = serial_heat(n, params.iters);
    const int final_which = static_cast<int>(params.iters % 2);
    const std::uint32_t w = n + 2;
    std::vector<std::byte> tile(tile_bytes);
    for (RankId r = 0; r < p; ++r) {
      Grid2D rg = Grid2D::decompose(r, p);
      co_await pe.get(r, u_addr[final_which], tile);
      std::uint32_t rnx = share(n, grid.px, rg.x);
      std::uint32_t rny = share(n, grid.py, rg.y);
      std::uint32_t gx = offset(n, grid.px, rg.x);
      std::uint32_t gy = offset(n, grid.py, rg.y);
      for (std::uint32_t j = 1; j <= rny; ++j) {
        for (std::uint32_t i = 1; i <= rnx; ++i) {
          double got = 0;
          std::memcpy(&got,
                      tile.data() +
                          8ULL * (static_cast<std::uint64_t>(j) * tile_w + i),
                      8);
          double want = reference[(gy + j - 1) * w + (gx + i - 1)];
          if (got != want) {
            result.fail("heat2d: mismatch at rank " + std::to_string(r));
          }
        }
      }
    }
  }
  co_await pe.barrier_all();
}

}  // namespace odcm::apps
