#include <array>
#include <cstring>

#include "apps/mg.hpp"

namespace odcm::apps {

MgParams mg_params() { return MgParams{}; }

sim::Task<> mg_pe(shmem::ShmemPe& pe, MgParams params, KernelResult& result) {
  const std::uint32_t p = pe.n_pes();
  const Grid3D grid = Grid3D::decompose(pe.rank(), p);

  const std::array<std::array<int, 3>, 6> kDirections{
      {{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}};
  std::array<RankId, 6> neighbor{};
  for (std::uint32_t d = 0; d < 6; ++d) {
    neighbor[d] = grid.neighbor_wrap(kDirections[d][0], kDirections[d][1],
                                     kDirections[d][2]);
  }

  const std::uint64_t max_face_bytes = 8ULL * params.finest_face_elems;
  shmem::SymAddr recv_base = pe.heap().allocate(max_face_bytes * 12, 8);
  // Per-direction arrival counters (see grid_kernel.cpp for why).
  shmem::SymAddr flag = pe.heap().allocate(8 * 6, 8);
  shmem::SymAddr red_src = pe.heap().allocate(8, 8);
  shmem::SymAddr red_dst = pe.heap().allocate(8, 8);
  for (std::uint32_t d = 0; d < 6; ++d) {
    pe.local_write<std::uint64_t>(flag + 8 * d, 0);
  }

  co_await pe.barrier_all();

  std::vector<std::byte> face(max_face_bytes);
  std::uint64_t step = 0;  // global exchange index across cycles/levels

  auto exchange = [&](std::uint32_t level) -> sim::Task<> {
    std::uint32_t elems =
        std::max<std::uint32_t>(1, params.finest_face_elems >> (2 * level));
    std::uint64_t bytes = 8ULL * elems;
    for (std::uint32_t d = 0; d < 6; ++d) {
      std::uint32_t channel =
          static_cast<std::uint32_t>((step % 2) * 6 + (d ^ 1u));
      for (std::uint32_t e = 0; e < elems; ++e) {
        double value = halo_value(pe.rank(), step, d, e);
        std::memcpy(face.data() + 8ULL * e, &value, 8);
      }
      shmem::SymAddr slot = recv_base + max_face_bytes * channel;
      pe.put_nbi(neighbor[d], slot,
                 std::span<const std::byte>(face.data(), bytes));
    }
    co_await pe.quiet();
    for (std::uint32_t d = 0; d < 6; ++d) {
      co_await pe.atomic_inc(neighbor[d], flag + 8 * (d ^ 1u));
    }
    for (std::uint32_t d = 0; d < 6; ++d) {
      co_await pe.wait_until(flag + 8 * d, shmem::WaitCmp::kGe, step + 1);
    }

    if (params.verify_halos) {
      for (std::uint32_t d = 0; d < 6; ++d) {
        shmem::SymAddr slot =
            recv_base + max_face_bytes * ((step % 2) * 6 + d);
        RankId sender = neighbor[d];
        for (std::uint32_t e = 0; e < elems; ++e) {
          double got = pe.local_read<double>(slot + 8ULL * e);
          double want = halo_value(sender, step, d ^ 1u, e);
          if (got != want) {
            result.fail("mg: halo mismatch at step " + std::to_string(step));
          }
        }
      }
    }
    ++step;
  };

  for (std::uint32_t cycle = 0; cycle < params.vcycles; ++cycle) {
    // Down-sweep (restriction) and up-sweep (prolongation) of the V-cycle.
    for (std::uint32_t level = 0; level < params.levels; ++level) {
      co_await compute(pe, params.compute_ns_finest /
                               static_cast<double>(1u << (3 * level)));
      co_await exchange(level);
    }
    for (std::uint32_t level = params.levels; level-- > 0;) {
      co_await compute(pe, params.compute_ns_finest /
                               static_cast<double>(1u << (3 * level)));
      co_await exchange(level);
    }
    pe.local_write<double>(red_src, static_cast<double>(pe.rank() + cycle));
    co_await pe.reduce<double>(red_dst, red_src, 1, shmem::ReduceOp::kSum);
  }

  co_await pe.barrier_all();
}

}  // namespace odcm::apps
