#include <array>
#include <cstring>

#include "apps/grid_kernel.hpp"

namespace odcm::apps {

GridKernelParams bt_params() {
  GridKernelParams params;
  params.iters = 24;
  params.face_elems = 480;
  params.sweeps = 3;
  params.residual_every = 6;
  params.compute_ns_per_iter = 9.0e6;
  return params;
}

GridKernelParams sp_params() {
  GridKernelParams params;
  params.iters = 48;
  params.face_elems = 160;
  params.sweeps = 4;
  params.residual_every = 8;
  params.compute_ns_per_iter = 3.5e6;
  return params;
}

sim::Task<> grid_kernel_pe(shmem::ShmemPe& pe, GridKernelParams params,
                           KernelResult& result) {
  const std::uint32_t p = pe.n_pes();
  const Grid2D grid = Grid2D::decompose(pe.rank(), p);

  // The 8 torus neighbors (orthogonal sweeps + diagonal multi-partition
  // shifts). On small grids some directions alias to the same rank; the
  // channel index keeps their mailboxes apart.
  const std::array<std::pair<int, int>, 8> kDirections{
      {{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}}};
  std::array<RankId, 8> neighbor{};
  // Index of the opposite direction (the direction from the peer's view):
  // orthogonal pairs are adjacent, diagonal opposites are 4<->7 and 5<->6.
  const std::array<std::uint32_t, 8> reverse{1, 0, 3, 2, 7, 6, 5, 4};
  for (std::uint32_t d = 0; d < 8; ++d) {
    neighbor[d] = grid.neighbor_wrap(kDirections[d].first,
                                     kDirections[d].second);
  }

  const std::uint64_t face_bytes = 8ULL * params.face_elems;
  // Receive slots: one per direction per sweep, double-buffered by
  // iteration parity (a neighbor can run at most one iteration ahead, so
  // two buffers suffice), plus a cumulative arrival flag.
  const std::uint32_t slots = 2 * 8 * params.sweeps;
  shmem::SymAddr recv_base = pe.heap().allocate(face_bytes * slots, 8);
  // Per-direction arrival counters: a cumulative counter would double-count
  // a neighbor running one iteration ahead.
  shmem::SymAddr flag = pe.heap().allocate(8 * 8, 8);
  shmem::SymAddr red_src = pe.heap().allocate(8, 8);
  shmem::SymAddr red_dst = pe.heap().allocate(8, 8);
  for (std::uint32_t d = 0; d < 8; ++d) {
    pe.local_write<std::uint64_t>(flag + 8 * d, 0);
  }

  co_await pe.barrier_all();

  std::vector<std::byte> face(face_bytes);

  for (std::uint32_t t = 0; t < params.iters; ++t) {
    for (std::uint32_t sweep = 0; sweep < params.sweeps; ++sweep) {
      // Sweep compute, then push faces to all 8 neighbors.
      co_await compute(pe, params.compute_ns_per_iter /
                               static_cast<double>(params.sweeps));
      for (std::uint32_t d = 0; d < 8; ++d) {
        std::uint32_t channel = sweep * 8 + d;
        for (std::uint32_t e = 0; e < params.face_elems; ++e) {
          double value = halo_value(pe.rank(), t, channel, e);
          std::memcpy(face.data() + 8ULL * e, &value, 8);
        }
        // Deliver into the slot the receiver watches for the *incoming*
        // direction (our direction reversed), in this iteration's parity
        // buffer.
        shmem::SymAddr slot =
            recv_base +
            face_bytes * (((t % 2) * params.sweeps + sweep) * 8 + reverse[d]);
        pe.put_nbi(neighbor[d], slot, face);
      }
      co_await pe.quiet();
      for (std::uint32_t d = 0; d < 8; ++d) {
        co_await pe.atomic_inc(neighbor[d], flag + 8 * reverse[d]);
      }
    }

    for (std::uint32_t d = 0; d < 8; ++d) {
      co_await pe.wait_until(flag + 8 * d, shmem::WaitCmp::kGe,
                             static_cast<std::uint64_t>(params.sweeps) *
                                 (t + 1));
    }

    if (params.verify_halos) {
      for (std::uint32_t sweep = 0; sweep < params.sweeps; ++sweep) {
        for (std::uint32_t d = 0; d < 8; ++d) {
          // Slot d of this sweep was filled by the neighbor in direction d,
          // writing its channel (sweep*8 + d^1 reversed twice = d)… from
          // the sender's perspective the channel was sweep*8 + (d^1)^1.
          RankId sender = neighbor[d];
          std::uint32_t sender_channel = sweep * 8 + reverse[d];
          shmem::SymAddr slot =
              recv_base +
              face_bytes * (((t % 2) * params.sweeps + sweep) * 8 + d);
          for (std::uint32_t e = 0; e < params.face_elems; ++e) {
            double got = pe.local_read<double>(slot + 8ULL * e);
            double want = halo_value(sender, t, sender_channel, e);
            if (got != want) {
              result.fail("grid kernel: halo mismatch at iter " +
                          std::to_string(t));
            }
          }
        }
      }
    }

    if (params.residual_every != 0 && (t + 1) % params.residual_every == 0) {
      pe.local_write<double>(red_src, static_cast<double>(pe.rank() + t));
      co_await pe.reduce<double>(red_dst, red_src, 1, shmem::ReduceOp::kSum);
    }
  }

  co_await pe.barrier_all();
}

}  // namespace odcm::apps
