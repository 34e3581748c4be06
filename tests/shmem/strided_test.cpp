// Tests for strided transfers (iput/iget), fence, and shmem_ptr-style
// same-node direct access.
#include <gtest/gtest.h>

#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

TEST(Iput, StridedScatterPlacesElements) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8 * 16);
    for (int i = 0; i < 16; ++i) pe.local_write<std::uint64_t>(buf + 8 * i, 0);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      // Source: 4 contiguous u64; target: every third slot.
      std::vector<std::byte> src(8 * 4);
      for (std::uint64_t k = 0; k < 4; ++k) {
        std::memcpy(src.data() + 8 * k, &k, 8);
      }
      pe.iput(1, buf, src, /*dst_stride=*/3, /*src_stride=*/1, /*elem=*/8,
              /*nelems=*/4);
      co_await pe.quiet();
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      for (std::uint64_t k = 0; k < 4; ++k) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(buf + 8 * (3 * k)), k);
      }
      // Untouched gaps stay zero.
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf + 8 * 1), 0u);
      EXPECT_EQ(pe.local_read<std::uint64_t>(buf + 8 * 2), 0u);
    }
  }));
}

TEST(Iget, StridedGatherReadsElements) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(8 * 12);
    for (std::uint64_t i = 0; i < 12; ++i) {
      pe.local_write<std::uint64_t>(buf + 8 * i, 100 * pe.rank() + i);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      // Read every second element from PE 1 into a packed buffer.
      std::vector<std::byte> dest(8 * 6);
      co_await pe.iget(1, dest, buf, /*dst_stride=*/1, /*src_stride=*/2,
                       /*elem=*/8, /*nelems=*/6);
      for (std::uint64_t k = 0; k < 6; ++k) {
        std::uint64_t value = 0;
        std::memcpy(&value, dest.data() + 8 * k, 8);
        EXPECT_EQ(value, 100 + 2 * k);
      }
    }
    co_await pe.barrier_all();
  }));
}

TEST(Iput, SourceTooSmallThrows) {
  JobEnv env(small_job(2, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(64);
    std::vector<std::byte> tiny(8);
    EXPECT_THROW(pe.iput(1 - pe.rank(), buf, tiny, 1, 2, 8, 2),
                 std::out_of_range);
    EXPECT_THROW(pe.iput(1 - pe.rank(), buf, tiny, 0, 1, 8, 1),
                 std::invalid_argument);
    co_await pe.barrier_all();
  }));
}

// The last element's offset (nelems - 1) * stride * elem is
// 2^30 * 2^31 * 8 = 2^64: a bound that multiplies wraps it to 0 and lets
// element 1 touch memory 16 GiB past an 8-byte buffer.
constexpr std::uint32_t kWrapStride = 1u << 31;
constexpr std::uint32_t kWrapElems = (1u << 30) + 1;

TEST(Iput, StridedBoundDoesNotWrap) {
  JobEnv env(small_job(2, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(64);
    std::vector<std::byte> src(8);
    const std::size_t live = pe.engine().live_root_tasks();
    EXPECT_THROW(pe.iput(1 - pe.rank(), buf, src, /*dst_stride=*/1,
                         kWrapStride, /*elem=*/8, kWrapElems),
                 std::out_of_range);
    EXPECT_EQ(pe.engine().live_root_tasks(), live);  // no put spawned
    co_await pe.quiet();
    co_await pe.barrier_all();
  }));
}

TEST(Iget, StridedBoundDoesNotWrap) {
  JobEnv env(small_job(2, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr buf = pe.heap().allocate(64);
    std::vector<std::byte> dest(8);
    const std::int64_t gets = pe.stats().counter("shmem_get");
    EXPECT_THROW(co_await pe.iget(1 - pe.rank(), dest, buf, kWrapStride,
                                  /*src_stride=*/1, /*elem=*/8, kWrapElems),
                 std::out_of_range);
    EXPECT_EQ(pe.stats().counter("shmem_get"), gets);  // no get issued
    co_await pe.barrier_all();
  }));
}

TEST(Fence, OrdersPutsToSamePeer) {
  JobEnv env(small_job(2, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr data = pe.heap().allocate(8);
    SymAddr flag = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(flag, 0);
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      std::uint64_t value = 777;
      std::vector<std::byte> bytes(8);
      std::memcpy(bytes.data(), &value, 8);
      pe.put_nbi(1, data, bytes);
      co_await pe.fence();  // data must land before the flag
      co_await pe.put_value<std::uint64_t>(1, flag, 1);
    } else {
      co_await pe.wait_until(flag, WaitCmp::kEq, 1);
      EXPECT_EQ(pe.local_read<std::uint64_t>(data), 777u);
    }
  }));
}

TEST(LocalPtr, SameNodeGivesDirectAccess) {
  JobEnv env(small_job(4, 2));  // ranks 0,1 on node 0; 2,3 on node 1
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr slot = pe.heap().allocate(8);
    pe.local_write<std::uint64_t>(slot, 4000 + pe.rank());
    co_await pe.barrier_all();
    RankId buddy = pe.rank() ^ 1u;  // same node
    auto window = pe.local_ptr(buddy, slot, 8);
    EXPECT_TRUE(window.has_value());
    if (window) {
      std::uint64_t value = 0;
      std::memcpy(&value, window->data(), 8);
      EXPECT_EQ(value, 4000u + buddy);
    }
    // Direct store is immediately visible to the owner.
    if (pe.rank() == 0 && window) {
      std::uint64_t updated = 9999;
      std::memcpy(window->data(), &updated, 8);
    }
    co_await pe.barrier_all();
    if (pe.rank() == 1) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(slot), 9999u);
    }
    // Cross-node peers have no load/store path.
    RankId far = (pe.rank() + 2) % 4;
    EXPECT_FALSE(pe.local_ptr(far, slot, 8).has_value());
    EXPECT_THROW((void)pe.local_ptr(99, slot, 8), std::out_of_range);
  }));
}

}  // namespace
}  // namespace odcm::shmem
