// Tests for the variable-size collect and alltoall collectives, including
// parameterized sweeps over job geometry (TEST_P).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

TEST(Collect, VariableLengthsConcatenateInRankOrder) {
  constexpr std::uint32_t kRanks = 5;
  JobEnv env(small_job(kRanks, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    // Rank r contributes r+1 8-byte values, each tagged with its origin.
    std::uint32_t my_count = pe.rank() + 1;
    SymAddr src = pe.heap().allocate(8 * kRanks);
    SymAddr dest = pe.heap().allocate(8 * kRanks * (kRanks + 1) / 2);
    for (std::uint32_t e = 0; e < my_count; ++e) {
      pe.local_write<std::uint64_t>(src + 8 * e, pe.rank() * 100 + e);
    }
    co_await pe.collect(dest, src, 8 * my_count);
    std::uint64_t offset = 0;
    for (RankId r = 0; r < kRanks; ++r) {
      for (std::uint32_t e = 0; e < r + 1; ++e) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8 * (offset + e)),
                  r * 100ULL + e)
            << "rank " << pe.rank() << " block " << r << " elem " << e;
      }
      offset += r + 1;
    }
  }));
}

TEST(Collect, ZeroLengthContributionsAllowed) {
  JobEnv env(small_job(4, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    // Odd ranks contribute nothing.
    bool contribute = pe.rank() % 2 == 0;
    SymAddr src = pe.heap().allocate(8);
    SymAddr dest = pe.heap().allocate(8 * 4);
    pe.local_write<std::uint64_t>(src, 7000 + pe.rank());
    co_await pe.collect(dest, src, contribute ? 8 : 0);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 7000u);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8), 7002u);
  }));
}

TEST(Collect, BackToBackCallsWithUnequalAndEmptyBlocks) {
  // Both ring passes of each call forward received buffers; consecutive
  // calls with different block sizes must not see each other's chunks.
  constexpr std::uint32_t kRanks = 5;
  JobEnv env(small_job(kRanks, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8 * kRanks);
    SymAddr dest = pe.heap().allocate(8 * kRanks * kRanks);
    for (std::uint32_t call = 0; call < 4; ++call) {
      // Words per rank: (rank + call) % 3, so some blocks are empty.
      auto words = [call](RankId r) { return (r + call) % 3; };
      for (std::uint32_t w = 0; w < words(pe.rank()); ++w) {
        pe.local_write<std::uint64_t>(src + 8 * w,
                                      1000 * call + 100 * pe.rank() + w);
      }
      co_await pe.collect(dest, src, 8 * words(pe.rank()));
      std::uint64_t offset = 0;
      for (RankId r = 0; r < kRanks; ++r) {
        for (std::uint32_t w = 0; w < words(r); ++w) {
          EXPECT_EQ(pe.local_read<std::uint64_t>(dest + offset),
                    1000u * call + 100 * r + w)
              << "call " << call << " rank " << r << " word " << w;
          offset += 8;
        }
      }
    }
  }));
}

TEST(Collect, SinglePe) {
  JobEnv env(small_job(1, 1));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(16);
    SymAddr dest = pe.heap().allocate(16);
    pe.local_write<std::uint64_t>(src, 11);
    pe.local_write<std::uint64_t>(src + 8, 22);
    co_await pe.collect(dest, src, 16);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest), 11u);
    EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8), 22u);
  }));
}

TEST(Alltoall, TransposesBlocks) {
  constexpr std::uint32_t kRanks = 6;
  JobEnv env(small_job(kRanks, 3));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8 * kRanks);
    SymAddr dest = pe.heap().allocate(8 * kRanks);
    // Block j on rank i carries i*1000 + j.
    for (std::uint32_t j = 0; j < kRanks; ++j) {
      pe.local_write<std::uint64_t>(src + 8 * j, pe.rank() * 1000 + j);
    }
    co_await pe.alltoall(dest, src, 8);
    // After the exchange, slot i holds i*1000 + my_rank.
    for (std::uint32_t i = 0; i < kRanks; ++i) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8 * i),
                i * 1000ULL + pe.rank());
    }
  }));
}

TEST(Alltoall, RepeatedRoundsStayCoherent) {
  constexpr std::uint32_t kRanks = 4;
  JobEnv env(small_job(kRanks, 2));
  env.run(with_init([](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(8 * kRanks);
    SymAddr dest = pe.heap().allocate(8 * kRanks);
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (std::uint32_t j = 0; j < kRanks; ++j) {
        pe.local_write<std::uint64_t>(src + 8 * j,
                                      round * 10000 + pe.rank() * 100 + j);
      }
      co_await pe.alltoall(dest, src, 8);
      for (std::uint32_t i = 0; i < kRanks; ++i) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(dest + 8 * i),
                  round * 10000 + i * 100ULL + pe.rank());
      }
    }
  }));
}

// ---- parameterized geometry sweep: all collectives at many shapes ----

using Geometry = std::tuple<std::uint32_t /*ranks*/, std::uint32_t /*ppn*/,
                            std::uint32_t /*elems*/>;

class CollectiveSweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CollectiveSweep, AllCollectivesAgreeWithReference) {
  auto [ranks, ppn, elems] = GetParam();
  JobEnv env(small_job(ranks, ppn));
  env.run(with_init([ranks = ranks, elems = elems](ShmemPe& pe)
                        -> sim::Task<> {
    const std::uint32_t bytes = 8 * elems;
    SymAddr src = pe.heap().allocate(static_cast<std::uint64_t>(bytes) * ranks);
    SymAddr fc_dest =
        pe.heap().allocate(static_cast<std::uint64_t>(bytes) * ranks);
    SymAddr a2a_dest =
        pe.heap().allocate(static_cast<std::uint64_t>(bytes) * ranks);
    SymAddr red_dest = pe.heap().allocate(bytes);
    SymAddr bc_buf = pe.heap().allocate(bytes);

    // fcollect: contribute elems values f(rank, e).
    for (std::uint32_t e = 0; e < elems; ++e) {
      pe.local_write<std::uint64_t>(src + 8 * e, pe.rank() * 7919ULL + e);
    }
    co_await pe.fcollect(fc_dest, src, bytes);
    for (RankId r = 0; r < ranks; ++r) {
      for (std::uint32_t e = 0; e < elems; ++e) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(
                      fc_dest + static_cast<std::uint64_t>(bytes) * r + 8 * e),
                  r * 7919ULL + e);
      }
    }

    // reduce: sum of (rank + e) over ranks.
    for (std::uint32_t e = 0; e < elems; ++e) {
      pe.local_write<std::int64_t>(src + 8 * e, pe.rank() + e);
    }
    co_await pe.reduce<std::int64_t>(red_dest, src, elems,
                                     ReduceOp::kSum);
    std::int64_t rank_sum =
        static_cast<std::int64_t>(ranks) * (ranks - 1) / 2;
    for (std::uint32_t e = 0; e < elems; ++e) {
      EXPECT_EQ(pe.local_read<std::int64_t>(red_dest + 8 * e),
                rank_sum + static_cast<std::int64_t>(e) * ranks);
    }

    // broadcast from the last rank.
    RankId root = ranks - 1;
    if (pe.rank() == root) {
      for (std::uint32_t e = 0; e < elems; ++e) {
        pe.local_write<std::uint64_t>(bc_buf + 8 * e, 31337 + e);
      }
    }
    co_await pe.broadcast(root, bc_buf, bytes);
    for (std::uint32_t e = 0; e < elems; ++e) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(bc_buf + 8 * e), 31337ULL + e);
    }

    // alltoall with one element per block.
    for (std::uint32_t j = 0; j < ranks; ++j) {
      pe.local_write<std::uint64_t>(src + 8ULL * j,
                                    pe.rank() * 4441ULL + j);
    }
    co_await pe.alltoall(a2a_dest, src, 8);
    for (std::uint32_t i = 0; i < ranks; ++i) {
      EXPECT_EQ(pe.local_read<std::uint64_t>(a2a_dest + 8ULL * i),
                i * 4441ULL + pe.rank());
    }
  }));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CollectiveSweep,
    ::testing::Values(Geometry{2, 1, 1}, Geometry{3, 3, 4}, Geometry{4, 2, 8},
                      Geometry{7, 4, 2}, Geometry{8, 8, 16},
                      Geometry{12, 4, 3}, Geometry{16, 4, 1},
                      Geometry{9, 2, 5}, Geometry{5, 1, 7},
                      Geometry{24, 8, 2}));

}  // namespace
}  // namespace odcm::shmem
