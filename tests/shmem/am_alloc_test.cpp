// Heap allocations per active message on the connected collectives path.
// Every global `operator new` of this binary is counted. Two jobs that
// differ only in K extra warm ring fcollects isolate the cost of those
// steps; each step is one AM. A payload copy or per-message record that
// returns to the path shows up here as a deterministic count, not only as
// noise in a host-time benchmark.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "shmem/job.hpp"
#include "test_util.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;
using testutil::with_init;

constexpr std::uint32_t kRanks = 8;
constexpr std::uint32_t kBlock = 512;

struct Cost {
  std::uint64_t allocations = 0;
  std::int64_t ams = 0;
};

/// Allocations and AMs of a whole job that runs `rounds` fcollects.
Cost run_fcollects(int rounds) {
  const std::uint64_t before = g_allocations;
  JobEnv env(small_job(kRanks, kRanks / 2));
  env.run(with_init([rounds](ShmemPe& pe) -> sim::Task<> {
    SymAddr src = pe.heap().allocate(kBlock);
    SymAddr dest = pe.heap().allocate(kBlock * kRanks);
    for (int i = 0; i < rounds; ++i) {
      pe.local_write<std::uint64_t>(src, 1000 * i + pe.rank());
      co_await pe.fcollect(dest, src, kBlock);
      for (RankId r = 0; r < kRanks; ++r) {
        EXPECT_EQ(pe.local_read<std::uint64_t>(dest + r * kBlock),
                  1000u * i + r);
      }
    }
  }));
  Cost cost{g_allocations - before, 0};
  for (RankId r = 0; r < kRanks; ++r) {
    cost.ams += env.job.pe(r).stats().counter("am_sent");
  }
  return cost;
}

TEST(HotPath, SteadyStateAmAllocations) {
  constexpr int kWarm = 4;
  constexpr int kMeasured = 16;
  const Cost warm = run_fcollects(kWarm);
  const Cost full = run_fcollects(kWarm + kMeasured);
  const std::int64_t ams = full.ams - warm.ams;
  ASSERT_EQ(ams, std::int64_t{kMeasured} * kRanks * (kRanks - 1));
  const std::uint64_t allocations = full.allocations - warm.allocations;
  std::printf("allocations per AM: %.3f (%llu over %lld AMs)\n",
              static_cast<double>(allocations) / static_cast<double>(ams),
              static_cast<unsigned long long>(allocations),
              static_cast<long long>(ams));
  // The documented cost (DESIGN.md §5.19). Each AM takes three coroutine
  // frames: am_send, the QP's post and the handler task. Each PE's call
  // takes four records: the fcollect and ring_allgather frames, the slot
  // callable and the first message. The receive queue's deque adds a block
  // per dozen messages. No per-AM payload copy, match record or event
  // record is left, so one coming back fails this bound.
  constexpr std::uint64_t kFramesPerAm = 3;
  constexpr std::uint64_t kRecordsPerCall = 4;
  const std::uint64_t budget = kFramesPerAm * static_cast<std::uint64_t>(ams) +
                               kRecordsPerCall * kMeasured * kRanks +
                               static_cast<std::uint64_t>(ams) / 8;
  EXPECT_LE(allocations, budget);
}

}  // namespace
}  // namespace odcm::shmem
