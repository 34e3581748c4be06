// Tests for the conduit's touched-peer storage (core/peer_table.hpp): the
// deque of peer slots and the open-addressing rank → slot index behind
// `Conduit::peer` and `find_peer`. The index must find every touched rank
// across growth, keep its size tied to the touched count rather than N,
// leave untouched ranks absent, and keep the slots — and so the rank-order
// walk `peers_by_rank()` — exactly as the dense index did.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "core/conduit.hpp"
#include "core/lru.hpp"
#include "core/peer_table.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

/// A peer slot as the table and the LRU list see it.
struct FakePeer {
  RankId rank = 0;
  sim::Time last_used = 0;
  FakePeer* lru_prev = nullptr;
  FakePeer* lru_next = nullptr;
  bool in_lru = false;
};

std::vector<RankId> shuffled_ranks(std::uint32_t n, std::uint32_t seed) {
  std::vector<RankId> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0u);
  std::shuffle(ranks.begin(), ranks.end(), std::mt19937(seed));
  return ranks;
}

TEST(PeerTable, ShuffledFirstTouchOf4096Ranks) {
  PeerTable<FakePeer> table;
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(table.index_capacity(), 0u);
  const std::vector<RankId> ranks = shuffled_ranks(4096, 27);
  std::vector<FakePeer*> first;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    FakePeer& p = table.get(ranks[i]);
    ASSERT_EQ(p.rank, ranks[i]);
    ASSERT_EQ(&table.slots()[i], &p) << "slots are in first-touch order";
    first.push_back(&p);
    // The load stays at or below 3/4, and doubling keeps the index under
    // 8/3 of the touched count (exactly 2x right after each doubling).
    const std::size_t touched = i + 1;
    const std::size_t capacity = table.index_capacity();
    ASSERT_LE(4 * touched, 3 * capacity);
    ASSERT_LT(3 * capacity, 8 * touched);
    ASSERT_TRUE(std::has_single_bit(capacity));
    if (std::has_single_bit(touched)) {
      // Every earlier slot survives the doublings so far.
      for (std::size_t j = 0; j < touched; ++j) {
        ASSERT_EQ(table.find(ranks[j]), first[j]) << "rank " << ranks[j];
      }
    }
  }
  EXPECT_EQ(table.slots().size(), 4096u);
  EXPECT_LE(table.index_capacity(), 2u * 4096u);
  // A second touch returns the first slot and creates nothing.
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    ASSERT_EQ(&table.get(ranks[i]), first[i]);
  }
  EXPECT_EQ(table.slots().size(), 4096u);
  EXPECT_EQ(table.find(4096), nullptr);
}

TEST(PeerTable, UntouchedRanksHaveNoSlot) {
  PeerTable<FakePeer> table;
  const std::vector<RankId> ranks = shuffled_ranks(1024, 4);
  for (std::size_t i = 0; i < 512; ++i) table.get(ranks[i]);
  for (std::size_t i = 512; i < ranks.size(); ++i) {
    ASSERT_EQ(table.find(ranks[i]), nullptr) << "rank " << ranks[i];
  }
  EXPECT_EQ(table.slots().size(), 512u);
}

TEST(PeerTable, RmaChurnTouchCountFitsTheOldDenseRow) {
  // An rma_churn PE touches ~177 of 256 peers: the index stays within the
  // 256 entries (1 KiB) of the dense per-PE row it replaced.
  PeerTable<FakePeer> table;
  const std::vector<RankId> ranks = shuffled_ranks(256, 5);
  for (std::size_t i = 0; i < 177; ++i) table.get(ranks[i]);
  EXPECT_EQ(table.index_capacity(), 256u);
  EXPECT_LE(table.index_capacity(), 2u * 177u);
}

/// The historical victim scan: rank-ascending, strictly least `last_used`.
FakePeer* reference_victim(const std::vector<FakePeer*>& by_rank) {
  FakePeer* victim = nullptr;
  for (FakePeer* p : by_rank) {
    if (!p->in_lru) continue;
    if (victim == nullptr || p->last_used < victim->last_used) victim = p;
  }
  return victim;
}

TEST(PeerTable, ByRankUnderLruRandomChurn) {
  // The LruOrder random-churn harness (hotpath_test.cpp) driven over table
  // slots that are first touched in pseudorandom order. After every step
  // `by_rank()` — the walk behind `Conduit::peers_by_rank()` — must list
  // exactly the touched slots, rank-ascending, at the addresses `get()`
  // returned, and the LRU head must match the rank-ascending scan over it.
  constexpr std::uint32_t kRanks = 4096;
  constexpr std::uint32_t kTouchable = 24;
  std::vector<RankId> pool = shuffled_ranks(kRanks, 3);
  pool.resize(kTouchable);
  PeerTable<FakePeer> table;
  std::vector<FakePeer*> slot_of(kRanks, nullptr);
  LruList<FakePeer> lru;
  std::minstd_rand rng(12345);
  sim::Time clock = 0;
  for (int step = 0; step < 4000; ++step) {
    const RankId r = pool[rng() % kTouchable];
    FakePeer& p = table.get(r);
    if (slot_of[r] == nullptr) slot_of[r] = &p;
    ASSERT_EQ(&p, slot_of[r]) << "step " << step;
    switch (rng() % 4) {
      case 0:
        if (!p.in_lru) {
          p.last_used = clock;
          lru.insert(p);
        }
        break;
      case 1:
        lru.remove(p);
        break;
      default:
        if (p.in_lru) lru.touch(p, clock);
        break;
    }
    if (rng() % 3 == 0) ++clock;
    std::vector<FakePeer*> expect;
    for (FakePeer* q : slot_of) {
      if (q != nullptr) expect.push_back(q);
    }
    const std::vector<FakePeer*> by_rank = table.by_rank();
    ASSERT_EQ(by_rank, expect) << "step " << step;
    ASSERT_EQ(lru.front(), reference_victim(by_rank)) << "step " << step;
  }
}

TEST(PeerTable, ConduitUntouchedPeerReadsIdle) {
  // Rank 0 talks to rank 1 only: every other rank stays untouched on it
  // and reads as Idle with no role.
  constexpr std::uint32_t kRanks = 8;
  JobEnv env(small_job(kRanks, 1));
  env.run([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(4));
      EXPECT_EQ(c.peer_phase(1), PeerPhase::kConnected);
      for (RankId r = 2; r < kRanks; ++r) {
        EXPECT_EQ(c.peer_phase(r), PeerPhase::kIdle) << "rank " << r;
        EXPECT_EQ(c.peer_role(r), PeerRole::kNone) << "rank " << r;
      }
    }
  });
}

}  // namespace
}  // namespace odcm::core
