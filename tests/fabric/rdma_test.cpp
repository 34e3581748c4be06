// Tests for data movement: RC send, RDMA read/write, atomics, and the
// protection behaviour on bad keys.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "fabric/fabric.hpp"
#include "test_util.hpp"

namespace odcm::fabric {
namespace {

using testutil::Env;

struct RdmaEnv : Env {
  RdmaEnv() : space(1, make_va_base(1), 1 << 16) {
    engine.spawn([](RdmaEnv& e) -> sim::Task<> {
      co_await testutil::connect_rc_pair(e.fabric, e.qp_a, e.qp_b);
      e.mr = co_await e.fabric.hca(1).register_memory(e.space, e.space.base(),
                                                      e.space.size());
    }(*this));
    engine.run();
  }

  AddressSpace space;  // rank 1's memory on node 1
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;
  MemoryRegion mr{};
};

TEST(RcSend, DeliversToSharedReceiveQueue) {
  RdmaEnv env;
  bool checked = false;
  env.engine.spawn([](RdmaEnv& e, bool& done) -> sim::Task<> {
    Completion wc = co_await e.qp_a->send(testutil::bytes_of("hello ib"));
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(wc.byte_len, 8u);
    RcMessage msg = co_await e.fabric.hca(1).srq(1).pop();
    EXPECT_EQ(msg.src_qpn, e.qp_a->qpn());
    EXPECT_EQ(msg.src_lid, e.qp_a->lid());
    EXPECT_EQ(msg.dst_qpn, e.qp_b->qpn());
    EXPECT_EQ(msg.payload, testutil::bytes_of("hello ib"));
    done = true;
  }(env, checked));
  env.engine.run();
  EXPECT_TRUE(checked);
}

TEST(RcSend, PreservesOrderPerQp) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    // Post a large message then a small one; in-order RC delivery means the
    // small one must not overtake the large one even though its wire time
    // is far shorter.
    std::vector<std::byte> large(32 * 1024, std::byte{1});
    std::vector<std::byte> small(8, std::byte{2});
    sim::spawn_discard(e.engine, e.qp_a->send(std::move(large)));
    sim::spawn_discard(e.engine, e.qp_a->send(std::move(small)));
    RcMessage first = co_await e.fabric.hca(1).srq(1).pop();
    RcMessage second = co_await e.fabric.hca(1).srq(1).pop();
    EXPECT_EQ(first.payload.size(), 32u * 1024);
    EXPECT_EQ(second.payload.size(), 8u);
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, WritesRemoteMemory) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    auto data = testutil::bytes_of("rdma payload");
    Completion wc =
        co_await e.qp_a->rdma_write(e.mr.addr + 100, e.mr.rkey, data);
    EXPECT_TRUE(wc.ok());
    auto window = e.space.window(e.space.base() + 100, data.size());
    EXPECT_TRUE(std::equal(data.begin(), data.end(), window.begin()));
  }(env));
  env.engine.run();
}

TEST(RdmaWrite, BadRkeyGivesErrorCompletionAndErrorState) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    Completion wc = co_await e.qp_a->rdma_write(e.mr.addr, e.mr.rkey + 7,
                                                testutil::bytes_of("x"));
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    EXPECT_EQ(e.qp_a->state(), QpState::kError);
  }(env));
  env.engine.run();
}

/// An address whose end wraps past 2^64: `raddr + len` is small again.
constexpr VirtAddr kWrappingAddr = ~VirtAddr{0} - 7;

TEST(RdmaWrite, OutOfRangeAddressRejected) {
  for (bool wrapping : {false, true}) {
    RdmaEnv env;
    env.engine.spawn([](RdmaEnv& e, bool wrapping) -> sim::Task<> {
      std::vector<std::byte> data(64, std::byte{9});
      Completion wc = co_await e.qp_a->rdma_write(
          wrapping ? kWrappingAddr : e.mr.addr + e.mr.size - 8, e.mr.rkey,
          std::move(data));
      EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
      // Target memory must be untouched.
      for (std::byte b : e.space.bytes()) EXPECT_EQ(b, std::byte{0});
    }(env, wrapping));
    env.engine.run();
  }
  // A read and an atomic at the wrapping address fail the same way.
  RdmaEnv read_env;
  read_env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<std::byte> dest(64, std::byte{0x5a});
    Completion wc = co_await e.qp_a->rdma_read(kWrappingAddr, e.mr.rkey, dest);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    for (std::byte b : dest) EXPECT_EQ(b, std::byte{0x5a});
  }(read_env));
  read_env.engine.run();
  RdmaEnv atomic_env;
  atomic_env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    Completion wc = co_await e.qp_a->fetch_add(kWrappingAddr, e.mr.rkey, 1);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    EXPECT_EQ(wc.atomic_old, 0u);
  }(atomic_env));
  atomic_env.engine.run();
}

TEST(RdmaRead, ReadsRemoteMemory) {
  RdmaEnv env;
  // Seed target memory directly.
  auto seed = testutil::bytes_of("remote contents");
  auto window = env.space.window(env.space.base() + 64, seed.size());
  std::copy(seed.begin(), seed.end(), window.begin());

  env.engine.spawn([](RdmaEnv& e, std::vector<std::byte>& expect)
                       -> sim::Task<> {
    std::vector<std::byte> dest(expect.size());
    Completion wc =
        co_await e.qp_a->rdma_read(e.mr.addr + 64, e.mr.rkey, dest);
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(dest, expect);
  }(env, seed));
  env.engine.run();
}

TEST(RdmaRead, BadKeyLeavesDestinationUntouched) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<std::byte> dest(16, std::byte{0x5a});
    Completion wc = co_await e.qp_a->rdma_read(e.mr.addr, 999, dest);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
    for (std::byte b : dest) EXPECT_EQ(b, std::byte{0x5a});
  }(env));
  env.engine.run();
}

TEST(Atomics, FetchAddReturnsOldAndAdds) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::uint64_t init = 40;
    std::memcpy(e.space.window(e.space.base(), 8).data(), &init, 8);
    Completion wc = co_await e.qp_a->fetch_add(e.mr.addr, e.mr.rkey, 2);
    EXPECT_TRUE(wc.ok());
    EXPECT_EQ(wc.atomic_old, 40u);
    std::uint64_t now = 0;
    std::memcpy(&now, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(now, 42u);
  }(env));
  env.engine.run();
}

TEST(Atomics, ConcurrentFetchAddsAreSerialized) {
  RdmaEnv env;
  // 16 concurrent fetch-adds of 1 from the same QP owner; each must see a
  // distinct old value and the final sum must be exact.
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::vector<sim::Task<Completion>> ops;
    ops.reserve(16);
    for (int i = 0; i < 16; ++i) {
      ops.push_back(e.qp_a->fetch_add(e.mr.addr, e.mr.rkey, 1));
    }
    std::vector<std::uint64_t> olds;
    for (auto& op : ops) {
      Completion wc = co_await std::move(op);
      EXPECT_TRUE(wc.ok());
      olds.push_back(wc.atomic_old);
    }
    std::sort(olds.begin(), olds.end());
    for (std::uint64_t i = 0; i < olds.size(); ++i) EXPECT_EQ(olds[i], i);
    std::uint64_t final_value = 0;
    std::memcpy(&final_value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(final_value, 16u);
  }(env));
  env.engine.run();
}

TEST(Atomics, CompareSwapOnlySwapsOnMatch) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    std::uint64_t init = 7;
    std::memcpy(e.space.window(e.space.base(), 8).data(), &init, 8);
    // Mismatch: no swap.
    Completion miss = co_await e.qp_a->compare_swap(e.mr.addr, e.mr.rkey,
                                                    /*expect=*/1,
                                                    /*desired=*/100);
    EXPECT_EQ(miss.atomic_old, 7u);
    std::uint64_t value = 0;
    std::memcpy(&value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(value, 7u);
    // Match: swap.
    Completion hit = co_await e.qp_a->compare_swap(e.mr.addr, e.mr.rkey,
                                                   /*expect=*/7,
                                                   /*desired=*/100);
    EXPECT_EQ(hit.atomic_old, 7u);
    std::memcpy(&value, e.space.window(e.space.base(), 8).data(), 8);
    EXPECT_EQ(value, 100u);
  }(env));
  env.engine.run();
}

TEST(Atomics, BadKeyYieldsError) {
  RdmaEnv env;
  env.engine.spawn([](RdmaEnv& e) -> sim::Task<> {
    Completion wc = co_await e.qp_a->fetch_add(e.mr.addr, 12345, 1);
    EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
  }(env));
  env.engine.run();
}

/// What `RcOpTimingUnchanged` observes of one run.
struct RcOpOutcome {
  std::vector<sim::Time> completed_at;  ///< per op, in posting order
  std::uint64_t fetch_add_old = 0;
  std::uint64_t swap_old = 0;
  std::uint64_t compare_swap_old = 0;
  std::uint64_t word0 = 0;  ///< target of the colliding fetch-add and swap
  std::uint64_t word8 = 0;  ///< target of the compare-swap
  std::vector<std::byte> read_back;  ///< what the read returned
  sim::Time received_at = 0;         ///< the send, popped from the SRQ
  std::uint64_t events = 0;
};

/// One of each RC op toward node 1, from node 0 (qp_a) and node 2 (qp_c).
/// The fetch-add from node 0 and the swap from node 2 hit the same word at
/// the same instant, and so do their completions.
RcOpOutcome run_rc_ops(const sim::SchedulePolicy& policy) {
  Env env(FabricConfig{.nodes = 3});
  env.fabric.hca(2).attach_pe(2);
  AddressSpace space(1, make_va_base(1), 4096);
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;
  QueuePair* qp_c = nullptr;
  QueuePair* qp_d = nullptr;
  MemoryRegion mr{};
  env.engine.spawn([](Env& e, AddressSpace& space, QueuePair*& a,
                      QueuePair*& b, QueuePair*& c, QueuePair*& d,
                      MemoryRegion& mr) -> sim::Task<> {
    co_await testutil::connect_rc_pair(e.fabric, a, b);
    c = co_await e.fabric.hca(2).create_qp(QpType::kRc, 2);
    d = co_await e.fabric.hca(1).create_qp(QpType::kRc, 1);
    co_await c->transition(QpState::kInit);
    co_await d->transition(QpState::kInit);
    c->set_remote(d->addr());
    d->set_remote(c->addr());
    co_await c->to_rts();
    co_await d->to_rts();
    mr = co_await e.fabric.hca(1).register_memory(space, space.base(),
                                                  space.size());
  }(env, space, qp_a, qp_b, qp_c, qp_d, mr));
  env.engine.run();

  const std::uint64_t forty = 40;
  const std::uint64_t seven = 7;
  std::memcpy(space.window(space.base(), 8).data(), &forty, 8);
  std::memcpy(space.window(space.base() + 8, 8).data(), &seven, 8);
  env.engine.set_schedule_policy(policy);

  RcOpOutcome out;
  out.completed_at.resize(6);
  out.read_back.assign(16, std::byte{0x5a});
  std::vector<Completion> wcs(6);
  auto at = [&env, &out, &wcs](std::size_t i, sim::Time start,
                               sim::Task<Completion> op) {
    env.engine.spawn([](sim::Engine& engine, sim::Time start,
                        sim::Task<Completion> op, Completion& wc,
                        sim::Time& done) -> sim::Task<> {
      co_await engine.delay(start);
      wc = co_await std::move(op);
      done = engine.now();
    }(env.engine, start, std::move(op), wcs[i], out.completed_at[i]));
  };
  at(0, 0, qp_a->fetch_add(mr.addr, mr.rkey, 5));
  at(1, 0, qp_c->swap(mr.addr, mr.rkey, 1000));
  at(2, 1, qp_a->rdma_write(mr.addr + 64, mr.rkey,
                            std::vector<std::byte>(16, std::byte{0xab})));
  at(3, 2, qp_a->rdma_read(mr.addr + 64, mr.rkey, out.read_back));
  at(4, 3, qp_a->compare_swap(mr.addr + 8, mr.rkey, 7, 99));
  at(5, 4, qp_a->send(testutil::bytes_of("rc-order")));
  env.engine.spawn([](Env& e, sim::Time& received_at) -> sim::Task<> {
    RcMessage msg = co_await e.fabric.hca(1).srq(1).pop();
    EXPECT_EQ(msg.payload, testutil::bytes_of("rc-order"));
    received_at = e.engine.now();
  }(env, out.received_at));
  env.engine.run();

  for (const Completion& wc : wcs) EXPECT_TRUE(wc.ok());
  out.fetch_add_old = wcs[0].atomic_old;
  out.swap_old = wcs[1].atomic_old;
  out.compare_swap_old = wcs[4].atomic_old;
  std::memcpy(&out.word0, space.window(space.base(), 8).data(), 8);
  std::memcpy(&out.word8, space.window(space.base() + 8, 8).data(), 8);
  for (std::byte b : space.window(space.base() + 64, 16)) {
    EXPECT_EQ(b, std::byte{0xab});
  }
  out.events = env.engine.events_executed();
  return out;
}

// Pins the virtual-time behaviour of every RC op (completion times, atomic
// results, landed bytes and the event count) under insertion order and a
// seeded shuffle. The literals are the fabric's timing model: a refactor
// of the RC path must leave every one of them, and the event count, as is.
TEST(Fabric, RcOpTimingUnchanged) {
  const sim::SchedulePolicy insertion{};
  const sim::SchedulePolicy shuffle{
      .tie_break = sim::SchedulePolicy::TieBreak::kSeededShuffle, .seed = 7};
  for (const sim::SchedulePolicy& policy : {insertion, shuffle}) {
    SCOPED_TRACE(policy.perturbs() ? "shuffle seed 7" : "insertion order");
    RcOpOutcome out = run_rc_ops(policy);
    EXPECT_EQ(out.completed_at,
              (std::vector<sim::Time>{1034604, 1034604, 1033755, 1034705,
                                      1034754, 1033902}));
    // The fetch-add lands first, then the swap, at the same instant.
    EXPECT_EQ(out.fetch_add_old, 40u);
    EXPECT_EQ(out.swap_old, 45u);
    EXPECT_EQ(out.word0, 1000u);
    EXPECT_EQ(out.compare_swap_old, 7u);
    EXPECT_EQ(out.word8, 99u);
    EXPECT_EQ(out.read_back, std::vector<std::byte>(16, std::byte{0xab}));
    EXPECT_EQ(out.received_at, 1033402u);
    EXPECT_EQ(out.events, 50u);
  }
}

}  // namespace
}  // namespace odcm::fabric
