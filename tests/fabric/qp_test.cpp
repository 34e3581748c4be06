// Tests for the queue-pair state machine, HCA object management and the
// memory registration / protection table.
#include <gtest/gtest.h>

#include <stdexcept>

#include "fabric/fabric.hpp"
#include "test_util.hpp"

namespace odcm::fabric {
namespace {

using testutil::Env;

TEST(Fabric, NumbersLidsFromOne) {
  Env env;
  EXPECT_EQ(env.fabric.hca(0).lid(), 1);
  EXPECT_EQ(env.fabric.hca(1).lid(), 2);
  EXPECT_EQ(&env.fabric.hca_by_lid(1), &env.fabric.hca(0));
  EXPECT_THROW((void)env.fabric.hca_by_lid(0), std::out_of_range);
  EXPECT_THROW((void)env.fabric.hca_by_lid(99), std::out_of_range);
}

TEST(Fabric, ZeroNodesRejected) {
  sim::Engine engine;
  FabricConfig config;
  config.nodes = 0;
  EXPECT_THROW(Fabric(engine, config), std::invalid_argument);
}

TEST(QueuePair, CreateChargesVirtualTime) {
  Env env;
  QueuePair* qp = nullptr;
  env.engine.spawn([](Env& e, QueuePair*& out) -> sim::Task<> {
    out = co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
  }(env, qp));
  env.engine.run();
  ASSERT_NE(qp, nullptr);
  EXPECT_EQ(env.engine.now(), kQpCreateCost);
  EXPECT_EQ(qp->state(), QpState::kReset);
  EXPECT_EQ(env.fabric.hca(0).qps_created(), 1u);
}

TEST(QueuePair, FullStateLadder) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* a = nullptr;
    QueuePair* b = nullptr;
    co_await testutil::connect_rc_pair(e.fabric, a, b);
    EXPECT_EQ(a->state(), QpState::kRts);
    EXPECT_EQ(b->state(), QpState::kRts);
    EXPECT_EQ(a->remote().qpn, b->qpn());
    EXPECT_EQ(b->remote().lid, a->lid());
  }(env));
  env.engine.run();
}

TEST(QueuePair, SkippingStatesThrows) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* qp = co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
    EXPECT_THROW((void)qp->transition(QpState::kRtr), std::logic_error);
    EXPECT_THROW((void)qp->transition(QpState::kRts), std::logic_error);
  }(env));
  env.engine.run();
}

TEST(QueuePair, RcRequiresRemoteBeforeRtr) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* qp = co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
    co_await qp->transition(QpState::kInit);
    EXPECT_THROW((void)qp->transition(QpState::kRtr), std::logic_error);
    qp->set_remote(EndpointAddr{2, 99});
    co_await qp->transition(QpState::kRtr);
    EXPECT_EQ(qp->state(), QpState::kRtr);
  }(env));
  env.engine.run();
}

TEST(QueuePair, UdDoesNotNeedRemote) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* qp = co_await testutil::make_ud_qp(e.fabric, 0, 0);
    EXPECT_EQ(qp->state(), QpState::kRts);
    EXPECT_THROW(qp->set_remote(EndpointAddr{2, 1}), std::logic_error);
  }(env));
  env.engine.run();
}

TEST(QueuePair, RcOpsRejectedOnUdAndViceVersa) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* ud = co_await testutil::make_ud_qp(e.fabric, 0, 0);
    EXPECT_THROW((void)ud->send(testutil::bytes_of("x")), std::logic_error);
    QueuePair* a = nullptr;
    QueuePair* b = nullptr;
    co_await testutil::connect_rc_pair(e.fabric, a, b);
    EXPECT_THROW((void)a->send_ud(2, 1, testutil::bytes_of("x")),
                 std::logic_error);
    EXPECT_THROW((void)a->ud_recv(), std::logic_error);
  }(env));
  env.engine.run();
}

TEST(QueuePair, OpsRequireRts) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* qp = co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
    EXPECT_THROW((void)qp->send(testutil::bytes_of("x")), std::logic_error);
    EXPECT_THROW((void)qp->rdma_write(1, 1, testutil::bytes_of("x")),
                 std::logic_error);
  }(env));
  env.engine.run();
}

TEST(Hca, DestroyQpRemovesIt) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    QueuePair* qp = co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
    Qpn qpn = qp->qpn();
    EXPECT_EQ(e.fabric.hca(0).find_qp(qpn), qp);
    co_await e.fabric.hca(0).destroy_qp(qpn);
    EXPECT_EQ(e.fabric.hca(0).find_qp(qpn), nullptr);
    EXPECT_EQ(e.fabric.hca(0).qps_active(), 0u);
    EXPECT_EQ(e.fabric.hca(0).qps_created(), 1u);
  }(env));
  env.engine.run();
}

TEST(Hca, DenseQpTable) {
  FabricConfig config;
  config.hca_cache_qps = 2;
  config.cache_miss_penalty = 50;
  Env env(config);
  Hca& hca = env.fabric.hca(0);
  // Never-allocated QPNs, inside and beyond the table, resolve to nothing.
  EXPECT_EQ(hca.find_qp(0), nullptr);
  EXPECT_EQ(hca.find_qp(1'000'000), nullptr);
  env.engine.spawn([](Env& e, Hca& h) -> sim::Task<> {
    QueuePair* a = co_await h.create_qp(QpType::kRc, 0);
    QueuePair* b = co_await h.create_qp(QpType::kRc, 0);
    EXPECT_EQ(h.qps_active(), 2u);
    EXPECT_EQ(h.cache_penalty(), 0u);
    QueuePair* ud = co_await testutil::make_ud_qp(e.fabric, 0, 0);
    EXPECT_EQ(h.qps_active(), 3u);
    EXPECT_EQ(h.cache_penalty(), 50u);
    EXPECT_EQ(h.find_qp(a->qpn()), a);
    EXPECT_EQ(h.find_qp(b->qpn()), b);
    EXPECT_EQ(h.find_qp(ud->qpn() + 1), nullptr);  // just past the table

    // A second destroy issued while the first is in flight is harmless:
    // the QP leaves the table once and the live count drops once.
    const Qpn qpn = a->qpn();
    sim::spawn_discard(e.engine, h.destroy_qp(qpn));
    co_await h.destroy_qp(qpn);
    co_await e.engine.delay(kQpDestroyCost);
    EXPECT_EQ(h.find_qp(qpn), nullptr);
    EXPECT_EQ(h.qps_active(), 2u);
    EXPECT_EQ(h.cache_penalty(), 0u);
    EXPECT_EQ(h.qps_created(), 3u);
    EXPECT_THROW((void)h.destroy_qp(qpn), std::logic_error);

    // UD datagrams to the destroyed QPN and to a never-allocated one are
    // dropped silently, like real UD traffic to a stale QPN.
    QueuePair* src = co_await testutil::make_ud_qp(e.fabric, 1, 1);
    (void)co_await src->send_ud(h.lid(), qpn, testutil::bytes_of("x"));
    (void)co_await src->send_ud(h.lid(), 999, testutil::bytes_of("y"));
    (void)co_await src->send_ud(h.lid(), ud->qpn(), testutil::bytes_of("z"));
    co_await e.engine.delay(10 * sim::usec);
    EXPECT_EQ(ud->ud_recv().size(), 1u);
  }(env, hca));
  env.engine.run();
}

TEST(Hca, DestroyUnknownQpThrows) {
  Env env;
  env.engine.spawn([](Env& e) -> sim::Task<> {
    EXPECT_THROW((void)e.fabric.hca(0).destroy_qp(123), std::logic_error);
    co_return;
  }(env));
  env.engine.run();
}

TEST(Hca, AttachPeTwiceThrows) {
  Env env;
  EXPECT_THROW(env.fabric.hca(0).attach_pe(0), std::logic_error);
}

TEST(Hca, SrqUnknownRankThrows) {
  Env env;
  EXPECT_THROW((void)env.fabric.hca(0).srq(77), std::logic_error);
}

TEST(Hca, DenseSrqTable) {
  Env env;
  Hca& hca = env.fabric.hca(1);  // rank 1 attached: the table's base
  hca.attach_pe(2);
  hca.attach_pe(5);  // leaves a hole at 3..4
  EXPECT_NE(&hca.srq(1), &hca.srq(2));
  EXPECT_NE(&hca.srq(2), &hca.srq(5));
  for (RankId unattached : {0U, 3U, 4U, 6U}) {
    EXPECT_THROW((void)hca.srq(unattached), std::logic_error);
  }
  EXPECT_THROW(hca.attach_pe(5), std::logic_error);
  EXPECT_THROW(hca.attach_pe(0), std::logic_error);  // below the base
  EXPECT_THROW((void)env.fabric.hca(0).srq(1), std::logic_error);
}

TEST(Memory, RegistrationReturnsTriplet) {
  Env env;
  AddressSpace space(0, make_va_base(0), 1 << 20);
  env.engine.spawn([](Env& e, AddressSpace& s) -> sim::Task<> {
    MemoryRegion mr =
        co_await e.fabric.hca(0).register_memory(s, s.base(), s.size());
    EXPECT_EQ(mr.addr, s.base());
    EXPECT_EQ(mr.size, s.size());
    EXPECT_NE(mr.rkey, 0u);
    EXPECT_EQ(e.fabric.hca(0).regions_active(), 1u);
  }(env, space));
  env.engine.run();
}

TEST(Memory, RegistrationCostScalesWithPages) {
  Env env;
  AddressSpace small(0, make_va_base(0), kPageSize);
  AddressSpace large(0, make_va_base(0, 1), 64 * kPageSize);
  sim::Time t_small = 0;
  sim::Time t_large = 0;
  env.engine.spawn([](Env& e, AddressSpace& s, AddressSpace& l,
                      sim::Time& ts, sim::Time& tl) -> sim::Task<> {
    sim::Time t0 = e.engine.now();
    (void)co_await e.fabric.hca(0).register_memory(s, s.base(), s.size());
    ts = e.engine.now() - t0;
    t0 = e.engine.now();
    (void)co_await e.fabric.hca(0).register_memory(l, l.base(), l.size());
    tl = e.engine.now() - t0;
  }(env, small, large, t_small, t_large));
  env.engine.run();
  EXPECT_EQ(t_small, kMemRegBaseCost + kMemRegPerPageCost);
  EXPECT_EQ(t_large, kMemRegBaseCost + 64 * kMemRegPerPageCost);
}

TEST(Memory, OutOfRangeRegistrationThrows) {
  Env env;
  AddressSpace space(0, make_va_base(0), 4096);
  env.engine.spawn([](Env& e, AddressSpace& s) -> sim::Task<> {
    EXPECT_THROW(
        (void)e.fabric.hca(0).register_memory(s, s.base() + 1, s.size()),
        std::out_of_range);
    co_return;
  }(env, space));
  env.engine.run();
}

TEST(Memory, ResolveChecksKeyAndRange) {
  Env env;
  AddressSpace space(0, make_va_base(0), 4096);
  env.engine.spawn([](Env& e, AddressSpace& s) -> sim::Task<> {
    MemoryRegion mr =
        co_await e.fabric.hca(0).register_memory(s, s.base(), s.size());
    Hca& hca = e.fabric.hca(0);
    EXPECT_TRUE(hca.resolve(mr.addr, mr.rkey, 64).has_value());
    EXPECT_FALSE(hca.resolve(mr.addr, mr.rkey + 1, 64).has_value());
    EXPECT_FALSE(hca.resolve(mr.addr + 4090, mr.rkey, 64).has_value());
    // raddr + len wraps past 2^64 back below the region's end.
    const VirtAddr wrapping = ~VirtAddr{0} - 7;
    EXPECT_FALSE(hca.resolve(wrapping, mr.rkey, 64).has_value());
    EXPECT_FALSE(hca.resolve(wrapping, mr.rkey, 8).has_value());
    // The shm export registry applies the same rule.
    ShmDomain& shm = e.fabric.shm_domain(0);
    co_await shm.export_segment(0, s, s.base(), s.size());
    EXPECT_TRUE(shm.resolve(0, s.base(), 64).has_value());
    EXPECT_FALSE(shm.resolve(0, s.base() + 4090, 64).has_value());
    EXPECT_FALSE(shm.resolve(0, wrapping, 64).has_value());
    EXPECT_FALSE(shm.resolve(0, wrapping, 8).has_value());
    hca.deregister_memory(mr.rkey);
    EXPECT_FALSE(hca.resolve(mr.addr, mr.rkey, 64).has_value());
    EXPECT_THROW(hca.deregister_memory(mr.rkey), std::logic_error);
  }(env, space));
  env.engine.run();
}

TEST(AddressSpace, WindowBoundsChecked) {
  AddressSpace space(3, make_va_base(3), 128);
  EXPECT_EQ(space.owner(), 3u);
  EXPECT_NO_THROW((void)space.window(space.base(), 128));
  EXPECT_THROW((void)space.window(space.base(), 129), std::out_of_range);
  EXPECT_THROW((void)space.window(space.base() - 1, 4), std::out_of_range);
  EXPECT_THROW(AddressSpace(0, 0, 16), std::invalid_argument);
}

TEST(AddressSpace, VaBasesAreDisjoint) {
  EXPECT_NE(make_va_base(0), make_va_base(1));
  EXPECT_NE(make_va_base(0, 0), make_va_base(0, 1));
  AddressSpace a(0, make_va_base(0), 1 << 20);
  AddressSpace b(1, make_va_base(1), 1 << 20);
  EXPECT_FALSE(a.contains(b.base(), 1));
}

}  // namespace
}  // namespace odcm::fabric
