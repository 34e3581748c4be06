// Tests for the UD transport (loss/duplication injection) and the fabric
// latency / serialization model.
#include <gtest/gtest.h>

#include <vector>

#include "fabric/fabric.hpp"
#include "test_util.hpp"

namespace odcm::fabric {
namespace {

using testutil::Env;

struct UdEnv : Env {
  explicit UdEnv(FabricConfig config = {}) : Env(config) {
    engine.spawn([](UdEnv& e) -> sim::Task<> {
      e.ud_a = co_await testutil::make_ud_qp(e.fabric, 0, 0);
      e.ud_b = co_await testutil::make_ud_qp(e.fabric, 1, 1);
    }(*this));
    engine.run();
  }

  QueuePair* ud_a = nullptr;
  QueuePair* ud_b = nullptr;
};

TEST(Ud, DatagramDeliveredWithSourceAddress) {
  UdEnv env;
  env.engine.spawn([](UdEnv& e) -> sim::Task<> {
    Completion wc = co_await e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(),
                                             testutil::bytes_of("dgram"));
    EXPECT_TRUE(wc.ok());
    UdDatagram gram = co_await e.ud_b->ud_recv().pop();
    EXPECT_EQ(gram.src_lid, e.ud_a->lid());
    EXPECT_EQ(gram.src_qpn, e.ud_a->qpn());
    EXPECT_TRUE(gram.payload != nullptr);
    if (gram.payload != nullptr) {
      EXPECT_EQ(*gram.payload, testutil::bytes_of("dgram"));
    }
  }(env));
  env.engine.run();
}

TEST(Ud, MtuEnforced) {
  UdEnv env;
  env.engine.spawn([](UdEnv& e) -> sim::Task<> {
    std::vector<std::byte> big(kMtu + 1);
    EXPECT_THROW((void)e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(), big),
                 std::logic_error);
    co_return;
  }(env));
  env.engine.run();
}

TEST(Ud, FullDropRateLosesEverything) {
  FabricConfig config;
  config.ud_drop_rate = 1.0;
  UdEnv env(config);
  env.engine.spawn([](UdEnv& e) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      Completion wc = co_await e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(),
                                               testutil::bytes_of("lost"));
      // Sender still sees a successful (local) completion: UD is fire and
      // forget.
      EXPECT_TRUE(wc.ok());
    }
    EXPECT_TRUE(e.ud_b->ud_recv().empty());
  }(env));
  env.engine.run();
  EXPECT_TRUE(env.ud_b->ud_recv().empty());
}

TEST(Ud, PartialDropRateLosesSome) {
  FabricConfig config;
  config.ud_drop_rate = 0.5;
  config.seed = 42;
  UdEnv env(config);
  int sent = 200;
  env.engine.spawn([](UdEnv& e, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      (void)co_await e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(),
                                     testutil::bytes_of("x"));
    }
  }(env, sent));
  env.engine.run();
  std::size_t received = env.ud_b->ud_recv().size();
  EXPECT_GT(received, 50u);
  EXPECT_LT(received, 150u);
}

TEST(Ud, DuplicationDeliversTwice) {
  FabricConfig config;
  config.ud_duplicate_rate = 1.0;
  UdEnv env(config);
  env.engine.spawn([](UdEnv& e) -> sim::Task<> {
    (void)co_await e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(),
                                   testutil::bytes_of("dup"));
  }(env));
  env.engine.run();
  EXPECT_EQ(env.ud_b->ud_recv().size(), 2u);
}

TEST(Ud, DatagramToMissingQpSilentlyDropped) {
  UdEnv env;
  env.engine.spawn([](UdEnv& e) -> sim::Task<> {
    Completion wc = co_await e.ud_a->send_ud(e.ud_b->lid(), 9999,
                                             testutil::bytes_of("stale"));
    EXPECT_TRUE(wc.ok());
  }(env));
  env.engine.run();
  EXPECT_TRUE(env.ud_b->ud_recv().empty());
}

TEST(Latency, LoopbackIsCheaperThanWire) {
  Env env;
  sim::Time local = env.fabric.transfer_latency(1, 1, 1024);
  sim::Time remote = env.fabric.transfer_latency(1, 2, 1024);
  EXPECT_LT(local, remote);
}

TEST(Latency, BandwidthTermGrowsWithSize) {
  Env env;
  sim::Time small = env.fabric.transfer_latency(1, 2, 8);
  sim::Time large = env.fabric.transfer_latency(1, 2, 1 << 20);
  EXPECT_GT(large, small);
  // 1 MiB at ~3.2 B/ns is ~330 us; the fixed overheads are ~1 us.
  EXPECT_GT(large, 300 * sim::usec);
  EXPECT_LT(small, 3 * sim::usec);
}

TEST(Latency, InjectionSlotsSerialize) {
  Env env;
  Hca& hca = env.fabric.hca(0);
  sim::Time first = hca.reserve_injection_slot();
  sim::Time second = hca.reserve_injection_slot();
  EXPECT_EQ(second, first + kMinPacketGap);
}

TEST(Latency, CachePenaltyKicksInAboveCacheSize) {
  FabricConfig config;
  config.hca_cache_qps = 2;
  config.cache_miss_penalty = 400 * sim::nsec;  // off by default
  Env env(config);
  env.engine.spawn([](Env& e) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      (void)co_await e.fabric.hca(0).create_qp(QpType::kRc, 0);
    }
  }(env));
  env.engine.run();
  EXPECT_EQ(env.fabric.hca(0).cache_penalty(),
            env.fabric.config().cache_miss_penalty);
  EXPECT_EQ(env.fabric.hca(1).cache_penalty(), 0u);
}

TEST(Determinism, SameSeedSameSchedule) {
  auto run_once = [] {
    FabricConfig config;
    config.ud_drop_rate = 0.3;
    config.ud_jitter_max = 500;
    config.seed = 7;
    UdEnv env(config);
    env.engine.spawn([](UdEnv& e) -> sim::Task<> {
      for (int i = 0; i < 50; ++i) {
        (void)co_await e.ud_a->send_ud(e.ud_b->lid(), e.ud_b->qpn(),
                                       testutil::bytes_of("d"));
      }
    }(env));
    env.engine.run();
    return std::pair(env.engine.now(), env.ud_b->ud_recv().size());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::fabric
