// Tests for conduit lifecycle, active messages, RMA, static connect modes
// and the payload piggyback hooks.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/conduit.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

std::vector<std::byte> text_bytes(const char* text) {
  std::vector<std::byte> out(std::strlen(text));
  std::memcpy(out.data(), text, out.size());
  return out;
}

TEST(Conduit, OnDemandAmRoundTrip) {
  JobEnv env(small_job(2, 1));
  std::vector<std::string> received;
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&received, &c](RankId src,
                                           std::vector<std::byte> payload)
                               -> sim::Task<> {
      received.push_back("rank" + std::to_string(c.rank()) + "<-" +
                         std::to_string(src) + ":" +
                         std::string(reinterpret_cast<char*>(payload.data()),
                                     payload.size()));
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, text_bytes("ping"));
    }
    co_await c.barrier_global();
  });
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "rank1<-0:ping");
}

TEST(Conduit, OnDemandCreatesNoRcConnectionsWithoutTraffic) {
  JobEnv env(small_job(4, 2));
  env.run([](Conduit& c) -> sim::Task<> { co_await c.init(); });
  for (RankId r = 0; r < 4; ++r) {
    Conduit& c = env.job.conduit(r);
    EXPECT_EQ(c.connected_peer_count(), 0u);
    EXPECT_EQ(c.stats().counter("qp_created_rc"), 0);
    EXPECT_EQ(c.stats().counter("qp_created_ud"), 1);
  }
}

TEST(Conduit, OnDemandConnectsOnlyUsedPeers) {
  JobEnv env(small_job(8, 2));
  env.run([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    // Ring pattern: each rank talks to (rank+1) % 8 only.
    co_await c.am_send((c.rank() + 1) % 8, 20, text_bytes("x"));
  });
  for (RankId r = 0; r < 8; ++r) {
    // Each PE is client for one peer and server for another.
    EXPECT_EQ(env.job.conduit(r).connected_peer_count(), 2u) << "rank " << r;
  }
}

TEST(Conduit, ConcurrentSendsShareOneConnection) {
  JobEnv env(small_job(2, 1));
  env.run([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      sim::JoinCounter join(c.engine());
      join.add(8);
      for (int i = 0; i < 8; ++i) {
        c.engine().spawn([](Conduit& cc, sim::JoinCounter& j) -> sim::Task<> {
          co_await cc.am_send(1, 20, std::vector<std::byte>(16));
          j.finish();
        }(c, join));
      }
      co_await join.wait();
    }
    co_await c.barrier_global();
  });
  EXPECT_EQ(env.job.conduit(0).stats().counter("conn_requests_initiated"), 1);
  EXPECT_EQ(env.job.conduit(1).stats().counter("connections_established"), 1);
}

TEST(Conduit, SelfSendWorks) {
  JobEnv env(small_job(2, 2));
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(21, [&received](RankId src,
                                       std::vector<std::byte>) -> sim::Task<> {
      EXPECT_EQ(src, 0u);
      ++received;
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(0, 21, text_bytes("self"));
    }
    co_await c.barrier_intranode();
  });
  EXPECT_EQ(received, 1);
}

TEST(Conduit, StaticModeConnectsEverybody) {
  JobConfig config = small_job(6, 2, current_design());
  JobEnv env(config);
  env.run([](Conduit& c) -> sim::Task<> { co_await c.init(); });
  for (RankId r = 0; r < 6; ++r) {
    Conduit& c = env.job.conduit(r);
    EXPECT_EQ(c.connected_peer_count(), 6u);
    EXPECT_EQ(c.stats().counter("qp_created_rc"), 6);
    EXPECT_EQ(c.stats().counter("qp_created_ud"), 0);
    EXPECT_GT(c.stats().phase_time("pmi_exchange"), 0u);
    EXPECT_GT(c.stats().phase_time("connection_setup"), 0u);
  }
}

TEST(Conduit, StaticModeAmNeedsNoHandshake) {
  JobConfig config = small_job(4, 2, current_design());
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&received](RankId, std::vector<std::byte>)
                               -> sim::Task<> {
      ++received;
      co_return;
    });
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, text_bytes("hi"));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 4);
  // No on-demand protocol traffic in static mode.
  EXPECT_EQ(env.job.conduit(0).stats().counter("conn_requests_initiated"), 0);
}

TEST(Conduit, StaticBulkMatchesCountersAndWorks) {
  ConduitConfig conduit = current_design();
  conduit.bulk_connect_threshold = 4;  // force the bulk path at N=6
  JobConfig config = small_job(6, 2, conduit);
  JobEnv env(config);
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&received](RankId, std::vector<std::byte>)
                               -> sim::Task<> {
      ++received;
      co_return;
    });
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 6, 20, text_bytes("hi"));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 6);
  for (RankId r = 0; r < 6; ++r) {
    Conduit& c = env.job.conduit(r);
    EXPECT_EQ(c.connected_peer_count(), 6u);
    EXPECT_EQ(c.stats().counter("qp_created_rc"), 6);
    EXPECT_EQ(c.endpoints_created(), 6u);
  }
}

TEST(Conduit, StaticBulkModelMatchesSimulatedTime) {
  // DESIGN.md ablation A4: the aggregate static model must reproduce the
  // fully simulated handshake cost at small scale.
  auto init_makespan = [](std::uint32_t threshold) {
    ConduitConfig conduit = current_design();
    conduit.bulk_connect_threshold = threshold;
    JobEnv env(small_job(32, 8, conduit));
    env.run([](Conduit& c) -> sim::Task<> { co_await c.init(); });
    return env.engine.now();
  };
  double simulated = static_cast<double>(init_makespan(512));  // real path
  double modeled = static_cast<double>(init_makespan(8));      // bulk path
  EXPECT_LT(std::abs(simulated - modeled) / simulated, 0.25)
      << "simulated=" << simulated << " modeled=" << modeled;
}

TEST(Conduit, PayloadPiggybackDeliversBothDirections) {
  JobEnv env(small_job(2, 1));
  std::map<std::pair<RankId, RankId>, std::string> consumed;
  env.run([&consumed](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    std::string mine = "segment-of-" + std::to_string(c.rank());
    c.set_payload_hooks(
        [mine](RankId) {
          std::vector<std::byte> out(mine.size());
          std::memcpy(out.data(), mine.data(), mine.size());
          return out;
        },
        [&consumed, &c](RankId peer, std::span<const std::byte> payload) {
          consumed[{c.rank(), peer}] = std::string(
              reinterpret_cast<const char*>(payload.data()), payload.size());
        });
    co_await c.init();
    c.set_ready();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, text_bytes("x"));
    }
    co_await c.barrier_global();
  });
  // Server (1) consumed client's payload from the request; client (0)
  // consumed the server's payload from the reply.
  EXPECT_EQ((consumed[{1, 0}]), "segment-of-0");
  EXPECT_EQ((consumed[{0, 1}]), "segment-of-1");
}

TEST(Conduit, RmaThroughConduit) {
  JobEnv env(small_job(2, 1));
  fabric::AddressSpace space(1, fabric::make_va_base(1), 4096);
  fabric::MemoryRegion mr{};
  env.run([&space, &mr](Conduit& c) -> sim::Task<> {
    co_await c.init();
    if (c.rank() == 1) {
      mr = co_await c.hca().register_memory(space, space.base(), space.size());
      std::uint64_t seed = 99;
      std::memcpy(space.bytes().data() + 8, &seed, 8);
    }
    co_await c.barrier_global();
    if (c.rank() == 0) {
      // put
      std::vector<std::byte> data(8);
      std::uint64_t value = 7;
      std::memcpy(data.data(), &value, 8);
      fabric::Completion put_wc = co_await c.rma(
          1, {.kind = RmaKind::kPut, .raddr = mr.addr, .src = data,
              .rkey = mr.rkey});
      EXPECT_TRUE(put_wc.ok());
      // get
      std::vector<std::byte> back(8);
      fabric::Completion get_wc = co_await c.rma(
          1, {.kind = RmaKind::kGet, .raddr = mr.addr, .dest = back,
              .rkey = mr.rkey});
      EXPECT_TRUE(get_wc.ok());
      std::uint64_t got = 0;
      std::memcpy(&got, back.data(), 8);
      EXPECT_EQ(got, 7u);
      // atomics
      fabric::Completion fa = co_await c.rma(
          1, {.kind = RmaKind::kFetchAdd, .raddr = mr.addr + 8, .operand = 1,
              .rkey = mr.rkey});
      EXPECT_EQ(fa.atomic_old, 99u);
      fabric::Completion cs = co_await c.rma(
          1, {.kind = RmaKind::kCompareSwap, .raddr = mr.addr + 8,
              .operand = 200, .expect = 100, .rkey = mr.rkey});
      EXPECT_EQ(cs.atomic_old, 100u);
    }
    co_await c.barrier_global();
  });
  std::uint64_t final_value = 0;
  std::memcpy(&final_value, space.bytes().data() + 8, 8);
  EXPECT_EQ(final_value, 200u);
}

TEST(Conduit, BlockingPmiModeAlsoConnects) {
  ConduitConfig conduit = proposed_design();
  conduit.pmi_mode = PmiMode::kBlocking;
  JobEnv env(small_job(4, 2, conduit));
  int received = 0;
  env.run([&received](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&received](RankId, std::vector<std::byte>)
                               -> sim::Task<> {
      ++received;
      co_return;
    });
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, text_bytes("x"));
    co_await c.barrier_global();
  });
  EXPECT_EQ(received, 4);
}

TEST(Conduit, FinalizeDestroysAllQps) {
  JobEnv env(small_job(4, 2));
  env.run([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    co_await c.am_send((c.rank() + 1) % 4, 20, std::vector<std::byte>(8));
    co_await c.barrier_global();
  });
  for (std::uint32_t n = 0; n < env.job.fabric().node_count(); ++n) {
    EXPECT_EQ(env.job.fabric().hca(n).qps_active(), 0u);
  }
}

TEST(Conduit, RegisterReservedHandlerThrows) {
  JobEnv env(small_job(2, 2));
  EXPECT_THROW(env.job.conduit(0).register_handler(
                   3, [](RankId, std::vector<std::byte>) -> sim::Task<> {
                     co_return;
                   }),
               std::logic_error);
}

TEST(Conduit, UnregisteredHandlerSurfacesError) {
  JobEnv env(small_job(2, 1));
  env.job.spawn_all([](Conduit& c) -> sim::Task<> {
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 42, std::vector<std::byte>(4));
    }
    co_await c.barrier_global();
  });
  EXPECT_THROW(env.engine.run(), std::runtime_error);
}

TEST(Conduit, RendezvousLandingBuffersReuseTheirSegments) {
  // Strictly growing messages never fit a free landing buffer; each one
  // takes over the too-small buffer's segment instead of claiming a new
  // one, so 300 sizes fit in the 255 landing segments a rank has.
  constexpr std::uint32_t kMessages = 300;
  JobEnv env(small_job(2, 1));
  std::vector<std::size_t> sizes;
  env.run([&sizes](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&sizes](RankId, std::vector<std::byte> payload)
                               -> sim::Task<> {
      sizes.push_back(payload.size());
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      for (std::uint32_t i = 1; i <= kMessages; ++i) {
        co_await c.am_send_rendezvous(1, 20, std::vector<std::byte>(8 * i));
      }
    }
    co_await c.barrier_global();
  });
  ASSERT_EQ(sizes.size(), kMessages);
  EXPECT_EQ(sizes.back(), 8u * kMessages);
  EXPECT_EQ(env.job.conduit(1).stats().counter("rdv_landing_registered"),
            kMessages);
  EXPECT_EQ(env.job.fabric().hca(1).regions_active(), 1u);
}

TEST(Conduit, RendezvousLandingBackPressureDeliversEveryStream) {
  // Twice as many concurrent message streams toward one rank as it has
  // landing segments: the surplus RTSs wait for a FIN to free a buffer
  // instead of failing, every message arrives intact, and once the burst
  // drains the target keeps a single spare buffer registered.
  constexpr std::uint32_t kStreams = 2 * fabric::kSegmentsPerRank;
  JobEnv env(small_job(2, 1));
  std::vector<std::uint32_t> arrived(kStreams, 0);
  env.run([&arrived](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [&arrived](RankId, std::vector<std::byte> payload)
                               -> sim::Task<> {
      std::uint32_t index = 0;
      std::memcpy(&index, payload.data(), sizeof(index));
      EXPECT_EQ(payload.size(), 64u + index % 7);
      if (index < arrived.size()) ++arrived[index];
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      sim::JoinCounter join(c.engine());
      join.add(kStreams);
      for (std::uint32_t i = 0; i < kStreams; ++i) {
        std::vector<std::byte> payload(64 + i % 7);
        std::memcpy(payload.data(), &i, sizeof(i));
        c.engine().spawn([](Conduit& cc, std::vector<std::byte> p,
                            sim::JoinCounter& j) -> sim::Task<> {
          co_await cc.am_send_rendezvous(1, 20, std::move(p));
          j.finish();
        }(c, std::move(payload), join));
      }
      co_await join.wait();
    }
    co_await c.barrier_global();
  });
  EXPECT_EQ(arrived, std::vector<std::uint32_t>(kStreams, 1));
  EXPECT_GT(env.job.conduit(1).stats().counter("rdv_landing_waits"), 0);
  EXPECT_EQ(env.job.fabric().hca(1).regions_active(), 1u);
}

TEST(Conduit, DeterministicEndToEnd) {
  auto run_once = [] {
    JobEnv env(small_job(8, 4));
    env.run([](Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](RankId, std::vector<std::byte>) -> sim::Task<> {
                           co_return;
                         });
      co_await c.init();
      co_await c.am_send((c.rank() + 3) % 8, 20, std::vector<std::byte>(32));
      co_await c.barrier_global();
    });
    return env.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace odcm::core
