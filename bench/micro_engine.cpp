// google-benchmark microbenchmarks of the simulator substrate itself:
// real-time (host) cost of engine events, coroutine tasks, synchronization
// primitives, and end-to-end simulated operations. These bound how large a
// simulated job the harness can afford.
//
// The BM_EngineResume → BM_FabricRcSend → BM_ConduitPut → BM_ShmemPut →
// BM_Fcollect512 ladder costs one operation per layer of the stack, so a
// host-time regression points at the layer that introduced it.
#include <benchmark/benchmark.h>

#include "core/conduit.hpp"
#include "fabric/fabric.hpp"
#include "shmem/job.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

using namespace odcm;

namespace {

void BM_EngineEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_at(static_cast<sim::Time>(i), [] {});
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventDispatch);

void BM_CoroutineSpawnAndDelay(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 100; ++i) {
      engine.spawn([](sim::Engine& eng) -> sim::Task<> {
        for (int k = 0; k < 10; ++k) {
          co_await eng.delay(5);
        }
      }(engine));
    }
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSpawnAndDelay);

void BM_MailboxPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Mailbox<int> a(engine);
    sim::Mailbox<int> b(engine);
    engine.spawn([](sim::Mailbox<int>& rx, sim::Mailbox<int>& tx)
                     -> sim::Task<> {
      for (int i = 0; i < 500; ++i) {
        tx.push(i);
        (void)co_await rx.pop();
      }
    }(a, b));
    engine.spawn([](sim::Mailbox<int>& rx, sim::Mailbox<int>& tx)
                     -> sim::Task<> {
      for (int i = 0; i < 500; ++i) {
        int v = co_await rx.pop();
        tx.push(v);
      }
    }(b, a));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MailboxPingPong);

void BM_SimulatedRdmaWrite(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    fabric::FabricConfig config;
    config.nodes = 2;
    fabric::Fabric fabric(engine, config);
    fabric.hca(0).attach_pe(0);
    fabric.hca(1).attach_pe(1);
    fabric::AddressSpace space(1, fabric::make_va_base(1), size + 64);
    engine.spawn([](fabric::Fabric& fab, fabric::AddressSpace& mem,
                    std::size_t bytes) -> sim::Task<> {
      fabric::QueuePair* a = co_await fab.hca(0).create_qp(
          fabric::QpType::kRc, 0);
      fabric::QueuePair* b = co_await fab.hca(1).create_qp(
          fabric::QpType::kRc, 1);
      co_await a->transition(fabric::QpState::kInit);
      co_await b->transition(fabric::QpState::kInit);
      a->set_remote(b->addr());
      b->set_remote(a->addr());
      co_await a->transition(fabric::QpState::kRtr);
      co_await a->transition(fabric::QpState::kRts);
      co_await b->transition(fabric::QpState::kRtr);
      co_await b->transition(fabric::QpState::kRts);
      fabric::MemoryRegion mr =
          co_await fab.hca(1).register_memory(mem, mem.base(), mem.size());
      for (int i = 0; i < 100; ++i) {
        (void)co_await a->rdma_write(mr.addr, mr.rkey,
                                     std::vector<std::byte>(bytes));
      }
    }(fabric, space, size));
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetBytesProcessed(state.iterations() * 100 *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_SimulatedRdmaWrite)->Arg(8)->Arg(4096)->Arg(65536);

void BM_OnDemandHandshake(benchmark::State& state) {
  // Host cost of one full simulated connection establishment (Fig 4).
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = 2;
    config.ranks_per_node = 1;
    config.conduit = core::proposed_design();
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      co_await c.init();
      if (c.rank() == 0) {
        (void)co_await c.connected_qp(1);
      }
      co_await c.barrier_global();
    });
    engine.run();
  }
}
BENCHMARK(BM_OnDemandHandshake);

void BM_ConnectUnderCapPressure(benchmark::State& state) {
  // Host cost of a rank-0 sweep over N-1 peers with a small connection
  // cap: nearly every establishment evicts an older connection, so this
  // exercises victim selection, drain/reconnect, and retired-QP
  // reclamation. Host time should scale ~linearly in N; the pre-LRU
  // implementation was quadratic (a full peer scan per eviction).
  const auto ranks = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = ranks;
    config.ranks_per_node = ranks;
    config.conduit = core::proposed_design();
    config.conduit.max_active_connections = 64;
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](core::RankId, std::vector<std::byte>)
                             -> sim::Task<> { co_return; });
      co_await c.init();
      if (c.rank() == 0) {
        for (core::RankId peer = 1; peer < c.size(); ++peer) {
          co_await c.am_send(peer, 20, std::vector<std::byte>(8));
        }
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * (ranks - 1));
}
BENCHMARK(BM_ConnectUnderCapPressure)->Arg(256)->Arg(2048);

void BM_AmDispatch(benchmark::State& state) {
  // Host cost of the AM fast path (send + dispatch) over one established
  // connection: flat handler/peer lookup and buffer-consuming decode.
  constexpr int kMessages = 512;
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = 2;
    config.ranks_per_node = 1;
    config.conduit = core::proposed_design();
    core::ConduitJob job(engine, config);
    job.spawn_all([](core::Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](core::RankId, std::vector<std::byte>)
                             -> sim::Task<> { co_return; });
      co_await c.init();
      if (c.rank() == 0) {
        for (int i = 0; i < kMessages; ++i) {
          co_await c.am_send(1, 20, std::vector<std::byte>(32));
        }
      }
      co_await c.barrier_global();
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_AmDispatch);

// ---- per-layer ladder ----

void BM_EngineResume(benchmark::State& state) {
  // sim: one coroutine resume through the event queue per item.
  constexpr int kTasks = 100;
  constexpr int kDelays = 100;
  for (auto _ : state) {
    sim::Engine engine;
    for (int t = 0; t < kTasks; ++t) {
      engine.spawn([](sim::Engine& eng) -> sim::Task<> {
        for (int k = 0; k < kDelays; ++k) co_await eng.delay(5);
      }(engine));
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kTasks * kDelays);
}
BENCHMARK(BM_EngineResume);

void BM_FabricRcSend(benchmark::State& state) {
  // fabric: 32-byte RC SENDs on a connected QP pair, drained from the
  // target's shared receive queue.
  constexpr int kSends = 200;
  for (auto _ : state) {
    sim::Engine engine;
    fabric::FabricConfig config;
    config.nodes = 2;
    fabric::Fabric fab(engine, config);
    fab.hca(0).attach_pe(0);
    fab.hca(1).attach_pe(1);
    engine.spawn([](fabric::Fabric& f) -> sim::Task<> {
      auto* a = co_await f.hca(0).create_qp(fabric::QpType::kRc, 0);
      auto* b = co_await f.hca(1).create_qp(fabric::QpType::kRc, 1);
      co_await a->transition(fabric::QpState::kInit);
      co_await b->transition(fabric::QpState::kInit);
      a->set_remote(b->addr());
      b->set_remote(a->addr());
      co_await a->to_rts();
      co_await b->to_rts();
      sim::spawn_discard(f.engine(), [](fabric::Fabric& g) -> sim::Task<> {
        for (int i = 0; i < kSends; ++i) (void)co_await g.hca(1).srq(1).pop();
      }(f));
      for (int i = 0; i < kSends; ++i) {
        (void)co_await a->send(std::vector<std::byte>(32));
      }
    }(fab));
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kSends);
}
BENCHMARK(BM_FabricRcSend);

void BM_ConduitPut(benchmark::State& state) {
  // core: 8-byte puts through Conduit::rma on an established connection.
  constexpr int kPuts = 200;
  for (auto _ : state) {
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = 2;
    config.ranks_per_node = 1;
    config.conduit = core::proposed_design();
    core::ConduitJob job(engine, config);
    fabric::AddressSpace space(1, fabric::make_va_base(1), 4096);
    fabric::MemoryRegion mr{};
    job.spawn_all([&space, &mr](core::Conduit& c) -> sim::Task<> {
      co_await c.init();
      if (c.rank() == 1) {
        mr = co_await c.hca().register_memory(space, space.base(),
                                              space.size());
      }
      co_await c.barrier_global();
      if (c.rank() == 0) {
        const std::vector<std::byte> data(8);
        for (int i = 0; i < kPuts; ++i) {
          (void)co_await c.rma(1, {.kind = core::RmaKind::kPut,
                                   .raddr = mr.addr,
                                   .src = data,
                                   .rkey = mr.rkey});
        }
      }
      co_await c.barrier_global();
    });
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kPuts);
}
BENCHMARK(BM_ConduitPut);

shmem::ShmemJobConfig shmem_job(std::uint32_t ranks) {
  shmem::ShmemJobConfig config;
  config.job.ranks = ranks;
  config.job.ranks_per_node = 1;
  config.job.conduit = core::proposed_design();
  config.shmem.heap_bytes = 64 << 10;
  return config;
}

void BM_ShmemPut(benchmark::State& state) {
  // shmem: 8-byte blocking puts to a PE on another node.
  constexpr int kPuts = 200;
  for (auto _ : state) {
    sim::Engine engine;
    shmem::ShmemJob job(engine, shmem_job(2));
    job.spawn_all([](shmem::ShmemPe& pe) -> sim::Task<> {
      co_await pe.start_pes();
      const shmem::SymAddr dest = pe.heap().allocate(8);
      if (pe.rank() == 0) {
        const std::vector<std::byte> payload(8);
        for (int i = 0; i < kPuts; ++i) co_await pe.put(1, dest, payload);
      }
      co_await pe.finalize();
    });
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kPuts);
}
BENCHMARK(BM_ShmemPut);

void BM_Fcollect512(benchmark::State& state) {
  // shmem collectives: one 64-byte-per-PE ring fcollect over 512 PEs
  // (fig7's shape); an item is one PE's contribution.
  constexpr std::uint32_t kPes = 512;
  constexpr std::uint32_t kBlock = 64;
  for (auto _ : state) {
    sim::Engine engine;
    shmem::ShmemJob job(engine, shmem_job(kPes));
    job.spawn_all([](shmem::ShmemPe& pe) -> sim::Task<> {
      co_await pe.start_pes();
      const shmem::SymAddr src = pe.heap().allocate(kBlock);
      const shmem::SymAddr dest = pe.heap().allocate(kBlock * kPes);
      co_await pe.fcollect(dest, src, kBlock);
      co_await pe.finalize();
    });
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kPes);
}
BENCHMARK(BM_Fcollect512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
