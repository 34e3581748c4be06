// Host clocks and the per-layer host-cost probes.
//
// In a discrete-event simulator a host-clock span around a `co_await` also
// covers every other PE's events, so host cost per layer cannot come from
// the spans. Each probe here drives one layer's public API alone, at a
// fixed call count, and reports host nanoseconds per call.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "core/conduit.hpp"
#include "fabric/fabric.hpp"
#include "mpi/mpi.hpp"
#include "shmem/job.hpp"

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

namespace {

namespace core = odcm::core;
namespace fabric = odcm::fabric;
namespace shmem = odcm::shmem;
namespace sim = odcm::sim;
using sim::Task;

constexpr int kCalls = 4000;
constexpr std::uint16_t kProbeHandler = core::kFirstUserHandler + 4;

/// sim: the engine alone delaying and resuming coroutines.
double probe_resume() {
  constexpr int kTasks = 100;
  constexpr int kDelays = 1000;
  sim::Engine engine;
  for (int t = 0; t < kTasks; ++t) {
    engine.spawn([](sim::Engine& eng) -> Task<> {
      for (int k = 0; k < kDelays; ++k) co_await eng.delay(5);
    }(engine));
  }
  const double start = cpu_seconds();
  engine.run();
  return (cpu_seconds() - start) * 1e9 / (kTasks * kDelays);
}

/// fabric: 8-byte RDMA writes over one RC QP pair driven directly.
double probe_rc_write() {
  sim::Engine engine;
  fabric::FabricConfig config;
  config.nodes = 2;
  fabric::Fabric fab(engine, config);
  fab.hca(0).attach_pe(0);
  fab.hca(1).attach_pe(1);
  fabric::AddressSpace space(1, fabric::make_va_base(1), 64);
  double elapsed = 0;
  engine.spawn([](fabric::Fabric& f, fabric::AddressSpace& mem,
                  double& out) -> Task<> {
    fabric::QueuePair* a = co_await f.hca(0).create_qp(fabric::QpType::kRc, 0);
    fabric::QueuePair* b = co_await f.hca(1).create_qp(fabric::QpType::kRc, 1);
    co_await a->transition(fabric::QpState::kInit);
    co_await b->transition(fabric::QpState::kInit);
    a->set_remote(b->addr());
    b->set_remote(a->addr());
    co_await a->to_rts();
    co_await b->to_rts();
    fabric::MemoryRegion mr =
        co_await f.hca(1).register_memory(mem, mem.base(), mem.size());
    const double start = cpu_seconds();
    for (int i = 0; i < kCalls; ++i) {
      (void)co_await a->rdma_write(mr.addr, mr.rkey, std::vector<std::byte>(8));
    }
    out = cpu_seconds() - start;
  }(fab, space, elapsed));
  engine.run();
  return elapsed * 1e9 / kCalls;
}

/// core: 32-byte active messages on an established connection.
double probe_am() {
  sim::Engine engine;
  core::JobConfig config;
  config.ranks = 2;
  config.ranks_per_node = 1;
  config.conduit = core::proposed_design();
  core::ConduitJob job(engine, config);
  double elapsed = 0;
  job.spawn_all([&elapsed](core::Conduit& c) -> Task<> {
    c.register_handler(kProbeHandler,
                       [](core::RankId, std::vector<std::byte>) -> Task<> {
                         co_return;
                       });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, kProbeHandler, std::vector<std::byte>(32));
      const double start = cpu_seconds();
      for (int i = 0; i < kCalls; ++i) {
        co_await c.am_send(1, kProbeHandler, std::vector<std::byte>(32));
      }
      elapsed = cpu_seconds() - start;
    }
    co_await c.barrier_global();
  });
  engine.run();
  return elapsed * 1e9 / kCalls;
}

shmem::ShmemJobConfig two_pe_job() {
  shmem::ShmemJobConfig config;
  config.job.ranks = 2;
  config.job.ranks_per_node = 1;
  config.job.conduit = core::proposed_design();
  config.shmem.heap_bytes = 64 << 10;
  return config;
}

/// shmem: 8-byte blocking puts to a PE on another node.
double probe_put() {
  sim::Engine engine;
  shmem::ShmemJob job(engine, two_pe_job());
  double elapsed = 0;
  job.spawn_all([&elapsed](shmem::ShmemPe& pe) -> Task<> {
    co_await pe.start_pes();
    const shmem::SymAddr dest = pe.heap().allocate(8);
    if (pe.rank() == 0) {
      const std::vector<std::byte> payload(8);
      co_await pe.put(1, dest, payload);  // first contact, not timed
      const double start = cpu_seconds();
      for (int i = 0; i < kCalls; ++i) co_await pe.put(1, dest, payload);
      elapsed = cpu_seconds() - start;
    }
    co_await pe.finalize();
  });
  engine.run();
  return elapsed * 1e9 / kCalls;
}

/// mpi: 8-byte send/recv pairs between two ranks sharing the conduit.
double probe_send() {
  sim::Engine engine;
  shmem::ShmemJob job(engine, two_pe_job());
  std::vector<std::unique_ptr<odcm::mpi::MpiComm>> comms;
  for (core::RankId r = 0; r < 2; ++r) {
    comms.push_back(
        std::make_unique<odcm::mpi::MpiComm>(job.conduit_job().conduit(r)));
  }
  double start = 0;
  double elapsed = 0;
  job.spawn_all([&](shmem::ShmemPe& pe) -> Task<> {
    co_await pe.start_pes();
    odcm::mpi::MpiComm& comm = *comms[pe.rank()];
    const std::vector<std::byte> payload(8);
    if (pe.rank() == 0) {
      co_await comm.send(1, 0, payload);  // first contact, not timed
      start = cpu_seconds();
      for (int i = 0; i < kCalls; ++i) co_await comm.send(1, 0, payload);
    } else {
      (void)co_await comm.recv(0, 0);
      for (int i = 0; i < kCalls; ++i) (void)co_await comm.recv(0, 0);
      elapsed = cpu_seconds() - start;
    }
    co_await pe.finalize();
  });
  engine.run();
  return elapsed * 1e9 / kCalls;
}

double median_of(int reps, double (*probe)()) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) samples.push_back(probe());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::map<std::string, double> run_probes(int reps) {
  return {
      {"sim.probe_resume_ns", median_of(reps, probe_resume)},
      {"fabric.probe_rc_write_ns", median_of(reps, probe_rc_write)},
      {"core.probe_am_ns", median_of(reps, probe_am)},
      {"shmem.probe_put_ns", median_of(reps, probe_put)},
      {"mpi.probe_send_ns", median_of(reps, probe_send)},
  };
}

}  // namespace perfbench
