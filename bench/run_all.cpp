// run_all: the one definition of every figure, table and ablation bench.
//
// Each registered bench runs behind a common interface, writes one
// `BENCH_<name>.json` ("odcm-bench" schema v1, see
// src/telemetry/bench_report.hpp) into --out and prints the same rows as a
// text table on stdout. Two parameter sets per bench:
//
//   --quick   CI-sized (PE counts <= 256, trimmed sweeps; seconds per bench)
//   --full    paper-scale (the shapes EXPERIMENTS.md reports)
//
// The simulation is deterministic: the same mode + seed produce
// byte-identical JSON, which CI relies on (ctest label `perf-smoke`).
// Exception: `connect_storm` additionally records host (wall-clock)
// milliseconds per run — the one metric that is machine-dependent by
// design, since the bench exists to track the simulator's own hot-path
// cost; its simulated metrics (events, virtual time) remain deterministic.
//
//   run_all --quick                        # all benches, CI parameters
//   run_all --quick --bench fig6_pt2pt     # one bench
//   run_all --full --out results/          # paper-scale sweep
//   run_all --list                         # registry
//
// The `hello_trace` bench additionally writes `TRACE_hello16.json`, a Chrome
// Trace Event file of the on-demand handshakes in a 16-PE hello-world
// (load it at ui.perfetto.dev or chrome://tracing).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/ep.hpp"
#include "apps/graph500.hpp"
#include "apps/grid_kernel.hpp"
#include "apps/heat2d.hpp"
#include "apps/hello.hpp"
#include "apps/mg.hpp"
#include "bench_util.hpp"
#include "mpi/mpi.hpp"
#include "sim/random.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

using namespace odcm;
using namespace odcm::bench;

namespace {

struct BenchContext {
  bool quick = true;
  std::uint64_t seed = 1;
  std::string out_dir = ".";
};

using BenchFn =
    std::function<void(const BenchContext&, telemetry::BenchReport&)>;

struct BenchDef {
  const char* name;
  const char* description;
  BenchFn fn;
};

using Kernel =
    std::function<sim::Task<>(shmem::ShmemPe&, apps::KernelResult&)>;

/// One timed operation of PE 0 on the symmetric address `buf`.
using RmaOp = std::function<sim::Task<>(shmem::ShmemPe&, shmem::SymAddr)>;

// ---------------------------------------------------------------------------
// Shared measurement plumbing.

shmem::ShmemJobConfig seeded_job(const BenchContext& ctx, std::uint32_t pes,
                                 std::uint32_t ppn,
                                 core::ConduitConfig conduit,
                                 std::uint64_t heap_bytes = 0) {
  shmem::ShmemJobConfig config =
      heap_bytes == 0 ? paper_job(pes, ppn, conduit)
                      : paper_job_heap(pes, ppn, conduit, heap_bytes);
  config.job.fabric.seed = ctx.seed;
  return config;
}

/// start_pes + finalize on every PE: the init barrier tree is the only
/// traffic.
sim::Task<> hello_program(shmem::ShmemPe& pe) {
  co_await apps::hello_pe(pe, apps::HelloParams{});
}

struct HelloSample {
  double start_pes_s;
  double wall_s;
  /// Mean start_pes phases per PE (Fig 5b columns).
  std::vector<std::pair<std::string, double>> breakdown;
};

HelloSample hello_sample(
    const BenchContext& ctx, std::uint32_t pes, core::ConduitConfig conduit,
    shmem::RegistrationMode reg = shmem::RegistrationMode::kEager) {
  shmem::ShmemJobConfig config = seeded_job(ctx, pes, 16, conduit);
  config.shmem.registration = reg;
  JobRun run = run_job(config, hello_program);
  shmem::ShmemJob& job = *run.job;
  double total = mean_phase_s(job, "start_pes_total");
  return {total,
          run.wall_s,
          {{"conn_setup_s", mean_phase_s(job, "connection_setup") +
                                mean_phase_s(job, "segment_exchange")},
           {"pmi_exchange_s",
            mean_phase_s(job, "pmi_exchange") + mean_phase_s(job, "pmi_wait")},
           {"mem_reg_s", mean_phase_s(job, "memory_registration")},
           {"shmem_setup_s", mean_phase_s(job, "shared_memory_setup")},
           {"init_barrier_s", mean_phase_s(job, "init_barrier")},
           {"other_s", mean_phase_s(job, "init_other")},
           {"total_s", total}}};
}

/// A 2-PE job with one PE per node, so every transfer takes the IB path.
shmem::ShmemJobConfig two_node_job(const BenchContext& ctx,
                                   core::ConduitConfig conduit,
                                   std::uint64_t heap_bytes) {
  shmem::ShmemJobConfig config;
  config.job.ranks = 2;
  config.job.ranks_per_node = 1;
  config.job.conduit = conduit;
  config.job.fabric.seed = ctx.seed;
  config.shmem.heap_bytes = heap_bytes;
  return config;
}

/// Mean latency (us) of `op` on PE 0 of `config`'s job, timed over `iters`
/// ops after `warmup` untimed ones (which absorb connection setup). `buf`
/// is the base of the symmetric heap, all of which the op may address.
double pt2pt_loop(const shmem::ShmemJobConfig& config, std::uint32_t iters,
                  std::uint32_t warmup, const RmaOp& op) {
  double latency_us = 0;
  (void)run_job(config, [&](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    shmem::SymAddr buf = pe.heap().allocate(pe.heap().capacity());
    co_await pe.barrier_all();
    if (pe.rank() == 0) {
      for (std::uint32_t i = 0; i < warmup; ++i) co_await op(pe, buf);
      sim::Time t0 = pe.engine().now();
      for (std::uint32_t i = 0; i < iters; ++i) co_await op(pe, buf);
      latency_us = sim::to_usec(pe.engine().now() - t0) / iters;
    }
    co_await pe.barrier_all();
    co_await pe.finalize();
  });
  return latency_us;
}

/// Mean one-way latency (us) of `op` on PE 0 of a 2-node job with 4 MiB
/// heaps, after 10 warm-up ops.
double ib_latency_us(const BenchContext& ctx, core::ConduitConfig conduit,
                     std::uint32_t iters, const RmaOp& op) {
  return pt2pt_loop(two_node_job(ctx, conduit, 4 << 20), iters,
                    /*warmup=*/10, op);
}

/// A `size`-byte put to PE 1.
RmaOp put_op(std::uint32_t size) {
  return [size](shmem::ShmemPe& pe, shmem::SymAddr buf) -> sim::Task<> {
    std::vector<std::byte> data(size, std::byte{7});
    co_await pe.put(1, buf, data);
  };
}

/// A `size`-byte get from PE 1.
RmaOp get_op(std::uint32_t size) {
  return [size](shmem::ShmemPe& pe, shmem::SymAddr buf) -> sim::Task<> {
    std::vector<std::byte> dest(size);
    co_await pe.get(1, buf, dest);
  };
}

/// Mean us/round of `iters` rounds of a collective on `pes` PEs.
template <typename Body>
double collective_loop(const BenchContext& ctx, std::uint32_t pes,
                       core::ConduitConfig conduit, std::uint32_t iters,
                       std::uint64_t heap_bytes, Body body) {
  double latency_us = 0;
  (void)run_job(seeded_job(ctx, pes, 8, conduit, heap_bytes),
                [&](shmem::ShmemPe& pe) -> sim::Task<> {
                  co_await pe.start_pes();
                  co_await body(pe);  // warmup round
                  co_await pe.barrier_all();
                  sim::Time t0 = pe.engine().now();
                  for (std::uint32_t i = 0; i < iters; ++i) co_await body(pe);
                  if (pe.rank() == 0) {
                    latency_us = sim::to_usec(pe.engine().now() - t0) / iters;
                  }
                  co_await pe.finalize();
                });
  return latency_us;
}

/// Run `kernel` on every PE of a `pes`-PE job with 2 MiB heaps; `verified`
/// (optional) receives whether every PE verified its result.
JobRun kernel_job(const BenchContext& ctx, std::uint32_t pes,
                  std::uint32_t ppn, core::ConduitConfig conduit,
                  const Kernel& kernel, bool* verified = nullptr) {
  std::vector<apps::KernelResult> results(pes);
  JobRun run = run_job(seeded_job(ctx, pes, ppn, conduit, 2ULL << 20),
                       [&](shmem::ShmemPe& pe) -> sim::Task<> {
                         co_await pe.start_pes();
                         co_await kernel(pe, results[pe.rank()]);
                         co_await pe.finalize();
                       });
  if (verified != nullptr) {
    *verified = true;
    for (const auto& r : results) *verified = *verified && r.verified;
  }
  return run;
}

/// `pe`'s MPI communicator. The first call builds one `MpiComm` per rank of
/// the job, each over that rank's conduit, so every rank has one before any
/// rank sends. `comms` may outlive the job: an `MpiComm`'s destructor does
/// not use its conduit.
mpi::MpiComm& mpi_comm(std::vector<std::unique_ptr<mpi::MpiComm>>& comms,
                       shmem::ShmemPe& pe) {
  if (comms.empty()) {
    shmem::ShmemJob& job = pe.job();
    for (std::uint32_t r = 0; r < job.n_pes(); ++r) {
      comms.push_back(
          std::make_unique<mpi::MpiComm>(job.conduit_job().conduit(r)));
    }
  }
  return *comms[pe.rank()];
}

/// The reduced-size NAS/Heat kernel zoo the resource benches share.
/// `scale` trims iteration counts for quick mode.
std::vector<std::pair<std::string, Kernel>> kernel_zoo(bool quick,
                                                       bool all_apps) {
  apps::Heat2dParams heat;
  heat.global_n = quick ? 96 : 192;
  heat.iters = quick ? 8 : 12;
  heat.verify = false;
  apps::EpParams ep;
  ep.log2_pairs = quick ? 12 : 14;
  ep.verify = false;
  apps::MgParams mg;
  mg.vcycles = quick ? 2 : 4;
  mg.finest_face_elems = quick ? 32 : 64;
  mg.verify_halos = false;
  apps::GridKernelParams bt = apps::bt_params();
  bt.iters = quick ? 4 : 8;
  bt.face_elems = quick ? 32 : 64;
  bt.verify_halos = false;
  apps::GridKernelParams sp = apps::sp_params();
  sp.iters = quick ? 4 : 8;
  sp.face_elems = quick ? 16 : 32;
  sp.verify_halos = false;

  std::vector<std::pair<std::string, Kernel>> zoo;
  zoo.emplace_back(
      "2DHeat",
      [heat](shmem::ShmemPe& pe, apps::KernelResult& out) -> sim::Task<> {
        co_await apps::heat2d_pe(pe, heat, out);
      });
  zoo.emplace_back(
      "EP", [ep](shmem::ShmemPe& pe, apps::KernelResult& out) -> sim::Task<> {
        co_await apps::ep_pe(pe, ep, out);
      });
  zoo.emplace_back(
      "MG", [mg](shmem::ShmemPe& pe, apps::KernelResult& out) -> sim::Task<> {
        co_await apps::mg_pe(pe, mg, out);
      });
  if (all_apps) {
    zoo.emplace_back(
        "BT",
        [bt](shmem::ShmemPe& pe, apps::KernelResult& out) -> sim::Task<> {
          co_await apps::grid_kernel_pe(pe, bt, out);
        });
    zoo.emplace_back(
        "SP",
        [sp](shmem::ShmemPe& pe, apps::KernelResult& out) -> sim::Task<> {
          co_await apps::grid_kernel_pe(pe, sp, out);
        });
  }
  return zoo;
}

/// Least-squares linear fit through (x, y), evaluated at `at`.
double project(const std::vector<double>& xs, const std::vector<double>& ys,
               double at) {
  double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  return (sy - slope * sx) / n + slope * at;
}

void set_pes_config(telemetry::BenchReport& report,
                    const std::vector<std::uint32_t>& pes_list) {
  telemetry::JsonValue arr = telemetry::JsonValue::array();
  for (std::uint32_t pes : pes_list) {
    arr.push(telemetry::JsonValue(static_cast<std::int64_t>(pes)));
  }
  report.set_config("pes", std::move(arr));
}

// ---------------------------------------------------------------------------
// The benches.

void bench_fig1(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::vector<std::uint32_t> pes_list =
      ctx.quick ? std::vector<std::uint32_t>{128, 256}
                : std::vector<std::uint32_t>{512, 1024, 2048, 4096};
  set_pes_config(report, pes_list);
  report.set_config("ppn", std::int64_t{16});
  report.set_config("design", "static");
  double eager_reg_s = 0;
  double ondemand_reg_s = 0;
  for (std::uint32_t pes : pes_list) {
    // Two series per PE count: the eager baseline (whole-heap registration
    // inside start_pes, the paper's Fig 1 bar) and on-demand registration,
    // where the memory_registration slice collapses and any registration
    // cost moves to the data path (lazy_reg_s).
    for (bool on_demand : {false, true}) {
      shmem::ShmemJobConfig config =
          seeded_job(ctx, pes, 16, core::current_design());
      if (on_demand) {
        config.shmem.registration = shmem::RegistrationMode::kOnDemand;
      }
      JobRun run = run_job(config, hello_program);
      shmem::ShmemJob& job = *run.job;
      double reg_s = mean_phase_s(job, "memory_registration");
      (on_demand ? ondemand_reg_s : eager_reg_s) = reg_s;
      report.add_row(
          on_demand ? "breakdown_ondemand_reg" : "breakdown", pes,
          {{"conn_setup_s", mean_phase_s(job, "connection_setup") +
                                mean_phase_s(job, "init_barrier") +
                                mean_phase_s(job, "segment_exchange")},
           {"pmi_exchange_s", mean_phase_s(job, "pmi_exchange") +
                                  mean_phase_s(job, "pmi_wait")},
           {"mem_reg_s", reg_s},
           {"lazy_reg_s", mean_phase_s(job, "lazy_registration")},
           {"shmem_setup_s", mean_phase_s(job, "shared_memory_setup")},
           {"other_s", mean_phase_s(job, "init_other")},
           {"total_s", mean_phase_s(job, "start_pes_total")}});
    }
  }
  // Acceptance anchor: on-demand registration removes the startup
  // registration slice entirely (hello touches no remote heap).
  report.set_metric("mem_reg_reduction_pct_at_max_pes",
                    100.0 * (1.0 - ondemand_reg_s /
                                       std::max(eager_reg_s, 1e-12)));
}

void bench_fig5(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::vector<std::uint32_t> pes_list =
      ctx.quick
          ? std::vector<std::uint32_t>{64, 128, 256}
          : std::vector<std::uint32_t>{128, 256, 512, 1024, 2048, 4096, 8192};
  set_pes_config(report, pes_list);
  report.set_config("ppn", std::int64_t{16});
  double start_ratio = 0;
  double hello_ratio = 0;
  double odreg_ratio = 0;
  std::vector<std::pair<std::uint32_t, HelloSample>> proposed_runs;
  for (std::uint32_t pes : pes_list) {
    HelloSample current = hello_sample(ctx, pes, core::current_design());
    HelloSample proposed = hello_sample(ctx, pes, core::proposed_design());
    // Third series: on-demand connections AND on-demand registration —
    // startup sheds the whole-heap pin-down on top of the handshake work.
    HelloSample odreg = hello_sample(ctx, pes, core::proposed_design(),
                                     shmem::RegistrationMode::kOnDemand);
    start_ratio = current.start_pes_s / proposed.start_pes_s;
    hello_ratio = current.wall_s / proposed.wall_s;
    odreg_ratio = current.start_pes_s / odreg.start_pes_s;
    report.add_row("startup", pes,
                   {{"start_current_s", current.start_pes_s},
                    {"start_proposed_s", proposed.start_pes_s},
                    {"start_odreg_s", odreg.start_pes_s},
                    {"start_speedup", start_ratio},
                    {"start_odreg_speedup", odreg_ratio},
                    {"hello_current_s", current.wall_s},
                    {"hello_proposed_s", proposed.wall_s},
                    {"hello_odreg_s", odreg.wall_s},
                    {"hello_speedup", hello_ratio}});
    proposed_runs.emplace_back(pes, std::move(proposed));
  }
  // Fig 5b: where the proposed design's start_pes time goes.
  for (auto& [pes, proposed] : proposed_runs) {
    report.add_row("breakdown_proposed", pes, std::move(proposed.breakdown));
  }
  // Paper anchors: ~3x / ~8.3x at the top of the sweep.
  report.set_metric("start_speedup_at_max_pes", start_ratio);
  report.set_metric("hello_speedup_at_max_pes", hello_ratio);
  report.set_metric("start_odreg_speedup_at_max_pes", odreg_ratio);
}

/// On-demand design with the large-message tier engine switched on:
/// eager below `eager`, pipelined fragment streams up to `rdv`, RTS/CTS
/// rendezvous above.
core::ConduitConfig tiered_design(std::uint64_t eager, std::uint64_t rdv,
                                  std::uint64_t chunk = 64 << 10,
                                  std::uint32_t credits = 4) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.eager_threshold = eager;
  conduit.rendezvous_threshold = rdv;
  conduit.bulk_chunk_bytes = chunk;
  conduit.qp_credits = credits;
  return conduit;
}

/// The tier-engine knobs of `conduit`, for a report's config block.
telemetry::JsonValue tier_config(const core::ConduitConfig& conduit) {
  telemetry::JsonValue knobs = telemetry::JsonValue::object();
  knobs.set("eager_threshold", conduit.eager_threshold);
  knobs.set("rendezvous_threshold", conduit.rendezvous_threshold);
  knobs.set("bulk_chunk_bytes", conduit.bulk_chunk_bytes);
  knobs.set("qp_credits", conduit.qp_credits);
  return knobs;
}

void bench_fig6(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t size = 1; size <= (1u << 20); size *= 4) {
    if (!ctx.quick || size == 1 || size == 64 || size == 4096 ||
        size == 65536) {
      sizes.push_back(size);
    }
  }
  std::uint32_t iters = ctx.quick ? 200 : 1000;
  report.set_config("pes", std::int64_t{2});
  report.set_config("iters", static_cast<std::int64_t>(iters));

  // Third series: the proposed design with the rendezvous tier enabled
  // above 4 KiB (small transfers stay on the unchanged eager path).
  core::ConduitConfig rdv_conduit = tiered_design(/*eager=*/0,
                                                  /*rdv=*/4 << 10);
  report.set_config("rendezvous_us_tiers", tier_config(rdv_conduit));
  for (std::uint32_t size : sizes) {
    std::uint32_t n = size >= (256 << 10) ? iters / 10 : iters;
    const std::pair<const char*, RmaOp> transfers[] = {
        {"get_latency", get_op(size)}, {"put_latency", put_op(size)}};
    for (const auto& [series, op] : transfers) {
      double stat = ib_latency_us(ctx, core::current_design(), n, op);
      double dyn = ib_latency_us(ctx, core::proposed_design(), n, op);
      double rdv = ib_latency_us(ctx, rdv_conduit, n, op);
      report.add_row(series, size,
                     {{"static_us", stat},
                      {"ondemand_us", dyn},
                      {"rendezvous_us", rdv},
                      {"diff_pct", 100.0 * (dyn - stat) / stat}});
    }
  }

  std::vector<std::pair<const char*, RmaOp>> ops;
  ops.emplace_back("fadd",
                   [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                     (void)co_await pe.atomic_fetch_add(1, a, 1);
                   });
  ops.emplace_back("cswap",
                   [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                     (void)co_await pe.atomic_compare_swap(1, a, 0, 0);
                   });
  if (!ctx.quick) {
    ops.emplace_back("finc",
                     [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                       (void)co_await pe.atomic_fetch_inc(1, a);
                     });
    ops.emplace_back("add",
                     [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                       co_await pe.atomic_add(1, a, 1);
                     });
    ops.emplace_back("inc",
                     [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                       co_await pe.atomic_inc(1, a);
                     });
    ops.emplace_back("swap",
                     [](shmem::ShmemPe& pe, shmem::SymAddr a) -> sim::Task<> {
                       (void)co_await pe.atomic_swap(1, a, 5);
                     });
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& [name, op] = ops[i];
    double stat = ib_latency_us(ctx, core::current_design(), iters, op);
    double dyn = ib_latency_us(ctx, core::proposed_design(), iters, op);
    report.add_row("atomic_latency", static_cast<double>(i),
                   {{"static_us", stat},
                    {"ondemand_us", dyn},
                    {"diff_pct", 100.0 * (dyn - stat) / stat}},
                   name);
  }
}

void bench_fig7(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::uint32_t pes = ctx.quick ? 64 : 512;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{8});

  auto both = [&](auto&& measure) {
    double stat = measure(core::current_design());
    double dyn = measure(core::proposed_design());
    return std::pair<double, double>{stat, dyn};
  };

  std::vector<std::uint32_t> blocks =
      ctx.quick ? std::vector<std::uint32_t>{8, 512}
                : std::vector<std::uint32_t>{8, 64, 512, 4096};
  for (std::uint32_t block : blocks) {
    auto [stat, dyn] = both([&](core::ConduitConfig conduit) {
      std::uint64_t heap = 2ULL * block * pes + (1 << 16);
      auto addrs = std::make_shared<
          std::vector<std::pair<shmem::SymAddr, shmem::SymAddr>>>();
      addrs->assign(pes, {~0ULL, ~0ULL});
      return collective_loop(
          ctx, pes, conduit, /*iters=*/3, heap,
          [block, pes, addrs](shmem::ShmemPe& pe) -> sim::Task<> {
            auto& [src, dest] = (*addrs)[pe.rank()];
            if (src == ~0ULL) {
              src = pe.heap().allocate(block, 8);
              dest = pe.heap().allocate(
                  static_cast<std::uint64_t>(block) * pes, 8);
            }
            co_await pe.fcollect(dest, src, block);
          });
    });
    report.add_row("fcollect", block,
                   {{"static_us", stat},
                    {"ondemand_us", dyn},
                    {"diff_pct", 100.0 * (dyn - stat) / stat}});
  }

  std::vector<std::uint32_t> reduce_bytes =
      ctx.quick ? std::vector<std::uint32_t>{8, 32768}
                : std::vector<std::uint32_t>{8, 128, 2048, 32768, 262144};
  for (std::uint32_t bytes : reduce_bytes) {
    std::uint32_t count = bytes / 8;
    auto [stat, dyn] = both([&](core::ConduitConfig conduit) {
      auto addrs = std::make_shared<
          std::vector<std::pair<shmem::SymAddr, shmem::SymAddr>>>();
      addrs->assign(pes, {~0ULL, ~0ULL});
      return collective_loop(
          ctx, pes, conduit, /*iters=*/10, (2ULL * bytes) + (1 << 16),
          [count, bytes, addrs](shmem::ShmemPe& pe) -> sim::Task<> {
            auto& [src, dest] = (*addrs)[pe.rank()];
            if (src == ~0ULL) {
              src = pe.heap().allocate(bytes, 8);
              dest = pe.heap().allocate(bytes, 8);
            }
            co_await pe.reduce<std::int64_t>(dest, src, count,
                                             shmem::ReduceOp::kSum);
          });
    });
    report.add_row("reduce", bytes,
                   {{"static_us", stat},
                    {"ondemand_us", dyn},
                    {"diff_pct", 100.0 * (dyn - stat) / stat}});
  }

  std::vector<std::uint32_t> barrier_pes =
      ctx.quick ? std::vector<std::uint32_t>{32, 64, 128}
                : std::vector<std::uint32_t>{128, 256, 512, 1024};
  for (std::uint32_t bpes : barrier_pes) {
    auto [stat, dyn] = both([&](core::ConduitConfig conduit) {
      return collective_loop(ctx, bpes, conduit, /*iters=*/20, 1 << 16,
                             [](shmem::ShmemPe& pe) -> sim::Task<> {
                               co_await pe.barrier_all();
                             });
    });
    report.add_row("barrier", bpes,
                   {{"static_us", stat},
                    {"ondemand_us", dyn},
                    {"diff_pct", 100.0 * (dyn - stat) / stat}});
  }
}

void bench_fig8a(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::uint32_t pes = ctx.quick ? 64 : 256;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{8});
  auto zoo = kernel_zoo(ctx.quick, /*all_apps=*/!ctx.quick);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& [name, kernel] = zoo[i];
    bool ok_static = false;
    bool ok_dynamic = false;
    double stat =
        kernel_job(ctx, pes, 8, core::current_design(), kernel, &ok_static)
            .wall_s;
    double dyn =
        kernel_job(ctx, pes, 8, core::proposed_design(), kernel, &ok_dynamic)
            .wall_s;
    report.add_row("wall", static_cast<double>(i),
                   {{"static_s", stat},
                    {"ondemand_s", dyn},
                    {"improvement_pct", 100.0 * (stat - dyn) / stat},
                    {"verified", (ok_static && ok_dynamic) ? 1.0 : 0.0}},
                   name);
  }
}

void bench_fig8b(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::vector<std::uint32_t> pes_list =
      ctx.quick ? std::vector<std::uint32_t>{32, 64}
                : std::vector<std::uint32_t>{128, 256, 512};
  set_pes_config(report, pes_list);
  report.set_config("ppn", std::int64_t{8});
  for (std::uint32_t pes : pes_list) {
    apps::Graph500Params params;  // paper defaults: 1,024 / 16,384
    params.compute_ns_per_edge = ctx.quick ? 5.0e4 : 5.0e5;
    auto run = [&](core::ConduitConfig conduit, bool* verified) {
      std::vector<std::unique_ptr<mpi::MpiComm>> comms;
      Kernel graph500 = [&](shmem::ShmemPe& pe,
                            apps::KernelResult& out) -> sim::Task<> {
        co_await apps::graph500_pe(pe, mpi_comm(comms, pe), params, out);
      };
      return kernel_job(ctx, pes, 8, conduit, graph500, verified).wall_s;
    };
    bool ok_static = false;
    bool ok_dynamic = false;
    double stat = run(core::current_design(), &ok_static);
    double dyn = run(core::proposed_design(), &ok_dynamic);
    report.add_row("wall", pes,
                   {{"static_s", stat},
                    {"ondemand_s", dyn},
                    {"diff_pct", 100.0 * (stat - dyn) / stat},
                    {"verified", (ok_static && ok_dynamic) ? 1.0 : 0.0}});
  }
}

void bench_fig9(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::vector<double> sizes =
      ctx.quick ? std::vector<double>{16, 64, 256}
                : std::vector<double>{64, 256, 1024};
  double project_at = ctx.quick ? 1024 : 4096;
  report.set_config("project_at", project_at);
  report.set_config("ppn", std::int64_t{8});
  auto zoo = kernel_zoo(ctx.quick, /*all_apps=*/!ctx.quick);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& [name, kernel] = zoo[i];
    std::vector<double> endpoints;
    for (double pes : sizes) {
      JobRun run = kernel_job(ctx, static_cast<std::uint32_t>(pes), 8,
                              core::proposed_design(), kernel);
      endpoints.push_back(mean_endpoints(*run.job));
    }
    double max_pes = sizes.back();
    // The static design creates N+1 endpoints per process.
    double reduction = 100.0 * (1.0 - endpoints.back() / (max_pes + 1.0));
    report.add_row("endpoints", static_cast<double>(i),
                   {{"at_" + std::to_string(static_cast<int>(sizes[0])),
                     endpoints[0]},
                    {"at_" + std::to_string(static_cast<int>(sizes[1])),
                     endpoints[1]},
                    {"at_" + std::to_string(static_cast<int>(sizes[2])),
                     endpoints[2]},
                    {"projected", project(sizes, endpoints, project_at)},
                    {"reduction_pct", reduction}},
                   name);
    report.set_metric("reduction_pct/" + std::string(name), reduction);
  }
}

void bench_table1(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::uint32_t pes = ctx.quick ? 64 : 256;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{8});
  struct Row {
    const char* name;
    double paper;
  };
  // Paper values hold at the 256-PE evaluation scale.
  const std::vector<Row> paper = {{"2DHeat", 4.7}, {"EP", 2.0}, {"MG", 9.5},
                                  {"BT", 9.9},     {"SP", 9.9}};
  auto zoo = kernel_zoo(ctx.quick, /*all_apps=*/!ctx.quick);
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    const auto& [name, kernel] = zoo[i];
    JobRun run = kernel_job(ctx, pes, 8, core::proposed_design(), kernel);
    double peers = mean_peers(*run.job);
    report.add_row("peers", static_cast<double>(i),
                   {{"measured", peers}, {"paper_at_256", paper[i].paper}},
                   name);
  }

  // With the intra-node shm transport a process's peers split into RC
  // (cross-node) and shm (same-node); only the former cost QPs and LRU
  // slots. 2DHeat, the zoo's first kernel, at PPN 2/4/8.
  core::ConduitConfig shm_conduit = core::proposed_design();
  shm_conduit.intranode_transport = core::IntranodeTransport::kShm;
  for (std::uint32_t ppn : {2u, 4u, 8u}) {
    JobRun run = kernel_job(ctx, pes, ppn, shm_conduit, zoo[0].second);
    double shm_peers = 0;
    double qps = 0;
    for (std::uint32_t r = 0; r < pes; ++r) {
      core::Conduit& c = run.job->conduit_job().conduit(r);
      shm_peers += static_cast<double>(c.shm_peer_count());
      qps += static_cast<double>(c.stats().counter("qp_created_rc"));
    }
    report.add_row("peer_split_2dheat", ppn,
                   {{"rc_peers", mean_peers(*run.job)},
                    {"shm_peers", shm_peers / pes},
                    {"rc_qps", qps / pes}});
  }
}

/// Handshake tallies of one first-contact run, read from the telemetry
/// pipeline's registry.
struct FirstContactSample {
  double wall_s = 0;
  double retransmits = 0;
  double reply_resends = 0;
  double collisions = 0;
  double handshakes = 0;
  double handshake_p99_us = 0;
};

/// Every PE puts to every peer right after start_pes, over a UD channel
/// that drops `drop` of its datagrams, duplicates a quarter as many and
/// jitters them: first contact with every peer at once is the handshake's
/// worst case (maximum collisions + loss).
FirstContactSample first_contact_sample(const BenchContext& ctx,
                                        std::uint32_t pes,
                                        core::ConduitConfig conduit,
                                        double drop) {
  shmem::ShmemJobConfig config = seeded_job(ctx, pes, 8, conduit);
  config.job.fabric.ud_drop_rate = drop;
  config.job.fabric.ud_duplicate_rate = drop / 4;
  config.job.fabric.ud_jitter_max = 2 * sim::usec;
  telemetry::Telemetry tel;
  JobRun run = run_job(
      config,
      [pes](shmem::ShmemPe& pe) -> sim::Task<> {
        co_await pe.start_pes();
        shmem::SymAddr slot = pe.heap().allocate(8 * pes, 8);
        for (std::uint32_t peer = 0; peer < pes; ++peer) {
          if (peer != pe.rank()) {
            co_await pe.put_value<std::uint64_t>(peer, slot + 8 * pe.rank(),
                                                 pe.rank());
          }
        }
        co_await pe.finalize();
      },
      &tel);
  const telemetry::MetricsRegistry& m = tel.metrics();
  const telemetry::Histogram* hs = m.histogram("conn/handshake_time");
  return {run.wall_s,
          static_cast<double>(m.counter("conn/retransmits")),
          static_cast<double>(m.counter("conn/reply_resends")),
          static_cast<double>(m.counter("conn/collisions")),
          static_cast<double>(m.counter("conn/handshakes_completed")),
          hs != nullptr ? sim::to_usec(hs->percentile(99)) : 0.0};
}

void bench_ud_loss(const BenchContext& ctx, telemetry::BenchReport& report) {
  std::uint32_t pes = ctx.quick ? 16 : 64;
  std::vector<double> drops = ctx.quick
                                  ? std::vector<double>{0.0, 0.3}
                                  : std::vector<double>{0.0, 0.1, 0.3, 0.5};
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{8});
  for (double drop : drops) {
    FirstContactSample sample =
        first_contact_sample(ctx, pes, core::proposed_design(), drop);
    report.add_row("loss", drop,
                   {{"wall_s", sample.wall_s},
                    {"retransmits", sample.retransmits},
                    {"reply_resends", sample.reply_resends},
                    {"collisions", sample.collisions},
                    {"handshakes", sample.handshakes},
                    {"handshake_p99_us", sample.handshake_p99_us}});
  }

  // Backoff-cap sweep: fix the heaviest drop rate above and vary
  // conn_rto_max. The retransmission schedule is a pure function of
  // (src, dst, attempt), so these rows are reproducible across seeds.
  std::vector<double> caps_ms =
      ctx.quick ? std::vector<double>{1.0, 8.0}
                : std::vector<double>{1.0, 4.0, 8.0, 32.0};
  for (double cap_ms : caps_ms) {
    core::ConduitConfig conduit = core::proposed_design();
    conduit.conn_rto_max = static_cast<sim::Time>(cap_ms * sim::msec);
    FirstContactSample sample =
        first_contact_sample(ctx, pes, conduit, drops.back());
    report.add_row("rto_max", cap_ms,
                   {{"wall_s", sample.wall_s},
                    {"retransmits", sample.retransmits},
                    {"handshakes", sample.handshakes},
                    {"handshake_p99_us", sample.handshake_p99_us}});
  }
}

void bench_connect_storm(const BenchContext& ctx,
                         telemetry::BenchReport& report) {
  // Hot-path scaling of the connection manager: rank 0 sweeps an AM to
  // every peer under a 64-connection cap, so nearly every establishment
  // runs victim selection, drain, and retired-QP reclamation. The
  // simulated metrics are deterministic; host_ms tracks the simulator's
  // own per-event cost (the pre-LRU implementation was quadratic in PEs:
  // 75 ms at 2,048 PEs on the reference machine vs 28 ms at 1,024).
  std::vector<std::uint32_t> pes_list =
      ctx.quick ? std::vector<std::uint32_t>{256, 512}
                : std::vector<std::uint32_t>{1024, 2048, 4096};
  set_pes_config(report, pes_list);
  report.set_config("cap", std::int64_t{64});
  for (std::uint32_t pes : pes_list) {
    // A bare ConduitJob, outside run_job: host_ms times engine.run() alone.
    sim::Engine engine;
    core::JobConfig config;
    config.ranks = pes;
    config.ranks_per_node = pes;
    config.conduit = core::proposed_design();
    config.conduit.max_active_connections = 64;
    config.fabric.seed = ctx.seed;
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
    auto host0 = std::chrono::steady_clock::now();
    engine.run();
    double host_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - host0)
                         .count();
    const core::Conduit& c0 = job.conduit(0);
    report.add_row(
        "storm", pes,
        {{"sim_s", sim::to_seconds(engine.now())},
         {"events", static_cast<double>(engine.events_executed())},
         {"evictions",
          static_cast<double>(c0.stats().counter("conn_evictions"))},
         {"qp_reclaimed",
          static_cast<double>(c0.stats().counter("qp_retired_reclaimed"))},
         {"host_ms", host_ms}});
  }
}

void bench_hello_trace(const BenchContext& ctx,
                       telemetry::BenchReport& report) {
  constexpr std::uint32_t kPes = 16;
  report.set_config("pes", std::int64_t{kPes});
  report.set_config("ppn", std::int64_t{8});
  report.set_config("design", "ondemand");
  // A lossy, jittery UD control channel so the trace shows the interesting
  // protocol paths (retransmits, cached-reply resends, collisions), not just
  // clean request/reply pairs.
  shmem::ShmemJobConfig config =
      seeded_job(ctx, kPes, 8, core::proposed_design());
  config.job.fabric.ud_drop_rate = 0.25;
  config.job.fabric.ud_duplicate_rate = 0.05;
  config.job.fabric.ud_jitter_max = 2 * sim::usec;
  report.set_config("ud_drop_rate", config.job.fabric.ud_drop_rate);
  telemetry::Telemetry tel;
  JobRun run = run_job(config, hello_program, &tel);
  report.set_metric("wall_s", run.wall_s);
  report.set_metrics_from(tel.metrics());

  std::filesystem::path trace_path =
      std::filesystem::path(ctx.out_dir) / "TRACE_hello16.json";
  std::ofstream out(trace_path);
  telemetry::export_chrome_trace(out, tel.timeline(), kPes);
  if (!out) {
    throw std::runtime_error("failed to write " + trace_path.string());
  }
  std::cout << "  trace: " << trace_path.string() << "\n";
}

/// Mean same-node put latency (us) between two PEs on one node, measured on
/// PE 0 after a warm-up put (which absorbs the RC connection setup when the
/// rc transport is selected).
double same_node_put_us(const BenchContext& ctx, std::uint32_t ppn,
                        core::IntranodeTransport transport,
                        std::uint32_t bytes) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = transport;
  return pt2pt_loop(seeded_job(ctx, ppn, ppn, conduit), /*iters=*/32,
                    /*warmup=*/1, put_op(bytes));
}

struct IntranodeQpSample {
  double rc_qps_total;     // sum of qp_created_rc over all PEs
  double shm_peers_mean;   // mean distinct shm peers per PE
};

/// Run hello and count the RC QPs actually created under `transport`.
IntranodeQpSample hello_qp_sample(const BenchContext& ctx, std::uint32_t pes,
                                  std::uint32_t ppn,
                                  core::IntranodeTransport transport) {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = transport;
  JobRun run = run_job(seeded_job(ctx, pes, ppn, conduit), hello_program);
  IntranodeQpSample sample{};
  for (std::uint32_t r = 0; r < pes; ++r) {
    core::Conduit& conduit_r = run.job->conduit_job().conduit(r);
    sample.rc_qps_total +=
        static_cast<double>(conduit_r.stats().counter("qp_created_rc"));
    sample.shm_peers_mean += static_cast<double>(conduit_r.shm_peer_count());
  }
  sample.shm_peers_mean /= pes;
  return sample;
}

void bench_ablation_intranode(const BenchContext& ctx,
                              telemetry::BenchReport& report) {
  // 1. Same-node put latency, PPN x message size, rc vs shm.
  std::vector<std::uint32_t> ppns = ctx.quick
                                        ? std::vector<std::uint32_t>{2, 4}
                                        : std::vector<std::uint32_t>{2, 4, 8};
  std::vector<std::uint32_t> sizes =
      ctx.quick ? std::vector<std::uint32_t>{8, 4096}
                : std::vector<std::uint32_t>{8, 512, 4096, 65536};
  for (std::uint32_t ppn : ppns) {
    for (std::uint32_t bytes : sizes) {
      double rc = same_node_put_us(ctx, ppn,
                                   core::IntranodeTransport::kRc, bytes);
      double shm = same_node_put_us(ctx, ppn,
                                    core::IntranodeTransport::kShm, bytes);
      report.add_row("put_same_node", static_cast<double>(bytes),
                     {{"rc_us", rc}, {"shm_us", shm}, {"speedup", rc / shm}},
                     "ppn" + std::to_string(ppn));
    }
  }

  // 2. RC QPs created for hello at PPN {1, 2, 4}, rc vs shm.
  std::uint32_t pes = ctx.quick ? 64 : 256;
  report.set_config("qp_pes", static_cast<std::int64_t>(pes));
  for (std::uint32_t ppn : {1u, 2u, 4u}) {
    IntranodeQpSample rc =
        hello_qp_sample(ctx, pes, ppn, core::IntranodeTransport::kRc);
    IntranodeQpSample shm =
        hello_qp_sample(ctx, pes, ppn, core::IntranodeTransport::kShm);
    double reduction = 100.0 * (1.0 - shm.rc_qps_total / rc.rc_qps_total);
    report.add_row("qp_by_ppn", static_cast<double>(ppn),
                   {{"rc_qps", rc.rc_qps_total},
                    {"shm_qps", shm.rc_qps_total},
                    {"reduction_pct", reduction},
                    {"shm_peers_mean", shm.shm_peers_mean}});
  }

  // 3. Acceptance-scale point: 512 PEs at PPN 4 must cut RC QPs >= 70%.
  std::uint32_t accept_pes = ctx.quick ? 128 : 512;
  report.set_config("accept_pes", static_cast<std::int64_t>(accept_pes));
  IntranodeQpSample rc_accept = hello_qp_sample(
      ctx, accept_pes, 4, core::IntranodeTransport::kRc);
  IntranodeQpSample shm_accept = hello_qp_sample(
      ctx, accept_pes, 4, core::IntranodeTransport::kShm);
  report.set_metric("qp_reduction_pct_ppn4",
                    100.0 * (1.0 - shm_accept.rc_qps_total /
                                       rc_accept.rc_qps_total));
}

/// One point of the registration sweep: seeded random RMA traffic over a
/// multi-chunk heap, with a tunable share of touches confined to a small
/// hot working set of chunks.
struct RegSweepConfig {
  std::uint64_t seed = 1;
  std::uint32_t pes = 8;
  std::uint64_t heap_bytes = 256 << 10;
  std::uint64_t chunk_bytes = 16 << 10;
  std::uint64_t pin_cap_bytes = 0;  ///< 0 = uncapped
  /// Probability that a touch lands in the 2-chunk hot set; the rest are
  /// uniform over the whole heap. 1.0 = perfectly local, 0.0 = scattered.
  double locality = 1.0;
  std::uint32_t rounds = 24;
  bool on_demand = true;  ///< false = eager baseline, same traffic
};

struct RegSweepSample {
  double wall_s = 0;
  double eager_reg_s = 0;    ///< mean start_pes "memory_registration" phase
  double lazy_reg_s = 0;     ///< mean data-path "lazy_registration" phase
  double faults = 0;         ///< mean reg_faults_served per PE
  double evictions = 0;      ///< mean reg_evictions per PE
  double pinned_hw_bytes = 0;  ///< mean pinned high-water per PE
};

/// Run the traffic pattern once and collect the registration costs. Every
/// PE writes 8-byte values to its ring successor at chunk-selected offsets;
/// PPN is 1 so all traffic takes the RC (registration-checked) path.
RegSweepSample reg_sweep_sample(const RegSweepConfig& sweep) {
  core::ConduitConfig conduit = core::proposed_design();
  shmem::ShmemJobConfig config = paper_job(sweep.pes, 1, conduit);
  config.shmem.heap_bytes = sweep.heap_bytes;
  config.job.fabric.seed = sweep.seed;
  if (sweep.on_demand) {
    config.shmem.registration = shmem::RegistrationMode::kOnDemand;
    config.shmem.reg_chunk_bytes = sweep.chunk_bytes;
    config.shmem.reg_pinned_max_bytes = sweep.pin_cap_bytes;
  }
  const auto chunks =
      static_cast<std::uint32_t>(sweep.heap_bytes / sweep.chunk_bytes);
  JobRun run = run_job(config, [&sweep, chunks](shmem::ShmemPe& pe)
                                   -> sim::Task<> {
    co_await pe.start_pes();
    co_await pe.barrier_all();
    const auto dst =
        static_cast<shmem::RankId>((pe.rank() + 1) % sweep.pes);
    sim::Rng rng(sweep.seed * 7919 + pe.rank());
    for (std::uint32_t round = 0; round < sweep.rounds; ++round) {
      std::uint32_t chunk =
          rng.chance(sweep.locality)
              ? static_cast<std::uint32_t>(rng.next_below(2))
              : static_cast<std::uint32_t>(rng.next_below(chunks));
      shmem::SymAddr addr =
          std::uint64_t{chunk} * sweep.chunk_bytes + 8 * pe.rank();
      co_await pe.put_value<std::uint64_t>(dst, addr, round);
    }
    co_await pe.finalize();
  });
  shmem::ShmemJob& job = *run.job;
  RegSweepSample sample;
  sample.wall_s = run.wall_s;
  sample.eager_reg_s = mean_phase_s(job, "memory_registration");
  sample.lazy_reg_s = mean_phase_s(job, "lazy_registration");
  sample.faults = mean_counter(job, "reg_faults_served");
  sample.evictions = mean_counter(job, "reg_evictions");
  sample.pinned_hw_bytes = mean_counter(job, "reg_pinned_highwater_bytes");
  return sample;
}

void bench_ablation_registration(const BenchContext& ctx,
                                 telemetry::BenchReport& report) {
  RegSweepConfig base;
  base.seed = ctx.seed;
  base.pes = 8;
  base.heap_bytes = 256 << 10;
  base.rounds = ctx.quick ? 24 : 96;
  report.set_config("pes", static_cast<std::int64_t>(base.pes));
  report.set_config("heap_bytes", static_cast<std::int64_t>(base.heap_bytes));
  report.set_config("rounds", static_cast<std::int64_t>(base.rounds));
  const auto heap = static_cast<double>(base.heap_bytes);

  // Eager baseline: whole-heap registration at startup, nothing lazy.
  RegSweepConfig eager = base;
  eager.on_demand = false;
  RegSweepSample eager_sample = reg_sweep_sample(eager);
  report.add_row("eager_baseline", 0,
                 {{"wall_s", eager_sample.wall_s},
                  {"eager_reg_s", eager_sample.eager_reg_s},
                  {"pinned_hw_frac", 1.0}});

  auto emit = [&](const char* series, double x, const char* label,
                  const RegSweepSample& sample) {
    report.add_row(series, x,
                   {{"wall_s", sample.wall_s},
                    {"lazy_reg_s", sample.lazy_reg_s},
                    {"faults", sample.faults},
                    {"evictions", sample.evictions},
                    {"pinned_hw_frac", sample.pinned_hw_bytes / heap}},
                   label);
  };

  double hot_hw_frac = 1.0;
  for (double locality : {0.9, 0.0}) {
    const char* name = locality > 0.5 ? "hot" : "scattered";
    // 1. Chunk-size sweep, uncapped: finer chunks pin less of the heap for
    // local traffic but take more faults.
    std::vector<std::uint64_t> chunk_sizes =
        ctx.quick ? std::vector<std::uint64_t>{8 << 10, 64 << 10}
                  : std::vector<std::uint64_t>{8 << 10, 16 << 10, 32 << 10,
                                               64 << 10};
    for (std::uint64_t chunk : chunk_sizes) {
      RegSweepConfig sweep = base;
      sweep.chunk_bytes = chunk;
      sweep.locality = locality;
      RegSweepSample sample = reg_sweep_sample(sweep);
      if (locality > 0.5 && chunk == chunk_sizes.front()) {
        hot_hw_frac = sample.pinned_hw_bytes / heap;
      }
      emit("chunk_sweep", static_cast<double>(chunk >> 10), name, sample);
    }
    // 2. Pin-cap sweep at 16K chunks: a tight cap bounds pinned memory at
    // the price of eviction/re-fault churn on scattered traffic.
    for (std::uint64_t cap_chunks : {2ULL, 4ULL}) {
      RegSweepConfig sweep = base;
      sweep.chunk_bytes = 16 << 10;
      sweep.locality = locality;
      sweep.pin_cap_bytes = cap_chunks * sweep.chunk_bytes;
      emit("cap_sweep", static_cast<double>(cap_chunks), name,
           reg_sweep_sample(sweep));
    }
  }
  // Acceptance anchor: hot traffic over fine chunks never pins more than a
  // fraction of what eager registration pays for up front.
  report.set_metric("hot_pinned_highwater_frac", hot_hw_frac);
  report.set_metric("eager_reg_s", eager_sample.eager_reg_s);
}

/// Mean round-trip (us) of `iters` tagged message exchanges: rank 0 sends
/// `bytes`, rank 1 answers with an 8-byte ack. The bulk tier engine sits
/// under MpiComm, so the same loop measures eager vs rendezvous delivery.
double mpi_pingpong_us(const BenchContext& ctx, core::ConduitConfig conduit,
                       std::uint32_t iters, std::uint32_t bytes) {
  constexpr std::uint32_t kWarmup = 5;
  std::vector<std::unique_ptr<mpi::MpiComm>> comms;
  double rtt_us = 0;
  (void)run_job(
      two_node_job(ctx, conduit, 1 << 16),
      [&](shmem::ShmemPe& pe) -> sim::Task<> {
        mpi::MpiComm& comm = mpi_comm(comms, pe);
        co_await comm.init();
        std::vector<std::byte> payload(bytes, std::byte{5});
        sim::Time t0{};
        for (std::uint32_t i = 0; i < iters + kWarmup; ++i) {
          if (i == kWarmup) t0 = pe.engine().now();
          if (comm.rank() == 0) {
            co_await comm.send(1, 1, payload);
            (void)co_await comm.recv(1, 2);
          } else {
            (void)co_await comm.recv(0, 1);
            co_await comm.send_value<std::uint64_t>(0, 2, i);
          }
        }
        if (comm.rank() == 0) {
          rtt_us = sim::to_usec(pe.engine().now() - t0) / iters;
        }
        co_await comm.barrier();
      });
  return rtt_us;
}

void bench_ablation_bulkproto(const BenchContext& ctx,
                              telemetry::BenchReport& report) {
  // Ablation A10: where does rendezvous start paying for its RTS/CTS round
  // trip? Eager delivery charges the receiver a bounce-buffer copy
  // (`fabric::kEagerCopyBytesPerNs`), rendezvous replaces it with a fixed
  // control-message overhead plus sink posting — the crossover is the
  // eager threshold the knob table should recommend.
  std::vector<std::uint32_t> sizes =
      ctx.quick
          ? std::vector<std::uint32_t>{1 << 10, 8 << 10, 32 << 10, 128 << 10}
          : std::vector<std::uint32_t>{1 << 10,  4 << 10,   16 << 10,
                                       32 << 10, 64 << 10,  128 << 10,
                                       256 << 10, 512 << 10};
  std::uint32_t iters = ctx.quick ? 50 : 200;
  report.set_config("pes", std::int64_t{2});
  report.set_config("iters", static_cast<std::int64_t>(iters));

  // Both configs enable the tier engine (so the eager copy model applies
  // to both); only the routing threshold differs.
  core::ConduitConfig eager_conduit =
      tiered_design(/*eager=*/0, /*rdv=*/1ULL << 40);
  core::ConduitConfig rdv_conduit = tiered_design(/*eager=*/0, /*rdv=*/512);
  report.set_config("mpi_pingpong_eager_tiers", tier_config(eager_conduit));
  report.set_config("mpi_pingpong_rendezvous_tiers", tier_config(rdv_conduit));

  std::vector<double> xs;
  std::vector<double> eager_us;
  std::vector<double> rdv_us;
  for (std::uint32_t bytes : sizes) {
    double eager = mpi_pingpong_us(ctx, eager_conduit, iters, bytes);
    double rdv = mpi_pingpong_us(ctx, rdv_conduit, iters, bytes);
    xs.push_back(bytes);
    eager_us.push_back(eager);
    rdv_us.push_back(rdv);
    report.add_row("mpi_pingpong", bytes,
                   {{"eager_us", eager},
                    {"rendezvous_us", rdv},
                    {"rdv_advantage_pct", 100.0 * (eager - rdv) / eager}});
  }
  // Crossover: first size where rendezvous wins, linearly interpolated on
  // the latency gap against the previous sample. 0 means no crossover in
  // the swept range.
  double crossover = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (rdv_us[i] > eager_us[i]) continue;
    if (i == 0) {
      crossover = xs[0];
    } else {
      double gap_lo = rdv_us[i - 1] - eager_us[i - 1];
      double gap_hi = rdv_us[i] - eager_us[i];
      crossover = xs[i - 1] + (xs[i] - xs[i - 1]) * gap_lo /
                                  (gap_lo - gap_hi);
    }
    break;
  }
  report.set_metric("crossover_bytes", crossover);

  // Companion sweep at the shmem layer: one-sided put latency per tier at
  // a fixed size, isolating what fragmentation and the RTS/CTS handshake
  // cost relative to the untouched eager RDMA path.
  constexpr std::uint32_t kPutBytes = 64 << 10;
  struct TierPoint {
    const char* label;
    core::ConduitConfig conduit;
  };
  const TierPoint tiers[] = {
      {"eager", core::proposed_design()},
      {"pipelined", tiered_design(/*eager=*/512, /*rdv=*/1ULL << 40,
                                  /*chunk=*/16 << 10)},
      {"rendezvous", tiered_design(/*eager=*/0, /*rdv=*/512,
                                   /*chunk=*/16 << 10)},
  };
  for (std::size_t i = 0; i < std::size(tiers); ++i) {
    report.set_config(std::string("shmem_put_64k_") + tiers[i].label +
                          "_tiers",
                      tier_config(tiers[i].conduit));
    double us =
        ib_latency_us(ctx, tiers[i].conduit, iters, put_op(kPutBytes));
    report.add_row("shmem_put_64k", static_cast<double>(i),
                   {{"latency_us", us}}, tiers[i].label);
  }
}

void bench_ablation_ingredients(const BenchContext& ctx,
                                telemetry::BenchReport& report) {
  // Ablation A1: the proposed design's three changes applied cumulatively
  // to the static baseline — how much of the startup win each one buys.
  std::uint32_t pes = ctx.quick ? 256 : 2048;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{16});
  core::ConduitConfig conduit = core::current_design();
  auto step = [&](double x, const char* label) {
    JobRun run = run_job(seeded_job(ctx, pes, 16, conduit), hello_program);
    report.add_row("steps", x,
                   {{"start_pes_s", mean_phase_s(*run.job, "start_pes_total")},
                    {"hello_s", run.wall_s},
                    {"endpoints", mean_endpoints(*run.job)}},
                   label);
  };
  step(0, "baseline");
  conduit.connection_mode = core::ConnectionMode::kOnDemand;
  step(1, "+ondemand");
  conduit.pmi_mode = core::PmiMode::kNonBlocking;
  step(2, "+iallgather");
  conduit.init_barrier_mode = core::BarrierMode::kIntraNode;
  step(3, "+intranode_barrier");
}

void bench_ablation_overlap(const BenchContext& ctx,
                            telemetry::BenchReport& report) {
  // Ablation A2 (paper §IV-D): compute inserted between start_pes and the
  // first communication hides the PMIX_Iallgather exchange. Hidden means
  // the PMIX_Wait stall drops to zero and wall - work stays constant.
  std::uint32_t pes = ctx.quick ? 256 : 4096;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{16});
  // Strip the trailing bookkeeping from start_pes so the allgather has no
  // free ride: any overlap must come from the inserted work.
  report.set_config("init_misc_ns", std::int64_t{0});
  for (double work_s : {0.0, 0.25, 0.5, 1.0, 2.0}) {
    apps::HelloParams params;
    params.work = static_cast<sim::Time>(work_s * 1e9);
    shmem::ShmemJobConfig config =
        seeded_job(ctx, pes, 16, core::proposed_design());
    config.shmem.init_misc = 0;
    JobRun run = run_job(config, [params](shmem::ShmemPe& pe) -> sim::Task<> {
      co_await apps::hello_pe(pe, params);
    });
    double wait_us = 1e6 * mean_phase_s(*run.job, "pmi_wait");
    report.add_row("overlap", work_s,
                   {{"wall_s", run.wall_s},
                    {"wall_minus_work_s", run.wall_s - work_s},
                    {"pmix_wait_us", wait_us}});
  }
}

void bench_ablation_bulk_model(const BenchContext& ctx,
                               telemetry::BenchReport& report) {
  // Ablation A4: above bulk_connect_threshold the static connector charges
  // the N^2 mesh analytically instead of simulating every handshake
  // (DESIGN.md §2). Sweep sizes where both paths are affordable.
  std::vector<std::uint32_t> pes_list =
      ctx.quick ? std::vector<std::uint32_t>{64, 128, 256}
                : std::vector<std::uint32_t>{64, 128, 256, 512};
  constexpr std::uint32_t kModeled = 8;
  constexpr std::uint32_t kSimulated = 100000;
  set_pes_config(report, pes_list);
  report.set_config("ppn", std::int64_t{16});
  report.set_config("modeled_bulk_connect_threshold", kModeled);
  report.set_config("simulated_bulk_connect_threshold", kSimulated);
  auto start_pes_s = [&](std::uint32_t pes, std::uint32_t threshold) {
    core::ConduitConfig conduit = core::current_design();
    conduit.bulk_connect_threshold = threshold;
    JobRun run = run_job(seeded_job(ctx, pes, 16, conduit), hello_program);
    return mean_phase_s(*run.job, "start_pes_total");
  };
  for (std::uint32_t pes : pes_list) {
    double simulated = start_pes_s(pes, kSimulated);
    double modeled = start_pes_s(pes, kModeled);
    report.add_row("bulk_model", pes,
                   {{"simulated_s", simulated},
                    {"modeled_s", modeled},
                    {"error_pct", 100.0 * (modeled - simulated) / simulated}});
  }
}

/// Mean put latency (us) of a ring exchange with the HCA's QP-context cache
/// modeled. The traffic touches 2 QPs per PE either way; what differs is
/// how many contexts each HCA holds: the static mesh keeps ppn * N resident
/// and thrashes the cache, the on-demand design only what the ring uses.
double ring_put_us(const BenchContext& ctx, std::uint32_t pes,
                   core::ConduitConfig conduit, std::uint32_t cache_qps,
                   sim::Time penalty) {
  shmem::ShmemJobConfig config = seeded_job(ctx, pes, 8, conduit);
  config.job.fabric.hca_cache_qps = cache_qps;
  config.job.fabric.cache_miss_penalty = penalty;
  constexpr std::uint32_t kOps = 200;
  double latency_us = 0;
  (void)run_job(config, [&](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    shmem::SymAddr slot = pe.heap().allocate(8ULL * pes, 8);
    co_await pe.barrier_all();
    shmem::RankId right = (pe.rank() + 1) % pes;
    // Warmup: establish the ring connection.
    co_await pe.put_value<std::uint64_t>(right, slot + 8ULL * pe.rank(), 0);
    co_await pe.barrier_all();
    sim::Time t0 = pe.engine().now();
    for (std::uint32_t op = 0; op < kOps; ++op) {
      co_await pe.put_value<std::uint64_t>(right, slot + 8ULL * pe.rank(),
                                           op);
    }
    if (pe.rank() == 0) {
      latency_us = sim::to_usec(pe.engine().now() - t0) / kOps;
    }
    co_await pe.finalize();
  });
  return latency_us;
}

void bench_ablation_hca_cache(const BenchContext& ctx,
                              telemetry::BenchReport& report) {
  // Ablation A5 (paper §I, motivation 3): a fully connected mesh blows the
  // on-HCA QP-context cache, so every operation pays a context fetch even
  // for a neighbor-only working set. The penalty is off by default.
  std::uint32_t pes = ctx.quick ? 128 : 512;
  constexpr std::uint32_t kCacheQps = 256;
  report.set_config("pes", static_cast<std::int64_t>(pes));
  report.set_config("ppn", std::int64_t{8});
  report.set_config("hca_cache_qps", kCacheQps);
  for (sim::Time penalty : {sim::Time(0), 200 * sim::nsec, 400 * sim::nsec,
                            800 * sim::nsec}) {
    double stat =
        ring_put_us(ctx, pes, core::current_design(), kCacheQps, penalty);
    double dyn =
        ring_put_us(ctx, pes, core::proposed_design(), kCacheQps, penalty);
    report.add_row("ring_put", static_cast<double>(penalty),
                   {{"static_us", stat},
                    {"ondemand_us", dyn},
                    {"overhead_pct", 100.0 * (stat - dyn) / dyn}});
  }
}

void bench_ablation_eviction(const BenchContext& ctx,
                             telemetry::BenchReport& report) {
  // Ablation A6 (adaptive connection management, Yu et al. IPDPS'06): an
  // LRU cap on live connections trades endpoint memory for re-handshake
  // churn. Every PE puts to a 12-peer working set for three rounds; x is
  // the cap, 0 = unlimited (the paper's on-demand design).
  constexpr std::uint32_t kPes = 64;
  constexpr std::uint32_t kWorkingSet = 12;
  report.set_config("pes", std::int64_t{kPes});
  report.set_config("ppn", std::int64_t{8});
  report.set_config("working_set", kWorkingSet);
  report.set_config("rounds", std::int64_t{3});
  for (std::uint32_t cap : {0u, 16u, 8u, 4u, 2u}) {
    shmem::ShmemJobConfig config =
        seeded_job(ctx, kPes, 8, core::proposed_design());
    config.job.conduit.max_active_connections = cap;
    JobRun run = run_job(config, [](shmem::ShmemPe& pe) -> sim::Task<> {
      co_await pe.start_pes();
      shmem::SymAddr slot = pe.heap().allocate(8ULL * kPes, 8);
      co_await pe.barrier_all();
      for (std::uint64_t round = 0; round < 3; ++round) {
        for (std::uint32_t k = 1; k <= kWorkingSet; ++k) {
          auto peer = static_cast<shmem::RankId>((pe.rank() + k * 5) % kPes);
          if (peer == pe.rank()) continue;
          co_await pe.put_value<std::uint64_t>(peer, slot + 8ULL * pe.rank(),
                                               round);
        }
      }
      co_await pe.finalize();
    });
    double live = 0;
    for (std::uint32_t r = 0; r < kPes; ++r) {
      live += static_cast<double>(
          run.job->conduit_job().conduit(r).connected_peer_count());
    }
    report.add_row("cap", cap,
                   {{"wall_s", run.wall_s},
                    {"live_conns", live / kPes},
                    {"qps_made", mean_counter(*run.job, "qp_created_rc")},
                    {"evictions", mean_counter(*run.job, "conn_evictions")}});
  }
}

void bench_ablation_bootstrap(const BenchContext& ctx,
                              telemetry::BenchReport& report) {
  // Ablation A7: out-of-band bootstrap for the on-demand design — blocking
  // Put/Fence/Get (PMI2), PMIX_Iallgather (the paper's proposal), and
  // PMIX_Ring + InfiniBand dissemination. Every PE's first put goes to a
  // far peer, where the non-blocking bootstraps pay their deferred wait.
  std::vector<std::uint32_t> pes_list =
      ctx.quick ? std::vector<std::uint32_t>{128, 256}
                : std::vector<std::uint32_t>{1024, 4096};
  set_pes_config(report, pes_list);
  report.set_config("ppn", std::int64_t{16});
  const std::pair<const char*, core::PmiMode> modes[] = {
      {"blocking", core::PmiMode::kBlocking},
      {"iallgather", core::PmiMode::kNonBlocking},
      {"ring", core::PmiMode::kRing},
  };
  for (std::uint32_t pes : pes_list) {
    for (const auto& [name, mode] : modes) {
      core::ConduitConfig conduit = core::proposed_design();
      conduit.pmi_mode = mode;
      JobRun run = run_job(seeded_job(ctx, pes, 16, conduit),
                           [pes](shmem::ShmemPe& pe) -> sim::Task<> {
                             co_await pe.start_pes();
                             shmem::SymAddr slot = pe.heap().allocate(8);
                             shmem::RankId far = (pe.rank() + pes / 2) % pes;
                             co_await pe.put_value<std::uint64_t>(far, slot,
                                                                  pe.rank());
                             co_await pe.finalize();
                           });
      shmem::ShmemJob& job = *run.job;
      report.add_row(
          "bootstrap", pes,
          {{"start_pes_s", mean_phase_s(job, "start_pes_total")},
           {"exchange_wait_ms", 1e3 * (mean_phase_s(job, "pmi_wait") +
                                       mean_phase_s(job, "pmi_exchange"))},
           {"oob_kib",
            static_cast<double>(job.conduit_job().pmi().oob_bytes_moved()) /
                1024.0}},
          name);
    }
  }
}

const std::vector<BenchDef>& registry() {
  static const std::vector<BenchDef> benches = {
      {"fig1_startup_breakdown",
       "start_pes breakdown, static design (paper Fig 1)", bench_fig1},
      {"fig5_startup",
       "start_pes + Hello World, current vs proposed (paper Fig 5)",
       bench_fig5},
      {"fig6_pt2pt", "pt2pt and atomic latency, 2 PEs (paper Fig 6)",
       bench_fig6},
      {"fig7_collectives", "fcollect/reduce/barrier latency (paper Fig 7)",
       bench_fig7},
      {"fig8a_nas", "NAS kernel wall time, static vs on-demand (paper Fig 8a)",
       bench_fig8a},
      {"fig8b_graph500", "hybrid MPI+OpenSHMEM Graph500 (paper Fig 8b)",
       bench_fig8b},
      {"fig9_resources", "endpoints per process + projection (paper Fig 9)",
       bench_fig9},
      {"table1_peer_counts", "communicating peers per process (paper Table I)",
       bench_table1},
      {"ablation_ingredients",
       "startup ingredients applied cumulatively (ablation A1)",
       bench_ablation_ingredients},
      {"ablation_overlap",
       "PMI exchange hidden beneath computation (ablation A2)",
       bench_ablation_overlap},
      {"ablation_ud_loss", "handshake robustness under UD loss (ablation A3)",
       bench_ud_loss},
      {"ablation_bulk_model",
       "bulk static-connect model vs simulated handshakes (ablation A4)",
       bench_ablation_bulk_model},
      {"ablation_hca_cache",
       "HCA QP-context cache pressure, static vs on-demand (ablation A5)",
       bench_ablation_hca_cache},
      {"ablation_eviction",
       "LRU connection cap: endpoints vs re-handshake churn (ablation A6)",
       bench_ablation_eviction},
      {"ablation_bootstrap",
       "blocking vs Iallgather vs ring bootstrap (ablation A7)",
       bench_ablation_bootstrap},
      {"ablation_intranode",
       "intra-node shm transport: latency + RC QP savings at PPN > 1",
       bench_ablation_intranode},
      {"ablation_registration",
       "on-demand registration: chunk size x pin cap x locality (A9)",
       bench_ablation_registration},
      {"ablation_bulkproto",
       "large-message tiers: eager vs rendezvous crossover (A10)",
       bench_ablation_bulkproto},
      {"connect_storm",
       "connection-manager hot path under a small cap (host + sim cost)",
       bench_connect_storm},
      {"hello_trace",
       "16-PE on-demand hello-world with Chrome trace + full telemetry",
       bench_hello_trace},
  };
  return benches;
}

void usage() {
  std::cout << "usage: run_all [options]\n"
               "  --quick         CI-sized parameters (default)\n"
               "  --full          paper-scale parameters\n"
               "  --out DIR       output directory (default .)\n"
               "  --bench NAME    run one bench (repeatable; default all)\n"
               "  --seed N        fabric RNG seed (default 1)\n"
               "  --list          list registered benches\n";
}

}  // namespace

int main(int argc, char** argv) {
  BenchContext ctx;
  std::vector<std::string> selected;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "run_all: missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      ctx.quick = true;
    } else if (arg == "--full") {
      ctx.quick = false;
    } else if (arg == "--out") {
      ctx.out_dir = next();
    } else if (arg == "--bench") {
      selected.emplace_back(next());
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "run_all: unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (list) {
    for (const BenchDef& bench : registry()) {
      std::printf("%-22s %s\n", bench.name, bench.description);
    }
    return 0;
  }

  for (const std::string& name : selected) {
    bool known = false;
    for (const BenchDef& bench : registry()) known |= name == bench.name;
    if (!known) {
      std::cerr << "run_all: unknown bench " << name
                << " (see --list)\n";
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(ctx.out_dir, ec);
  if (ec) {
    std::cerr << "run_all: cannot create " << ctx.out_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  int ran = 0;
  for (const BenchDef& bench : registry()) {
    if (!selected.empty() &&
        std::find(selected.begin(), selected.end(), bench.name) ==
            selected.end()) {
      continue;
    }
    std::cout << "running " << bench.name << " ("
              << (ctx.quick ? "quick" : "full") << ")...\n";
    telemetry::BenchReport report(bench.name, ctx.seed);
    report.set_config("mode", ctx.quick ? "quick" : "full");
    bench.fn(ctx, report);
    std::filesystem::path path =
        std::filesystem::path(ctx.out_dir) /
        ("BENCH_" + std::string(bench.name) + ".json");
    std::ofstream out(path);
    report.write(out);
    if (!out) {
      std::cerr << "run_all: failed to write " << path.string() << "\n";
      return 1;
    }
    std::cout << "  wrote " << path.string() << "\n\n";
    report.write_table(std::cout);
    ++ran;
  }
  std::cout << "run_all: " << ran << " benches done\n";
  return 0;
}
