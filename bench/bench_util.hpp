// Job helpers for the figure/table/ablation benches registered in run_all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "shmem/job.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace odcm::bench {

/// Job configuration mirroring the paper's clusters: `ppn` fully-subscribed
/// PEs per node, production-sized (modeled) symmetric heaps backed by a
/// small amount of real memory.
inline shmem::ShmemJobConfig paper_job(std::uint32_t ranks, std::uint32_t ppn,
                                       core::ConduitConfig conduit) {
  shmem::ShmemJobConfig config;
  config.job.ranks = ranks;
  config.job.ranks_per_node = ppn;
  config.job.conduit = conduit;
  config.shmem.heap_bytes = 64 << 10;
  config.shmem.modeled_heap_bytes = 256ULL << 20;
  return config;
}

/// Same but with enough real heap for data-heavy kernels.
inline shmem::ShmemJobConfig paper_job_heap(std::uint32_t ranks,
                                            std::uint32_t ppn,
                                            core::ConduitConfig conduit,
                                            std::uint64_t heap_bytes) {
  shmem::ShmemJobConfig config = paper_job(ranks, ppn, conduit);
  config.shmem.heap_bytes = heap_bytes;
  return config;
}

/// Mean of a per-PE recorded phase time, in seconds.
inline double mean_phase_s(shmem::ShmemJob& job, const std::string& phase) {
  double total = 0;
  for (std::uint32_t r = 0; r < job.n_pes(); ++r) {
    total += sim::to_seconds(job.pe(r).stats().phase_time(phase));
  }
  return total / job.n_pes();
}

/// Mean of a per-PE counter.
inline double mean_counter(shmem::ShmemJob& job, const std::string& name) {
  double total = 0;
  for (std::uint32_t r = 0; r < job.n_pes(); ++r) {
    total += static_cast<double>(job.pe(r).stats().counter(name));
  }
  return total / job.n_pes();
}

inline double mean_endpoints(shmem::ShmemJob& job) {
  double total = 0;
  for (std::uint32_t r = 0; r < job.n_pes(); ++r) {
    total += static_cast<double>(job.pe(r).endpoints_created());
  }
  return total / job.n_pes();
}

inline double mean_peers(shmem::ShmemJob& job) {
  double total = 0;
  for (std::uint32_t r = 0; r < job.n_pes(); ++r) {
    total += static_cast<double>(job.pe(r).communicating_peers());
  }
  return total / job.n_pes();
}

/// A finished job together with the engine it ran on, kept for stat
/// queries after the run.
struct JobRun {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<shmem::ShmemJob> job;
  double wall_s = 0;  ///< makespan, virtual seconds
};

/// Run `program` on a fresh job: the one place a run_all bench builds an
/// engine and a `ShmemJob` (DESIGN.md §7). A given `telemetry` session
/// observes the run: it is attached before, then finished and detached
/// after, so it may outlive the job.
inline JobRun run_job(shmem::ShmemJobConfig config,
                      std::function<sim::Task<>(shmem::ShmemPe&)> program,
                      telemetry::Telemetry* telemetry = nullptr) {
  JobRun run;
  run.engine = std::make_unique<sim::Engine>();
  run.job = std::make_unique<shmem::ShmemJob>(*run.engine, config);
  if (telemetry != nullptr) telemetry->attach(run.job->conduit_job());
  run.wall_s = sim::to_seconds(run.job->run(std::move(program)));
  if (telemetry != nullptr) {
    telemetry->finish(run.engine->now());
    telemetry->detach();
  }
  return run;
}

}  // namespace odcm::bench
