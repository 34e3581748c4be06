// Shared types of the repository benchmark: the calls it times, the spans it
// records, the per-job result, and the host clocks.
//
// The benchmark drives the simulator only through its public APIs
// (`shmem::ShmemJob`/`ShmemPe`, `mpi::MpiComm`, `core::Conduit`,
// `sim::Engine`, `fabric::Fabric`, `telemetry::Telemetry`). Two clocks are
// kept strictly apart: *host* time (how fast the simulator runs, noisy) and
// *virtual* time (the simulated system's result, deterministic per seed).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fabric/types.hpp"
#include "sim/time.hpp"

namespace perfbench {

using odcm::fabric::RankId;
using odcm::sim::Time;

/// Every kind of call the benchmark makes into `shmem` or `mpi`.
enum class Op : std::uint8_t {
  kStartPes,
  kPut,
  kGet,
  kAmo,
  kFcollect,
  kReduce,
  kBarrier,
  kAllreduce,
  kFinalize,
};
inline constexpr std::size_t kOpKinds = 9;

[[nodiscard]] const char* op_name(Op op);
/// "shmem" or "mpi": the layer the call enters.
[[nodiscard]] const char* op_layer(Op op);

/// One timed interval in virtual time. Op spans are the benchmark's own
/// calls; child spans (handshake, eviction drain, registration fault,
/// RTS/CTS, credit stall) are derived from the conduit's event stream.
struct Span {
  const char* layer;
  const char* op;
  RankId pe;
  RankId peer;
  std::uint64_t op_id;
  Time start;
  Time end;
};

// ---- host clocks ----

/// Process CPU seconds (the simulator is single-threaded, so this tracks
/// wall time without the noise of being descheduled).
[[nodiscard]] double cpu_seconds();
[[nodiscard]] double wall_seconds();
/// Peak resident set of the process so far, in KiB.
[[nodiscard]] long peak_rss_kb();

/// Nearest-rank percentile of sorted samples; `p` in (0, 100].
template <typename T>
[[nodiscard]] T percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}
/// The highest percentile of the ladder 99.99/99.9/99/95/90/75/50 that
/// leaves at least ten samples beyond it (50 when none does).
[[nodiscard]] double tail_percentile(std::size_t n);

/// Everything one job produced. Host fields vary run to run; every other
/// field is a pure function of the workload and its seed.
struct JobResult {
  // ---- host clock ----
  double setup_s = 0;  ///< Job construction → last PE out of start_pes.
  /// Pooled calls per CPU second in each steady-phase segment.
  std::vector<double> segment_rates;
  double total_cpu_s = 0;
  double wall_s = 0;

  // ---- virtual clock and exact counts ----
  std::uint64_t steady_ops = 0;  ///< Measured calls in the steady phase.
  std::uint64_t events = 0;
  std::uint64_t steady_events = 0;
  std::uint32_t pes = 0;
  std::vector<Time> start_pes;  ///< Per PE, its own start_pes call.
  /// Per kind, latency of every measured call from issue to return
  /// (warm-up calls excluded).
  std::array<std::vector<Time>, kOpKinds> latency{};
  std::vector<Op> pooled_ops;  ///< Kinds pooled into op_p50/op_tail.
  /// Latency of every measured call of a pooled kind, and per PE the sum
  /// and number of those calls.
  std::vector<Time> pooled;
  std::vector<Time> pe_pooled_ns;
  std::vector<std::uint32_t> pe_pooled_calls;
  Time makespan = 0;
  double endpoints_per_pe = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure descriptions.
  /// Per-layer values computed from the per-PE stat sets and the
  /// benchmark's own snapshots; identical with and without tracing.
  std::map<std::string, double> layer;

  // ---- traced jobs only ----
  std::vector<Span> spans;
  /// Per-layer values computed from the telemetry session and the spans.
  std::map<std::string, double> traced_layer;
};

/// Every configuration setting the named workload makes, as `name=value`
/// strings; every other knob keeps its default. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::vector<std::string> workload_knobs(const std::string& name);

/// How many independent instances (op streams) one run of the named
/// workload simulates. Its virtual metrics are the median over them, which
/// steadies the tails of the workloads whose tails come from rare storms.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::uint32_t workload_instances(const std::string& name);

/// The input seed of instance `instance` of a run with seed `seed`
/// (instance 0 uses `seed` itself).
[[nodiscard]] inline std::uint64_t instance_seed(std::uint64_t seed,
                                                 std::uint32_t instance) {
  return seed + instance * 0x9e3779b97f4a7c15ULL;
}

/// Runs one job of the named workload with inputs drawn from `seed`. A
/// traced job attaches `telemetry::Telemetry` and records spans; its
/// virtual results must equal the untraced job's bit for bit. A
/// `setup_only` job skips the workload program (start_pes, then finalize)
/// and fills only the host and start_pes fields.
[[nodiscard]] JobResult run_job(const std::string& workload,
                                std::uint64_t seed, bool traced,
                                bool setup_only = false);

/// Fills `result.traced_layer` from the telemetry-derived spans (called by
/// run_job on traced jobs).
void derive_traced_layers(JobResult& result);

/// Writes the spans as Chrome Trace Event JSON (one track per PE).
void write_chrome_trace(const std::string& path, const JobResult& result);

/// Host nanoseconds per call of each layer probe, keyed by metric name
/// (`sim.probe_resume_ns`, ...). Each probe drives one layer's public API
/// alone at a fixed call count; the median of `reps` repetitions is kept.
[[nodiscard]] std::map<std::string, double> run_probes(int reps);

}  // namespace perfbench
