// Process Management Interface (PMI) with the paper's non-blocking
// extensions.
//
// Models the out-of-band startup channel every HPC launcher provides
// (SLURM/Hydra/mpirun_rsh): one daemon per node, connected in a k-ary tree
// over a TCP-like management network, exposing a global key-value store to
// the processes of the job.
//
// Blocking API (PMI2):          put / get / fence
// Non-blocking extension:       iallgather_start + iallgather_wait
//                               (PMIX_Iallgather + PMIX_Wait, §III-E)
//
// Correctness is real (values actually move through a shared store with
// fence-visibility semantics); timing comes from the calibrated constants
// below: per-call client↔daemon IPC overheads, per-node daemon
// serialization, and tree-structured data movement for collective rounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics_sink.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::pmi {

using RankId = std::uint32_t;
using NodeId = std::uint32_t;

// ---- client <-> local daemon (shared memory / localhost socket) ----
inline constexpr sim::Time kPutOverhead = 5 * sim::usec;
inline constexpr sim::Time kGetOverhead = 26 * sim::usec;
inline constexpr double kIpcBytesPerNs = 8.0;

// ---- daemon <-> daemon (management Ethernet, TCP) ----
inline constexpr sim::Time kOobLatency = 200 * sim::usec;
/// ~10 GbE.
inline constexpr double kOobBytesPerNs = 1.25;

/// Per-entry KVS processing during a fence (hashing, marshalling).
inline constexpr sim::Time kFencePerEntry = 2 * sim::usec;
/// Per-entry processing cost of the symmetric allgather as the daemons
/// progress it in the background over TCP. Cheaper than the generic
/// Put-Fence-Get sequence per *consumer* (one bulk delivery instead of N
/// gets), but the background dissemination itself still takes real time —
/// which is exactly what PMIX_Iallgather lets the application hide
/// (paper §IV-D).
inline constexpr sim::Time kAllgatherPerEntry = 50 * sim::usec;

/// Fan-out of the daemon tree (SLURM uses a configurable tree; 8 is a
/// common default at scale).
inline constexpr std::uint32_t kDaemonTreeFanout = 8;

class PmiClient;

/// A gather round's values, indexed by rank: one immutable table every
/// rank of the job shares (like an MPI-3 node-shared window).
using SharedTable = std::shared_ptr<const std::vector<std::string>>;

/// Ticket identifying an outstanding non-blocking collective round.
struct CollectiveTicket {
  std::uint32_t round = 0;
};

/// The job-wide process manager: daemons, tree, and key-value store.
class JobManager {
 public:
  JobManager(sim::Engine& engine, std::uint32_t ranks,
             std::uint32_t ranks_per_node);
  ~JobManager();
  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return ranks_; }
  [[nodiscard]] std::uint32_t nodes() const noexcept { return nodes_; }
  [[nodiscard]] NodeId node_of(RankId rank) const;

  /// The PMI client endpoint for one process of the job.
  [[nodiscard]] PmiClient& client(RankId rank);

  // ---- diagnostics ----
  [[nodiscard]] std::uint32_t fences_completed() const noexcept {
    return fences_completed_;
  }
  [[nodiscard]] std::uint64_t oob_bytes_moved() const noexcept {
    return oob_bytes_moved_;
  }

  /// Install (or clear) a live metrics sink; every PMI call then reports
  /// `pmi/...` counters and out-of-band exchange span durations to it. The
  /// accounting is observation-only — it never touches the cost model — so
  /// virtual time is identical with and without a sink.
  void set_metrics_sink(sim::MetricsSink* sink) noexcept { metrics_ = sink; }
  [[nodiscard]] sim::MetricsSink* metrics_sink() const noexcept {
    return metrics_;
  }

 private:
  friend class PmiClient;

  /// One collective round. Gather rounds (iallgather, ring) collect one
  /// value per rank; their last arrival freezes the values into `table`,
  /// the one immutable copy every client of the round shares.
  struct Round {
    explicit Round(sim::Engine& engine) : gate(engine) {}
    sim::Gate gate;
    std::uint32_t arrived = 0;
    std::vector<std::string> values{};  // indexed by rank until frozen
    SharedTable table{};
    std::uint64_t bytes = 0;  // total size of `table`'s values
  };
  enum Collective : std::uint8_t { kFence, kAllgather, kRing };

  /// Depth of the k-ary daemon tree.
  [[nodiscard]] std::uint32_t tree_depth() const;

  /// Serialize a client request on its node daemon; returns completion time.
  sim::Time reserve_daemon(NodeId node, sim::Time busy);

  /// Cost of disseminating `bytes` across the daemon tree and processing
  /// `entries` KVS entries (fence path).
  [[nodiscard]] sim::Time fence_cost(std::uint64_t bytes,
                                     std::uint64_t entries) const;
  /// Cost of the optimized symmetric allgather of `bytes` total.
  [[nodiscard]] sim::Time allgather_cost(std::uint64_t bytes,
                                         std::uint64_t entries) const;

  Round& round_at(Collective kind, std::uint32_t index);
  /// Count one arrival at `round`; true for the last rank of the job.
  bool arrive(Collective kind, Round& round);

  void arrive_fence(std::uint32_t index);
  /// Contribute `rank`'s value to gather round `index` (iallgather or ring).
  void arrive_gather(Collective kind, std::uint32_t index, RankId rank,
                     std::string value);

  sim::Engine& engine_;
  std::uint32_t ranks_;
  std::uint32_t ranks_per_node_;
  std::uint32_t nodes_;
  std::vector<std::unique_ptr<PmiClient>> clients_{};
  std::vector<sim::Time> daemon_free_{};

  // Key-value store: staged puts become visible at the next fence.
  std::map<std::string, std::string> visible_{};
  std::map<std::string, std::string> staged_{};
  std::uint64_t staged_bytes_ = 0;

  std::vector<std::unique_ptr<Round>> rounds_[3]{};  // indexed by Collective
  std::uint32_t fences_completed_ = 0;
  std::uint64_t oob_bytes_moved_ = 0;
  sim::MetricsSink* metrics_ = nullptr;
};

/// Per-process PMI endpoint.
class PmiClient {
 public:
  PmiClient(JobManager& manager, RankId rank);
  PmiClient(const PmiClient&) = delete;
  PmiClient& operator=(const PmiClient&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return rank_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// PMI2_KVS_Put: stage a key-value pair; visible to others after the next
  /// fence. Duplicate keys overwrite (last fence-epoch wins).
  [[nodiscard]] sim::Task<> put(std::string key, std::string value);

  /// PMI2_KVS_Get: look up a key made visible by a completed fence.
  /// Returns nullopt for unknown keys. Serialized on the node daemon.
  [[nodiscard]] sim::Task<std::optional<std::string>> get(std::string key);

  /// PMI2_KVS_Fence: blocking collective across all ranks.
  [[nodiscard]] sim::Task<> fence();

  /// Charge the node daemon for `count` gets of `value_bytes` each without
  /// executing them. Used by the bulk static-connect model to reproduce the
  /// per-daemon get storm cost in one reservation (DESIGN.md §2).
  [[nodiscard]] sim::Task<> charge_gets(std::uint64_t count,
                                        std::uint64_t value_bytes);

  /// PMIX_Iallgather: contribute `value` to a symmetric all-gather that the
  /// process manager progresses in the background (combines Put-Fence-Get,
  /// §III-E). Returns immediately with a ticket.
  [[nodiscard]] CollectiveTicket iallgather_start(std::string value);

  /// PMIX_Wait for an iallgather: returns all ranks' values as the round's
  /// one shared table. Delivery of the result buffer is charged against
  /// the node daemon (bulk IPC), which is why it is far cheaper than N
  /// gets.
  [[nodiscard]] sim::Task<SharedTable> iallgather_wait(
      CollectiveTicket ticket);

  /// PMIX_Ring (Chakraborty et al., EuroMPI'14 — the authors' prior
  /// extension, paper ref. [16]): collective that hands each rank only its
  /// ring neighbors' values — constant data movement per rank regardless
  /// of job size. Returns the round's one immutable table, like
  /// `iallgather_wait`; a rank is charged for, and may read, only its
  /// neighbors' entries left = rank-1 and right = rank+1 (wrapping).
  [[nodiscard]] sim::Task<SharedTable> ring(std::string value);

 private:
  /// Serialize `busy` on this client's node daemon and wait it out.
  [[nodiscard]] sim::Task<> on_daemon(sim::Time busy);

  JobManager& manager_;
  RankId rank_;
  NodeId node_;
  std::uint32_t next_fence_ = 0;
  std::uint32_t next_allgather_ = 0;
  std::uint32_t next_ring_ = 0;
};

}  // namespace odcm::pmi
