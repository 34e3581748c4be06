// MPI-lite: two-sided message passing and collectives over the SAME conduit
// the OpenSHMEM layer uses.
//
// This reproduces the unified-runtime property of MVAPICH2-X (paper §III-D):
// a hybrid MPI+OpenSHMEM application drives one connection table, one set of
// QPs and one progress engine, so on-demand connections are shared between
// the two programming models and no duplicated endpoints exist.
//
// Supported surface (what the hybrid Graph500 and the benches need):
//   send / recv, isend / irecv / wait / waitall, sendrecv (exact (source,
//     tag) matching)
//   barrier, bcast, reduce, allreduce, allgather, gather, scatter
//   wtime
// A peer or root outside [0, size()) throws std::out_of_range before any
// traffic.
//
// Matching (DESIGN.md §5.16): a sim::MatchTable keyed by (source, tag)
// hands an arriving message to the oldest receive posted for its key, or
// keeps it for the next receive. Receives thus match at arrival in posting
// order, and sends to one destination hit the wire in posting order (MPI's
// non-overtaking rule). With tiering on, a message becomes visible to its
// receive after its bounce copy and after every earlier one from its source.
//
// Deviations from MPI proper, by design: no wildcard source/tag, no
// communicator splitting.
//
// Large messages tier like a real MPI (DESIGN.md §5.17): payloads at or
// below `rendezvous_threshold` use the eager path (one AM, bounce-buffer
// copy charged at the receiver when tiering is on); larger ones ride the
// conduit's one rendezvous (`Conduit::am_send_rendezvous`): an RTS names
// MPI's delivery handler, the receiver's conduit grants a registered
// landing buffer in the CTS, the payload streams there as RDMA writes
// under the per-QP credit window, and a FIN delivers the landed bytes —
// with no bounce copy — to the match table like an eager message. Zero-byte
// sends are always eager: they must still match a receive but may not
// trigger connections, registration faults, or credits beyond what one
// small AM costs. With the tiering knobs at their zero defaults every
// message is eager and the wire traffic is bit-identical to the
// pre-tiering implementation.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/conduit.hpp"
#include "core/tree.hpp"
#include "shmem/types.hpp"
#include "sim/sync.hpp"

namespace odcm::mpi {

using RankId = fabric::RankId;
using ReduceOp = shmem::ReduceOp;

/// AM handler ids used by the MPI layer (distinct from the SHMEM ids, which
/// share the conduit in hybrid jobs; mpi.cpp asserts it): eager messages,
/// and messages delivered by the conduit's rendezvous.
inline constexpr std::uint16_t kMpiHandler = core::kFirstUserHandler + 2;
inline constexpr std::uint16_t kMpiRdvHandler = core::kFirstUserHandler + 5;

class MpiComm {
  /// A message matched to a receive, and the virtual time its bytes become
  /// visible to that receive.
  struct Arrival {
    std::vector<std::byte> data{};
    sim::Time visible_at = 0;
  };
  using Matches = sim::MatchTable<std::pair<RankId, std::uint64_t>, Arrival>;

 public:
  /// Construct over an existing conduit. Must be constructed on every rank
  /// before any rank communicates through it.
  explicit MpiComm(core::Conduit& conduit);
  MpiComm(const MpiComm&) = delete;
  MpiComm& operator=(const MpiComm&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return conduit_.rank(); }
  [[nodiscard]] std::uint32_t size() const noexcept { return conduit_.size(); }
  [[nodiscard]] core::Conduit& conduit() noexcept { return conduit_; }

  /// Initialize the underlying conduit if the program runs pure MPI
  /// (hybrid programs initialize through shmem's start_pes instead).
  [[nodiscard]] sim::Task<> init();

  /// Wall-clock in simulated seconds (MPI_Wtime).
  [[nodiscard]] double wtime();

  // ---- point-to-point ----

  [[nodiscard]] sim::Task<> send(RankId dst, std::uint32_t tag,
                                 std::span<const std::byte> data);
  [[nodiscard]] sim::Task<std::vector<std::byte>> recv(RankId src,
                                                       std::uint32_t tag);

  /// Non-blocking request handle (MPI_Request). Obtained from isend/irecv;
  /// completed by wait(). Copyable (shared state).
  class Request {
   public:
    [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

   private:
    friend class MpiComm;
    /// A receive's posted match; a send opens `done` when it completes.
    using State = Matches::Receive;
    std::shared_ptr<State> state_{};
  };

  /// MPI_Isend: starts the send and returns immediately.
  [[nodiscard]] Request isend(RankId dst, std::uint32_t tag,
                              std::span<const std::byte> data);
  /// MPI_Irecv: posts the receive and returns immediately.
  [[nodiscard]] Request irecv(RankId src, std::uint32_t tag);
  /// MPI_Wait: blocks until the request completes; for receives, returns
  /// the message payload (empty for sends).
  [[nodiscard]] sim::Task<std::vector<std::byte>> wait(Request request);
  /// MPI_Waitall.
  [[nodiscard]] sim::Task<> waitall(std::vector<Request> requests);

  template <typename T>
  [[nodiscard]] sim::Task<> send_value(RankId dst, std::uint32_t tag,
                                       T value) {
    std::vector<std::byte> bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    co_await send(dst, tag, bytes);
  }
  template <typename T>
  [[nodiscard]] sim::Task<T> recv_value(RankId src, std::uint32_t tag) {
    std::vector<std::byte> bytes = co_await recv(src, tag);
    if (bytes.size() != sizeof(T)) {
      throw std::runtime_error("MpiComm::recv_value: size mismatch");
    }
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    co_return value;
  }

  // ---- collectives over send/recv ----
  // bcast and reduce run on the one collective tree (core/tree.hpp) that
  // the conduit barrier and OpenSHMEM share, and reduce folds with
  // OpenSHMEM's combine_span; allgather is a ring matched per (left, tag).

  [[nodiscard]] sim::Task<> barrier();
  /// In-place broadcast of `data` from root; on non-roots `data` is
  /// overwritten with the root's content (sizes must match).
  [[nodiscard]] sim::Task<> bcast(RankId root, std::span<std::byte> data);
  /// Element-wise reduction of `count` T's to root; result valid on root.
  template <typename T>
  [[nodiscard]] sim::Task<> reduce(RankId root, std::span<T> data,
                                   ReduceOp op);
  template <typename T>
  [[nodiscard]] sim::Task<> allreduce(std::span<T> data, ReduceOp op) {
    co_await reduce<T>(0, data, op);
    co_await bcast(0, std::as_writable_bytes(data));
  }
  /// Gather every rank's `block` (same size everywhere) into `out`
  /// (size() * block.size() bytes) on every rank.
  [[nodiscard]] sim::Task<> allgather(std::span<const std::byte> block,
                                      std::span<std::byte> out);

  /// Gather every rank's `block` to `out` on `root` only (`out` may be
  /// empty on non-roots).
  [[nodiscard]] sim::Task<> gather(RankId root,
                                   std::span<const std::byte> block,
                                   std::span<std::byte> out);

  /// Scatter `in` (size() * block bytes, significant on root) so rank i
  /// receives block i in `out`.
  [[nodiscard]] sim::Task<> scatter(RankId root, std::span<const std::byte> in,
                                    std::span<std::byte> out);

  /// Combined send+recv with the same peer (MPI_Sendrecv): posts the send,
  /// then waits for the matching receive.
  [[nodiscard]] sim::Task<std::vector<std::byte>> sendrecv(
      RankId peer, std::uint32_t tag, std::span<const std::byte> data);

  /// Live (src, tag) keys of the match table. Drained keys are erased, so
  /// a job that cycles through tags (per-iteration tags, collective
  /// sequence tags) holds O(in-flight) keys. A quiesced communicator
  /// reports 0.
  [[nodiscard]] std::size_t matchbox_count() const noexcept {
    return matches_.size();
  }

 private:
  /// Wire tags: user tags are offset so collective traffic cannot collide.
  static constexpr std::uint64_t kUserTagSpace = 1ULL << 32;

  /// Throw std::out_of_range unless `peer` names a rank of this job.
  void check_rank(RankId peer, const char* what) const;
  sim::Task<std::vector<std::byte>> wait_impl(Request request);
  /// Match one arriving message; `bounce_copy` charges the eager receive
  /// copy (rendezvous deliveries landed by RDMA write).
  sim::Task<> handle_message(RankId src, std::vector<std::byte> payload,
                             bool bounce_copy);
  /// Post a receive for (src, tag) to the match table.
  Request post(RankId src, std::uint64_t tag);
  /// Count the table entry a deliver or post created or erased.
  void count_matchboxes(std::size_t live_before);
  sim::Task<> send_tagged(RankId dst, std::uint64_t tag,
                          std::span<const std::byte> data);
  sim::Task<std::vector<std::byte>> recv_tagged(RankId src,
                                                std::uint64_t tag);

  core::Conduit& conduit_;
  Matches matches_;
  /// Tail of the per-destination send chain: each isend awaits the previous
  /// request to the same destination before hitting the wire, so posting
  /// order equals wire order (MPI's non-overtaking rule) under every event
  /// tie-break policy — without it, two back-to-back isends race their
  /// detached sender tasks and a perturbed schedule can swap them.
  std::map<RankId, std::shared_ptr<Request::State>> send_tail_{};
  /// With tiering on: the latest visibility time of a message from each
  /// source. A later message from that source is never visible earlier,
  /// even on another tag or with a shorter bounce copy (non-overtaking).
  /// One entry per source that sent while tiering was on.
  std::map<RankId, sim::Time> visible_{};
  std::uint64_t coll_seq_ = 0;
};

template <typename T>
sim::Task<> MpiComm::reduce(RankId root, std::span<T> data, ReduceOp op) {
  check_rank(root, "reduce");
  const std::uint32_t n = size();
  if (n == 1) co_return;
  const std::uint64_t tag = kUserTagSpace + coll_seq_++;
  // Fold the children's partials in child order, then report up.
  const core::KaryTree tree(n, rank(), root);
  for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
    std::vector<std::byte> partial = co_await recv_tagged(tree.child(c), tag);
    if (partial.size() != data.size_bytes()) {
      throw std::runtime_error("MpiComm::reduce: size mismatch");
    }
    shmem::combine_span<T>(std::as_writable_bytes(data), partial, op);
  }
  if (!tree.is_root()) {
    co_await send_tagged(tree.parent(), tag, std::as_bytes(data));
  }
}

}  // namespace odcm::mpi
