// Simulated InfiniBand fabric: HCAs, queue pairs, memory regions, switch.
//
// The object model mirrors verbs closely enough that the conduit above it is
// structured like a real GASNet conduit:
//
//   Fabric                 — the switched network + all HCAs
//   Hca                    — one per node; owns QPs, memory regions, SRQs
//   QueuePair (RC)         — connect(lid,qpn), send / RDMA / atomics
//   QueuePair (UD)         — send_ud(lid,qpn,payload), lossy receive queue
//   MemoryRegion           — (addr, size, rkey) handle from registration
//
// Differences from real verbs, by design (documented in DESIGN.md):
//   * operations return awaitable `Task<Completion>` instead of being polled
//     from a separate send CQ (semantically equivalent, far easier to use
//     from coroutines);
//   * incoming RC SENDs are delivered to a per-PE shared receive queue (the
//     SRQ design MVAPICH uses for scalability) instead of per-QP RQs;
//   * lkey checking on local buffers is omitted; rkey checking on remote
//     access is enforced and produces error completions like real hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fabric/address_space.hpp"
#include "fabric/config.hpp"
#include "fabric/shm.hpp"
#include "fabric/types.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace odcm::fabric {

class Fabric;
class Hca;

/// Handle returned by memory registration; `<addr, size, rkey>` is exactly
/// the triplet OpenSHMEM exchanges between PEs (paper §IV-B).
struct MemoryRegion {
  VirtAddr addr = 0;
  std::uint64_t size = 0;
  RKey rkey = 0;
};

/// Fault decision for one UD datagram, produced by an installed
/// `UdFaultHook` (see `src/check/fault_plan.hpp`). The hook extends the
/// i.i.d. `FabricConfig` rates with scriptable, per-packet schedules:
/// targeted drops, duplicate bursts, adversarial delay, and QP kill.
struct UdFault {
  bool drop = false;             ///< Lose the datagram entirely.
  std::uint32_t duplicates = 0;  ///< Extra copies delivered after the first.
  sim::Time extra_delay = 0;     ///< Added to the wire latency (reordering).
  /// Force the destination QP into the error state at departure time,
  /// simulating a mid-handshake QP death; the datagram itself is lost.
  bool kill_dst_qp = false;
};

/// Everything a fault hook may key its decision on. `payload` aliases the
/// send buffer and is only valid for the duration of the hook call.
struct UdSendContext {
  RankId src_rank = 0;  ///< Owner of the sending QP.
  RankId dst_rank = 0;  ///< Owner of the destination QP (0 if unresolvable).
  Lid src_lid = 0;
  Lid dst_lid = 0;
  Qpn src_qpn = 0;
  Qpn dst_qpn = 0;
  std::span<const std::byte> payload{};
  std::uint64_t index = 0;  ///< Job-wide ordinal of this datagram.
  sim::Time now = 0;        ///< Virtual time of the send.
};

/// Consulted once per UD send, before the i.i.d. configuration rates.
using UdFaultHook = std::function<UdFault(const UdSendContext&)>;

/// One RC work request, the argument of `QueuePair::post`: an
/// `ibv_send_wr` with its scatter/gather list folded in. Which fields count
/// depends on `opcode`.
struct WorkRequest {
  WcOpcode opcode = WcOpcode::kSend;
  VirtAddr raddr = 0;  ///< RDMA and atomics: the remote address
  RKey rkey = 0;       ///< RDMA and atomics: the remote key
  /// Send and write: the bytes, captured when the request is posted.
  std::vector<std::byte> data{};
  /// Read: where the bytes land; must stay valid until completion.
  std::span<std::byte> dest{};
  /// Fetch-add addend, swap value, compare-swap desired value.
  std::uint64_t operand = 0;
  std::uint64_t expect = 0;  ///< compare-swap: the expected value
  WrId wr_id = 0;
};

/// Apply a write, read or atomic `wr` to its resolved target `window` at
/// one simulated instant; a read copies the window into `read_into` (of the
/// window's size). Returns the prior 8-byte value for an atomic, else 0.
/// The RC responder and the conduit's shm leg both call this, so RC and shm
/// atomics on the same bytes serialize exactly (DESIGN.md §5.14).
std::uint64_t execute(const WorkRequest& wr, std::span<std::byte> window,
                      std::span<std::byte> read_into);

/// A simulated queue pair. Created through `Hca::create_qp`; owned by the
/// HCA and destroyed through `Hca::destroy_qp`.
class QueuePair {
 public:
  QueuePair(Hca& hca, Qpn qpn, QpType type, RankId owner);
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  [[nodiscard]] QpType type() const noexcept { return type_; }
  [[nodiscard]] QpState state() const noexcept { return state_; }
  [[nodiscard]] Qpn qpn() const noexcept { return qpn_; }
  [[nodiscard]] RankId owner() const noexcept { return owner_; }
  [[nodiscard]] Lid lid() const noexcept;
  [[nodiscard]] EndpointAddr addr() const noexcept {
    return EndpointAddr{lid(), qpn_};
  }
  [[nodiscard]] EndpointAddr remote() const noexcept { return remote_; }

  /// Drive the verbs state machine one step (RESET→INIT→RTR→RTS). Charges
  /// `kQpTransitionCost` of virtual time and validates the order. For RC,
  /// the transition to RTR requires `set_remote` to have been called.
  /// Precondition violations throw immediately (before the task runs).
  [[nodiscard]] sim::Task<> transition(QpState next);

  /// Convenience: drive the QP from its current state to RTS, one
  /// transition at a time.
  [[nodiscard]] sim::Task<> to_rts();

  /// Record the peer endpoint (the `<lid, qpn>` from the connection
  /// request/reply). Must be called before the RTR transition on RC QPs.
  void set_remote(EndpointAddr remote);

  /// Move directly to the error state (no virtual-time cost).
  void set_error() noexcept { state_ = QpState::kError; }

  /// Force the QP into a state with no virtual-time cost and no order
  /// checking. ONLY for the bulk static-connect model, where the aggregate
  /// setup cost was already charged analytically (DESIGN.md §2).
  void force_state(QpState state) noexcept { state_ = state; }

  // ---- RC operations (state must be RTS) ----

  /// Post one RC work request and await its completion. A wrong QP type or
  /// state throws at the call. Otherwise the request reaches the target in
  /// order with the QP's earlier ones, takes effect there at that instant
  /// (`execute`, or the shared receive queue for a send) and completes an
  /// ack later, or, for a read or an atomic, once the response is back.
  /// A bad rkey or range completes with `kRemoteAccessError` and moves the
  /// QP to the error state.
  [[nodiscard]] sim::Task<Completion> post(WorkRequest wr);

  /// Two-sided send; arrives in the target PE's shared receive queue.
  [[nodiscard]] sim::Task<Completion> send(std::vector<std::byte> payload,
                                           WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kSend,
                 .data = std::move(payload),
                 .wr_id = wr_id});
  }

  /// One-sided write of `data` to remote `(raddr, rkey)`.
  [[nodiscard]] sim::Task<Completion> rdma_write(
      VirtAddr raddr, RKey rkey, std::vector<std::byte> data, WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kRdmaWrite,
                 .raddr = raddr,
                 .rkey = rkey,
                 .data = std::move(data),
                 .wr_id = wr_id});
  }

  /// One-sided read of `dest.size()` bytes from remote `(raddr, rkey)`.
  /// `dest` must stay valid until the returned task completes.
  [[nodiscard]] sim::Task<Completion> rdma_read(VirtAddr raddr, RKey rkey,
                                                std::span<std::byte> dest,
                                                WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kRdmaRead,
                 .raddr = raddr,
                 .rkey = rkey,
                 .dest = dest,
                 .wr_id = wr_id});
  }

  /// Atomic fetch-and-add on a remote 8-byte location; the prior value is
  /// returned in `Completion::atomic_old`.
  [[nodiscard]] sim::Task<Completion> fetch_add(VirtAddr raddr, RKey rkey,
                                                std::uint64_t add,
                                                WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kFetchAdd,
                 .raddr = raddr,
                 .rkey = rkey,
                 .operand = add,
                 .wr_id = wr_id});
  }

  /// Atomic compare-and-swap; swaps in `desired` iff the current value is
  /// `expect`. Prior value returned in `Completion::atomic_old`.
  [[nodiscard]] sim::Task<Completion> compare_swap(VirtAddr raddr, RKey rkey,
                                                   std::uint64_t expect,
                                                   std::uint64_t desired,
                                                   WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kCompareSwap,
                 .raddr = raddr,
                 .rkey = rkey,
                 .operand = desired,
                 .expect = expect,
                 .wr_id = wr_id});
  }

  /// Unconditional atomic swap (extended atomics). Prior value returned in
  /// `Completion::atomic_old`.
  [[nodiscard]] sim::Task<Completion> swap(VirtAddr raddr, RKey rkey,
                                           std::uint64_t value,
                                           WrId wr_id = 0) {
    return post({.opcode = WcOpcode::kSwap,
                 .raddr = raddr,
                 .rkey = rkey,
                 .operand = value,
                 .wr_id = wr_id});
  }

  // ---- UD operations (state must be RTS) ----

  /// Unreliable datagram to `(dlid, dqpn)`. May be dropped or duplicated
  /// per the fabric configuration. Completion signals local send done.
  [[nodiscard]] sim::Task<Completion> send_ud(Lid dlid, Qpn dqpn,
                                              std::vector<std::byte> payload,
                                              WrId wr_id = 0);

  /// Same, but with a caller-shared immutable payload: retransmissions and
  /// duplicated deliveries all reference one buffer instead of copying it
  /// (the connection manager reuses its encoded request across retries).
  [[nodiscard]] sim::Task<Completion> send_ud(Lid dlid, Qpn dqpn,
                                              UdPayload payload,
                                              WrId wr_id = 0);

  /// Receive queue of a UD QP.
  [[nodiscard]] sim::Mailbox<UdDatagram>& ud_recv();

  /// Number of posted-but-incomplete operations on this QP.
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_;
  }

 private:
  friend class Hca;

  void require_state(QpState expected, const char* op) const;
  void require_type(QpType expected, const char* op) const;

  // Coroutine bodies behind the eagerly-validating public entry points.
  sim::Task<> transition_impl(QpState next);
  sim::Task<Completion> post_impl(WorkRequest wr);
  sim::Task<Completion> send_ud_impl(Lid dlid, Qpn dqpn, UdPayload payload,
                                     WrId wr_id);
  /// Resolve a remote (raddr, rkey) at the connected peer HCA.
  std::optional<std::span<std::byte>> resolve_remote(VirtAddr raddr, RKey rkey,
                                                     std::size_t len);
  /// Reserve an injection slot and compute in-order arrival time.
  sim::Time schedule_arrival(std::size_t bytes);
  Completion finish(WrId wr_id, WcOpcode opcode, WcStatus status,
                    std::uint32_t byte_len, std::uint64_t atomic_old = 0);

  Hca& hca_;
  Qpn qpn_;
  QpType type_;
  RankId owner_;
  QpState state_ = QpState::kReset;
  EndpointAddr remote_{};
  sim::Time last_arrival_ = 0;
  std::size_t outstanding_ = 0;
  std::unique_ptr<sim::Mailbox<UdDatagram>> ud_recv_{};
};

/// One host channel adapter per node. Owns queue pairs, the registered-
/// memory table and the per-PE shared receive queues.
class Hca {
 public:
  Hca(Fabric& fabric, NodeId node, Lid lid);
  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] Lid lid() const noexcept { return lid_; }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }

  /// Register a PE living on this node; creates its shared receive queue.
  /// Ranks attach in ascending order (throws otherwise).
  void attach_pe(RankId rank);

  /// Create a queue pair (charges `kQpCreateCost`). The QP starts in the
  /// RESET state.
  [[nodiscard]] sim::Task<QueuePair*> create_qp(QpType type, RankId owner);

  /// Destroy a queue pair (charges `kQpDestroyCost`).
  [[nodiscard]] sim::Task<> destroy_qp(Qpn qpn);

  /// Create a queue pair with no virtual-time cost. ONLY for the bulk
  /// static-connect model whose aggregate cost was charged analytically.
  QueuePair& materialize_qp(QpType type, RankId owner);

  /// The live QP with `qpn`, or nullptr if it was never created on this
  /// HCA or has been destroyed.
  [[nodiscard]] QueuePair* find_qp(Qpn qpn) noexcept {
    return qpn < qps_.size() ? qps_[qpn].get() : nullptr;
  }

  /// Register `[start, start+len)` of `space` (charges registration cost
  /// proportional to the page count). Returns the `<addr, size, rkey>`
  /// triplet. `space` must outlive the registration.
  ///
  /// `modeled_len` (when non-zero) replaces `len` in the *cost model* only:
  /// pin-down time is charged as if `modeled_len` bytes were registered
  /// while the region itself still covers `len` bytes of backing store.
  /// This is the single place the modeled-heap scaling of DESIGN.md §2 is
  /// applied; both the eager whole-heap path and the chunked on-demand
  /// path (fabric/reg) charge through it, so the two modes stay directly
  /// comparable in the startup breakdowns.
  [[nodiscard]] sim::Task<MemoryRegion> register_memory(
      AddressSpace& space, VirtAddr start, std::uint64_t len,
      std::uint64_t modeled_len = 0);

  void deregister_memory(RKey rkey);

  /// Resolve a remote-access request against the registration table.
  std::optional<std::span<std::byte>> resolve(VirtAddr raddr, RKey rkey,
                                              std::size_t len);

  /// Shared receive queue for the given PE (RC SEND delivery).
  [[nodiscard]] sim::Mailbox<RcMessage>& srq(RankId rank);

  /// Reserve the next injection slot on this HCA's port; returns the time
  /// the message actually leaves (models the NIC message-rate limit).
  sim::Time reserve_injection_slot();

  /// Reserve `busy` time on the HCA's firmware command queue (shared by all
  /// PEs on the node); returns the completion time. QP destruction goes
  /// through this queue, which is why tearing down a fully connected mesh
  /// is expensive at scale (paper §I point 1).
  sim::Time reserve_command_window(sim::Time busy);

  /// Extra per-operation latency when the QP context working set exceeds
  /// the on-HCA cache (paper §I, point 3).
  [[nodiscard]] sim::Time cache_penalty() const noexcept;

  // ---- resource accounting (Fig 9) ----
  [[nodiscard]] std::uint64_t qps_created() const noexcept {
    return qps_created_;
  }
  [[nodiscard]] std::uint64_t qps_active() const noexcept {
    return qps_live_;
  }
  [[nodiscard]] std::uint64_t regions_active() const noexcept {
    return regions_live_;
  }

 private:
  /// A registered range; `space == nullptr` marks a free rkey.
  struct Region {
    AddressSpace* space = nullptr;
    VirtAddr start = 0;
    std::uint64_t len = 0;
  };

  sim::Task<> destroy_qp_impl(Qpn qpn);
  sim::Task<MemoryRegion> register_memory_impl(AddressSpace& space,
                                               VirtAddr start,
                                               std::uint64_t len,
                                               std::uint64_t modeled_len);

  Fabric& fabric_;
  NodeId node_;
  Lid lid_;
  Qpn next_qpn_ = 1;
  RKey next_rkey_ = 1;
  std::uint64_t qps_created_ = 0;
  sim::Time next_injection_ = 0;
  sim::Time command_free_ = 0;
  // QPNs and rkeys are per-HCA, monotonic and never reused, so both tables
  // are indexed directly, like a verbs QP context table. Destroyed QPs and
  // deregistered regions leave empty slots, so the tables grow with every
  // QP and registration ever made on this HCA (8 B per QPN, 24 B per rkey),
  // not with the live ones: a run that re-pins a million chunks holds
  // 24 MB of dead region slots.
  std::vector<std::unique_ptr<QueuePair>> qps_{};  ///< by QPN
  std::uint64_t qps_live_ = 0;
  std::vector<Region> regions_{};  ///< by rkey
  std::uint64_t regions_live_ = 0;
  /// Indexed by `rank - srq_base_`. The job places each node's ranks in
  /// one contiguous block, so the table holds ranks_per_node entries.
  std::vector<std::unique_ptr<sim::Mailbox<RcMessage>>> srqs_{};
  RankId srq_base_ = 0;
};

/// The whole simulated network: one HCA per node plus the switch model.
class Fabric {
 public:
  Fabric(sim::Engine& engine, FabricConfig config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Rng& rng() noexcept { return rng_; }

  [[nodiscard]] Hca& hca(NodeId node);
  [[nodiscard]] Hca& hca_by_lid(Lid lid);
  /// Per-node shared-memory domain (intra-node transport, fabric/shm.hpp).
  [[nodiscard]] ShmDomain& shm_domain(NodeId node);
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return config_.nodes;
  }

  /// One-way message latency between two HCAs for `bytes` of payload.
  [[nodiscard]] sim::Time transfer_latency(Lid src, Lid dst,
                                           std::size_t bytes) const;

  // ---- scripted fault injection (src/check) ----

  /// Install (or clear, with an empty function) the per-datagram fault
  /// hook. The hook is consulted for every UD send, in addition to the
  /// i.i.d. `FabricConfig` loss/duplication rates.
  void set_ud_fault_hook(UdFaultHook hook) { ud_fault_hook_ = std::move(hook); }
  [[nodiscard]] const UdFaultHook& ud_fault_hook() const noexcept {
    return ud_fault_hook_;
  }
  /// Job-wide ordinal for the next UD datagram (consumed by `send_ud`).
  [[nodiscard]] std::uint64_t next_ud_index() noexcept { return ud_sent_++; }
  [[nodiscard]] std::uint64_t ud_datagrams_sent() const noexcept {
    return ud_sent_;
  }

 private:
  sim::Engine& engine_;
  FabricConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Hca>> hcas_{};
  std::vector<std::unique_ptr<ShmDomain>> shm_domains_{};
  UdFaultHook ud_fault_hook_{};
  std::uint64_t ud_sent_ = 0;
};

}  // namespace odcm::fabric
