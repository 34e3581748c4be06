// The conduit: active messages, RMA, and — the paper's contribution —
// on-demand connection management with piggybacked upper-layer payloads.
//
// One `Conduit` per PE, playing the role GASNet's ibv/mvapich2x conduits
// play under OpenSHMEM. The `ConduitJob` owns the shared substrates (fabric,
// PMI job manager) and the per-node structures (intra-node barriers).
//
// Connection establishment (on-demand mode) follows Fig. 4 of the paper:
//
//   client                                server
//   ------                                ------
//   create RC QP (RESET→INIT)
//   ConnectRequest(lid, qpn, payload) --->
//                                         create RC QP (RESET→INIT)
//                                         set_remote; INIT→RTR→RTS
//                                         consume payload
//   <--- ConnectReply(lid, qpn, payload)
//   set_remote; INIT→RTR→RTS
//   consume payload
//
// The request travels over UD, so the client retransmits on timeout; the
// server dedupes by peer state and re-sends a cached reply when the reply
// itself was lost. Simultaneous requests (collision) resolve
// deterministically: the request from the lower-ranked PE is served, the
// higher-ranked PE's own attempt is absorbed into its server role.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/lru.hpp"
#include "core/observer.hpp"
#include "core/wire.hpp"
#include "fabric/fabric.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "pmi/pmi.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace odcm::core {

using fabric::NodeId;
using fabric::RankId;

class ConduitJob;

/// Handler invoked for each received active message. Handlers may suspend;
/// each invocation runs as its own task.
using AmHandler =
    std::function<sim::Task<>(RankId src, std::vector<std::byte> payload)>;

/// Provider of the opaque payload appended to connection request/reply
/// packets (OpenSHMEM: serialized segment triplets, §IV-C). `peer` is the
/// rank the packet is addressed to, so upper layers that piggyback
/// peer-specific state (the on-demand registration mode records the peer
/// as a sharer of every rkey it hands out) know who will consume it.
using PayloadProvider = std::function<std::vector<std::byte>(RankId peer)>;
/// Consumer of the peer's piggybacked payload.
using PayloadConsumer =
    std::function<void(RankId peer, std::span<const std::byte> payload)>;

/// First active-message handler id available to upper layers; smaller ids
/// are reserved for conduit-internal protocols.
inline constexpr std::uint16_t kFirstUserHandler = 16;

// Conduit-internal AM ids. Internal handlers never consume flow-control
// credits, so barriers, eviction drains and rendezvous handshakes progress
// even when the data window toward the peer is exhausted.
inline constexpr std::uint16_t kBarrierArriveHandler = 0;
inline constexpr std::uint16_t kBarrierReleaseHandler = 1;
inline constexpr std::uint16_t kDisconnectNoticeHandler = 2;
inline constexpr std::uint16_t kDisconnectAckHandler = 3;
inline constexpr std::uint16_t kRingEntryHandler = 4;   ///< ring bootstrap
inline constexpr std::uint16_t kRendezvousHandler = 5;  ///< RTS/CTS/FIN

/// Which data path a transfer of a given size takes (DESIGN.md §5.17).
enum class BulkTier : std::uint8_t { kEager, kPipelined, kRendezvous };

/// One target-resolved span of a rendezvous transfer: where the data lands
/// (or is read from) and under which rkey. On-demand registration answers
/// with one range per pinned chunk; eager registration with a single range.
struct RdvRange {
  fabric::VirtAddr va = 0;
  std::uint64_t len = 0;
  fabric::RKey rkey = 0;
};

/// Target-side hook resolving a put/get RTS into the sink ranges the CTS
/// will carry. May suspend (the on-demand registration mode pins cold chunks
/// here — the "RTS triggers a chunk fault" composition). When absent the
/// CTS echoes `(raddr, len)` with rkey 0.
using RendezvousSink = std::function<sim::Task<std::vector<RdvRange>>(
    RankId src, RdvOp op, fabric::VirtAddr raddr, std::uint64_t len)>;

// ---- the RMA data path (DESIGN.md §5.18) ----

enum class RmaKind : std::uint8_t {
  kPut,
  kGet,
  kFetchAdd,
  kSwap,
  kCompareSwap
};

/// One request of `Conduit::rma`.
struct RmaOp {
  RmaKind kind = RmaKind::kPut;
  fabric::VirtAddr raddr = 0;
  std::span<const std::byte> src{};  ///< put: the bytes to write
  std::span<std::byte> dest{};       ///< get: where the bytes land
  /// Fetch-add addend, swap value, compare-swap desired value.
  std::uint64_t operand = 0;
  std::uint64_t expect = 0;  ///< compare-swap: the expected value
  /// The remote key when the caller resolves it itself; unused once an
  /// rkey hook is installed.
  fabric::RKey rkey = 0;

  [[nodiscard]] bool atomic() const noexcept {
    return kind != RmaKind::kPut && kind != RmaKind::kGet;
  }
  [[nodiscard]] std::uint64_t len() const noexcept {
    return kind == RmaKind::kPut   ? src.size()
           : kind == RmaKind::kGet ? dest.size()
                                   : sizeof(std::uint64_t);
  }
};

/// The work request of `op`'s bytes `[offset, offset + len)`: a put's
/// bytes are captured here, at issue. `fabric::execute` applies it to a
/// target window; the RC, shm and a PE's local paths all go through it.
[[nodiscard]] fabric::WorkRequest work_request(const RmaOp& op,
                                               std::uint64_t offset,
                                               std::uint64_t len,
                                               fabric::RKey rkey);

/// The rkey covering a prefix of an RC transfer.
struct RkeyGrant {
  std::uint64_t len = 0;  ///< bytes of the request the rkey covers
  fabric::RKey rkey = 0;
  /// On-demand registration: defers the rkey's invalidation ack until the
  /// RMA completed. Empty under eager registration.
  fabric::reg::RkeyLease lease{};
};

/// How the conduit learns remote keys: the one hook an upper layer installs
/// (`set_rkey_hook`). Without a hook, `RmaOp::rkey` is used as given.
class RkeyHook {
 public:
  virtual ~RkeyHook() = default;
  /// The rkey covering a prefix of `[raddr, raddr + len)` at `dst`. May
  /// suspend: on a registration fault, or on the handshake that carries
  /// the peer's segment keys.
  [[nodiscard]] virtual sim::Task<RkeyGrant> resolve(RankId dst,
                                                     fabric::VirtAddr raddr,
                                                     std::uint64_t len) = 0;
  /// Adopt the rkey a rendezvous CTS granted for `range`; nullopt when the
  /// grant already lost a race with an invalidation (the conduit then
  /// re-issues the RTS).
  [[nodiscard]] virtual std::optional<RkeyGrant> accept_cts(
      RankId dst, const RdvRange& range) = 0;
};

class Conduit;

/// One flow-control credit toward a peer. The holder calls `release()`
/// when its send completed; the destructor returns the credit on every
/// other exit (an exception out of the issue), so the finalize audit
/// `credits_granted == credits_returned` always closes.
class [[nodiscard]] CreditLease {
 public:
  CreditLease() = default;
  CreditLease(CreditLease&& other) noexcept
      : owner_(std::exchange(other.owner_, nullptr)),
        dst_(other.dst_),
        epoch_(other.epoch_) {}
  CreditLease& operator=(CreditLease&& other) noexcept {
    if (this != &other) {
      release();
      owner_ = std::exchange(other.owner_, nullptr);
      dst_ = other.dst_;
      epoch_ = other.epoch_;
    }
    return *this;
  }
  CreditLease(const CreditLease&) = delete;
  CreditLease& operator=(const CreditLease&) = delete;
  ~CreditLease() { release(); }

  /// False when the connection was torn down while the acquirer stalled.
  explicit operator bool() const noexcept { return owner_ != nullptr; }
  void release() noexcept;

 private:
  friend class Conduit;
  CreditLease(Conduit& owner, RankId dst, std::uint32_t epoch)
      : owner_(&owner), dst_(dst), epoch_(epoch) {}

  Conduit* owner_ = nullptr;
  RankId dst_ = 0;
  std::uint32_t epoch_ = 0;
};

class Conduit {
 public:
  Conduit(ConduitJob& job, RankId rank);
  ~Conduit();
  Conduit(const Conduit&) = delete;
  Conduit& operator=(const Conduit&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return rank_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint32_t size() const noexcept;
  [[nodiscard]] ConduitJob& job() noexcept { return job_; }
  [[nodiscard]] const ConduitConfig& config() const noexcept;
  [[nodiscard]] fabric::Hca& hca();
  [[nodiscard]] pmi::PmiClient& pmi();
  [[nodiscard]] sim::Engine& engine();

  // ---- lifecycle ----

  /// Bring up the conduit according to the configured connection/PMI mode.
  /// Static mode connects to every peer here; on-demand mode only creates
  /// the UD endpoint and publishes it.
  [[nodiscard]] sim::Task<> init();

  /// Tear down connections (charging QP destruction) and stop listeners.
  /// Must run after every PE finished application communication.
  [[nodiscard]] sim::Task<> finalize();

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  /// True once `init` charged the static mesh in aggregate (job size above
  /// `bulk_connect_threshold`) instead of simulating every handshake.
  [[nodiscard]] bool bulk_modeled() const noexcept { return bulk_connected_; }

  // ---- connection-payload hooks (§IV-C) ----

  /// Install the opaque payload provider/consumer used on connection
  /// packets. Must be called before communication with a peer.
  void set_payload_hooks(PayloadProvider provider, PayloadConsumer consumer);

  /// Declare the upper layer ready to serve incoming connections (its
  /// segments are registered). Until then incoming requests are held
  /// (paper §IV-E: the reply is delayed, the client retransmits).
  void set_ready();

  // ---- active messages (core API) ----

  /// Register `handler` under `id` (>= kFirstUserHandler).
  void register_handler(std::uint16_t id, AmHandler handler);

  /// Send an active message; establishes the connection on demand.
  /// Same-node destinations are routed over the shm transport when
  /// `intranode_transport == kShm` (no connection involved).
  [[nodiscard]] sim::Task<> am_send(RankId dst, std::uint16_t handler,
                                    std::vector<std::byte> payload);

  /// Deliver `payload` to `dst`'s AM `handler` by rendezvous (DESIGN.md
  /// §5.17): an RTS names the handler, the target grants a registered
  /// landing buffer in its CTS, the payload streams there as RDMA writes
  /// under credit leases, and a FIN hands the landed bytes to the handler.
  /// A target with every landing segment busy sends the CTS once a FIN
  /// frees one. Shm-routed peers get one eager AM instead.
  [[nodiscard]] sim::Task<> am_send_rendezvous(RankId dst,
                                               std::uint16_t handler,
                                               std::vector<std::byte> payload);

  // ---- intra-node shared-memory transport (transport selection) ----

  /// True when traffic toward `dst` rides the shm transport: same node and
  /// `intranode_transport == kShm`. Such peers never handshake, never bind
  /// an RC QP, and never occupy an LRU slot or connection-cap budget.
  [[nodiscard]] bool shm_routes(RankId dst) const;

  /// Cross-map `[base, base + len)` of this PE's segment into the node's
  /// shm domain (charges `kShmAttachCost`; no-op when the shm transport
  /// is disabled). The upper layer calls this during its node-local
  /// bootstrap, before any same-node peer may address the segment.
  [[nodiscard]] sim::Task<> shm_export(fabric::AddressSpace& space,
                                       fabric::VirtAddr base,
                                       std::uint64_t len);

  // ---- RMA (extended API) ----

  /// RC QP connected to `dst`, establishing the connection if needed.
  [[nodiscard]] sim::Task<fabric::QueuePair*> connected_qp(RankId dst);

  /// The one RMA entry point (DESIGN.md §5.18): route (shm or RC), select
  /// the tier, resolve rkeys through the hook, and issue every RC op under
  /// a credit lease. `op`'s spans must stay valid until the task completes.
  /// Returns the first failed completion, else a successful one (atomics
  /// carry the prior value in `atomic_old`).
  [[nodiscard]] sim::Task<fabric::Completion> rma(RankId dst, RmaOp op);

  /// Install the upper layer's rkey hook; it must outlive the conduit's
  /// traffic.
  void set_rkey_hook(RkeyHook* hook) noexcept { rkey_hook_ = hook; }

  // ---- large-message tiering (DESIGN.md §5.17) ----

  /// Install the target-side rendezvous sink resolver (upper layer).
  void set_rendezvous_sink(RendezvousSink sink) {
    rendezvous_sink_ = std::move(sink);
  }

  // ---- barriers ----

  /// Barrier across all PEs: a tree of active messages, which forces
  /// at most kTreeFanout + 1 connections per PE in on-demand mode. With the rc intra-node
  /// transport the tree spans every rank; with shm it is hierarchical — PEs
  /// arrive at the node barrier over shared memory and only node leaders
  /// run the tree, so same-node pairs never consume RC connections.
  [[nodiscard]] sim::Task<> barrier_global();

  /// Shared-memory barrier among the PEs of this node (§IV-E).
  [[nodiscard]] sim::Task<> barrier_intranode();

  /// The barrier used during initialization, per `init_barrier_mode`.
  [[nodiscard]] sim::Task<> barrier_init();

  // ---- accounting (Figs 1, 5, 9; Table I) ----

  [[nodiscard]] sim::StatSet& stats() noexcept { return stats_; }
  [[nodiscard]] const sim::StatSet& stats() const noexcept { return stats_; }
  /// Number of peers this PE holds an established connection to.
  [[nodiscard]] std::uint64_t connected_peer_count() const;
  /// Number of distinct peers this PE reached over the shm transport.
  [[nodiscard]] std::uint64_t shm_peer_count() const noexcept {
    return shm_peer_count_;
  }
  /// IB endpoints (QPs) this PE created, including bulk-modeled ones.
  [[nodiscard]] std::uint64_t endpoints_created() const;
  /// Connection phase / role toward `rank` (diagnostics and checkers).
  [[nodiscard]] PeerPhase peer_phase(RankId rank) const;
  [[nodiscard]] PeerRole peer_role(RankId rank) const;
  /// Evicted-but-not-yet-destroyed QPs currently parked (diagnostics; under
  /// eviction churn this stays bounded because drain resolution reclaims).
  [[nodiscard]] std::size_t retired_qp_count() const noexcept {
    return retired_qps_.size();
  }

  /// Report an upper-layer protocol event (e.g. the shmem registration
  /// protocol's kReg* kinds) into the job-wide observer stream. `self` and
  /// `time` are filled in here, exactly like conduit-internal events.
  void report_event(ProtocolEvent event) { notify(event); }

 private:
  friend class ConduitJob;

  struct Peer {
    // Aliases keep the historical `Peer::Phase` / `Peer::Role` spelling;
    // the enums live in observer.hpp so protocol observers can see them.
    using Role = PeerRole;
    using Phase = PeerPhase;
    RankId rank = 0;  // dense key; set once when the slot is created
    Role role = Role::kNone;
    Phase phase = Phase::kIdle;
    fabric::QueuePair* qp = nullptr;
    std::unique_ptr<sim::Gate> established{};
    std::unique_ptr<sim::Gate> drained{};  // opened when the drain acks
    fabric::UdPayload cached_reply{};      // server: resent on dup request
    fabric::EndpointAddr reply_to{};       // client's UD endpoint
    /// The peer's UD endpoint, from one PMI get (blocking PMI mode only).
    std::optional<fabric::EndpointAddr> ud_addr{};
    sim::Time last_used = 0;               // LRU clock for eviction
    /// The peer sent a disconnect notice while our side of the handshake
    /// was still completing; honor it as soon as we reach kConnected —
    /// but only if the connection we end up with is the one the notice
    /// named (`drain_notice_qpn` is the peer QP the notice was sent
    /// from). If the handshake instead completes a *newer* epoch (the
    /// peer served our retransmitted request after its drain resolved),
    /// the notice is stale and must be dropped, or we would tear down a
    /// live connection and desynchronize the two sides for good.
    bool remote_drain_pending = false;
    fabric::Qpn drain_notice_qpn = 0;
    /// Bumped every time ensure_connected spawns a client_connect for
    /// this slot. The coroutine re-checks it after every suspension: if
    /// the slot was taken over, torn down, and re-initiated while the
    /// coroutine slept (long backoff windows make this real), the stale
    /// coroutine must stand down instead of double-driving the slot.
    std::uint32_t connect_serial = 0;
    /// Most recently retired (evicted, not yet destroyed) QP of this slot;
    /// reclaimed when the drain resolves (see `reclaim_retired`).
    fabric::QueuePair* retired_qp = nullptr;
    /// Bumped when a client handshake fails after exhausting its retry
    /// budget; waiters parked in `ensure_connected` compare epochs across
    /// their wait and rethrow `fail_reason` (the slot itself returns to
    /// kIdle so a later attempt can retry).
    std::uint32_t fail_epoch = 0;
    std::string fail_reason{};
    /// Flow-control window toward this peer (DESIGN.md §5.17): granted in
    /// full when the connection reaches kConnected, consumed per send,
    /// returned on completion. Leaving kConnected flushes the pool (the
    /// "evicted QP returns its credits" rule) and bumps `credit_epoch` so
    /// stragglers releasing after the teardown are accounted separately
    /// instead of leaking into the next epoch's window.
    std::uint32_t credit_pool = 0;
    std::uint32_t credit_epoch = 0;
    std::unique_ptr<sim::Trigger> credit_free{};
    // Intrusive (last_used, rank)-ordered list of kConnected peers; the
    // head is the eviction victim (core/lru.hpp).
    Peer* lru_prev = nullptr;
    Peer* lru_next = nullptr;
    bool in_lru = false;
  };

  Peer& peer(RankId rank);
  /// The peer slot for `rank`, or nullptr if never touched (const paths).
  [[nodiscard]] const Peer* find_peer(RankId rank) const noexcept;

  /// Report `event` (with `self` and `time` filled in) to every observer
  /// attached to the job.
  void notify(ProtocolEvent event);
  /// Move `peer_rank`'s state machine to `next`, reporting the transition.
  /// Every phase mutation must go through here so observers see the full
  /// event stream.
  void set_phase(RankId peer_rank, Peer& p, PeerPhase next);

  // The connection lifecycle (Fig. 4): every path that brings an RC
  // connection up or down runs these steps and keeps no copy of them.
  /// Create an RC QP and move it RESET→INIT.
  [[nodiscard]] sim::Task<fabric::QueuePair*> new_rc_qp();
  /// Point `qp` at `remote` and move it INIT→RTR→RTS.
  [[nodiscard]] sim::Task<> connect_rc_qp(fabric::QueuePair* qp,
                                          fabric::EndpointAddr remote);
  /// The only writes of `Peer::qp`, reporting kQpBound / kQpUnbound.
  void bind_qp(Peer& p, fabric::QueuePair* qp);
  void unbind_qp(Peer& p);
  /// Take `role` and enter kConnected, counted unless the bulk model counted
  /// it at init. The caller opens the established gate (a server only once
  /// its reply is sent).
  void establish(Peer& p, PeerRole role);

  // Listener loops (detached root tasks).
  sim::Task<> ud_listener();
  sim::Task<> srq_listener();

  // Connection protocol.
  [[nodiscard]] sim::Task<> ensure_connected(RankId dst);
  sim::Task<> client_connect(RankId dst, std::uint32_t serial);
  sim::Task<> self_connect();
  void handle_conn_request(ConnectPacket packet,
                           fabric::EndpointAddr reply_to);
  sim::Task<> serve_request(RankId src, fabric::EndpointAddr client_addr,
                            std::vector<std::byte> payload,
                            fabric::EndpointAddr reply_to, bool collision);
  void handle_conn_reply(ConnectPacket packet);
  sim::Task<> finish_client(RankId src, fabric::EndpointAddr server_addr,
                            std::vector<std::byte> payload);
  static void open_established(sim::Engine& engine, Peer& peer);

  // UD endpoint resolution through PMI.
  sim::Task<> publish_ud_endpoint();
  sim::Task<fabric::EndpointAddr> resolve_ud(RankId dst);
  /// Ring bootstrap: forward the UD endpoint table around the IB ring
  /// (N-1 hops over the RC connection to the right neighbor).
  sim::Task<> ring_distribute();
  struct RingEntry {
    RankId rank;
    fabric::EndpointAddr addr;
  };

  // Adaptive connection management (eviction).
  [[nodiscard]] std::uint64_t active_connection_count() const {
    return connected_count_;
  }
  void maybe_evict(RankId just_connected);
  /// Send the eviction notice on `qp`, the victim's QP when it was marked
  /// kDraining, and retire it unless the drain resolved meanwhile.
  sim::Task<> evict_connection(RankId victim, fabric::QueuePair* qp);
  /// Count down one tracked eviction task; wake finalize at zero.
  void settle_eviction();
  void retire_qp(Peer& peer);
  /// Destroy the slot's retired QP once its work queue drains (called at
  /// the drain-resolution points, so `retired_qps_` stays bounded under
  /// eviction churn instead of growing until finalize).
  void reclaim_retired(Peer& peer);
  /// `notice_qpn` is the peer QP the notice arrived from; it identifies
  /// the connection epoch being drained (QPNs are never reused) so stale
  /// notices from an already-resolved epoch can be discarded.
  void handle_disconnect_notice(RankId src, fabric::Qpn notice_qpn);
  void handle_disconnect_ack(RankId src);
  /// The peer-side QPN of the epoch this slot currently holds: the live
  /// QP's remote if bound, else the retired (draining) QP's remote.
  [[nodiscard]] static fabric::Qpn current_remote_qpn(const Peer& p);
  /// Retire our side and ack the peer's eviction notice.
  void perform_passive_drain(RankId src);
  /// Post-establishment bookkeeping shared by client/server completion:
  /// honor a deferred remote drain, else run the eviction policy.
  void after_established(RankId src);

  // Intra-node shm transport internals.
  [[nodiscard]] fabric::ShmDomain& shm_domain();
  /// Deliver an AM to a same-node peer through its SRQ after charging the
  /// shm cost model — dispatch stays transport-independent.
  sim::Task<> shm_am_send(RankId dst, std::uint16_t handler,
                          std::vector<std::byte> payload);
  /// The shm leg of `rma`: a CMA-style copy or a node-local atomic.
  sim::Task<fabric::Completion> shm_rma(RankId dst, const RmaOp& op);
  /// First-contact accounting for the shm path (Table I peer counts).
  void mark_shm_peer(RankId dst);

  /// Report the rkey an RMA is about to use when a lease pins it.
  void report_rkey_used(RankId dst, const RkeyGrant& grant);

  /// Acquire one flow-control credit toward `dst`, suspending while the
  /// window is exhausted. The lease is empty when the connection was torn
  /// down during the stall (the caller loops back through `connected_qp`).
  /// With `qp_credits == 0` this returns at once without suspending.
  [[nodiscard]] sim::Task<CreditLease> acquire_credit(RankId dst);
  friend class CreditLease;
  void release_credit(RankId dst, std::uint32_t epoch);

  // Static mesh setup.
  /// Static mode at this job size charges the mesh in aggregate at init.
  [[nodiscard]] bool bulk_sized() const noexcept {
    return size() > config().bulk_connect_threshold;
  }
  sim::Task<> static_connect_all();
  sim::Task<> static_connect_bulk();
  /// Materialize a bulk-modeled connection into real QPs on first use.
  fabric::QueuePair* materialize_bulk(RankId dst);

  // Large-message tiering internals (core/bulk.cpp).
  /// The tier a transfer of `len` bytes takes under the current config.
  /// With both thresholds 0 (the default) everything is kEager.
  [[nodiscard]] BulkTier select_tier(std::uint64_t len) const noexcept {
    const ConduitConfig& cfg = config();
    if (cfg.rendezvous_threshold != 0 && len > cfg.rendezvous_threshold) {
      return BulkTier::kRendezvous;
    }
    if (cfg.eager_threshold != 0 && len > cfg.eager_threshold) {
      return BulkTier::kPipelined;
    }
    return BulkTier::kEager;
  }
  /// Target/initiator halves of the RTS/CTS/FIN exchange (AM
  /// kRendezvousHandler).
  sim::Task<> handle_rendezvous(RankId src, std::vector<std::byte> payload);
  /// The one rendezvous: RTS → (target posts sink) → CTS → fragment stream,
  /// then a FIN for kMsg. Put and msg stream `src` to the target, get lands
  /// into `dest`; `raddr` is the remote VA, or the handler id for kMsg.
  /// False when the rkey hook rejected a put/get CTS grant (the caller
  /// retries).
  sim::Task<bool> rendezvous(RankId dst, RdvOp op, fabric::VirtAddr raddr,
                             std::span<const std::byte> src,
                             std::span<std::byte> dest);
  /// Target side of a kMsg RTS: a landing range from the pool. Suspends
  /// until a FIN frees a segment when all of them are busy.
  sim::Task<RdvRange> post_landing(RankId src, const RendezvousPacket& rts);
  /// Return a landed message's buffer to the pool (at its FIN).
  void release_landing(std::size_t slot);
  /// Shared fragment streamer of the pipelined and rendezvous tiers:
  /// fragments `ranges` into `bulk_chunk_bytes` pieces issued strictly in
  /// order under the credit/window bound; put streams from `src_data`, get
  /// (is_get) lands into `dest_data`. `seq` keys the fragment-ordering
  /// invariant per (pair, stream).
  sim::Task<> stream_fragments(RankId dst, bool is_get, std::uint32_t seq,
                               std::vector<RdvRange> ranges,
                               std::span<const std::byte> src_data,
                               std::span<std::byte> dest_data);
  /// One pending rendezvous at the initiator, keyed by seq: the CTS opens
  /// the gate and deposits the granted ranges.
  struct RdvPending {
    explicit RdvPending(sim::Engine& engine)
        : gate(std::make_unique<sim::Gate>(engine)) {}
    std::unique_ptr<sim::Gate> gate;
    std::vector<RdvRange> ranges{};
  };

  // AM dispatch.
  /// `src_qpn` is the sender-side QP the message arrived from (0 for
  /// paths that do not track it); the disconnect-notice handler uses it
  /// to tell connection epochs apart.
  sim::Task<> dispatch_am(AmPacket packet, fabric::Qpn src_qpn);
  void handle_barrier_arrive(RankId src, std::uint32_t round);
  void handle_barrier_release(std::uint32_t round);
  /// The AM-tree leg of barrier_global, on the one collective tree
  /// (core/tree.hpp). With the shm transport the tree runs over node
  /// leaders only (virtual rank = node index, mapped back by
  /// barrier_actual_rank); otherwise over all ranks.
  [[nodiscard]] sim::Task<> barrier_tree();
  [[nodiscard]] std::uint32_t barrier_vrank() const;
  [[nodiscard]] std::uint32_t barrier_vsize() const;
  [[nodiscard]] RankId barrier_actual_rank(std::uint64_t vrank) const;

  struct BarrierRound {
    explicit BarrierRound(sim::Engine& engine)
        : arrivals(engine), release(engine) {}
    sim::Gate arrivals;
    sim::Gate release;
    std::uint32_t arrived = 0;
  };
  BarrierRound& barrier_round(std::uint32_t round);

  ConduitJob& job_;
  RankId rank_;
  NodeId node_;
  bool initialized_ = false;
  bool finalized_ = false;

  fabric::QueuePair* ud_qp_ = nullptr;
  // Flat indexed peer storage: `peer_slot_` maps a dense RankId to an index
  // into `peer_slots_` (a deque, so references stay stable across inserts —
  // `Peer&` is held across co_await throughout the protocol code). The hot
  // path is one vector load + one deque index instead of a std::map walk;
  // rank-order walks sort the touched slots instead (`peers_by_rank`).
  static constexpr std::uint32_t kNoPeerSlot = 0xffffffffu;
  std::vector<std::uint32_t> peer_slot_{};
  std::deque<Peer> peer_slots_{};
  /// Exact count of kConnected peers, maintained by `set_phase`.
  std::uint64_t connected_count_ = 0;
  /// Connected peers ordered by (last_used, rank): O(1) victim selection.
  LruList<Peer> lru_{};
  bool bulk_connected_ = false;  // static bulk model in effect
  std::uint64_t bulk_endpoints_ = 0;
  /// Distinct peers reached over the shm transport (dense bitmap; sized
  /// lazily on first shm op).
  std::vector<bool> shm_peers_{};
  std::uint64_t shm_peer_count_ = 0;

  /// Every touched peer slot in ascending rank order (deterministic;
  /// finalize tears connections down in rank order). O(k log k) in the k
  /// touched peers, not O(N).
  [[nodiscard]] std::vector<Peer*> peers_by_rank();
  template <typename F>
  void for_each_peer(F&& f) {
    for (Peer* p : peers_by_rank()) f(p->rank, *p);
  }

  PayloadProvider payload_provider_{};
  PayloadConsumer payload_consumer_{};
  std::unique_ptr<sim::Gate> ready_gate_{};

  // UD endpoint resolution. Ring mode keeps a dense per-PE table: PMIX_Ring
  // really forwards every entry to every PE over IB. Non-blocking mode reads
  // the PMI round's one shared table; blocking mode caches each get in the
  // peer's slot (`Peer::ud_addr`).
  std::vector<std::optional<fabric::EndpointAddr>> ud_table_{};
  std::shared_ptr<const std::vector<std::string>> ud_values_{};
  std::optional<pmi::CollectiveTicket> ud_ticket_{};
  /// Ring: opened when the table is complete. Non-blocking: created by the
  /// first resolution, opened when the shared table arrived.
  std::unique_ptr<sim::Gate> ud_table_gate_{};
  std::unique_ptr<sim::Mailbox<RingEntry>> ring_entries_{};

  // Flat handler table indexed by handler id (ids are small and dense);
  // dispatch is a bounds check + vector load instead of a map lookup.
  std::vector<AmHandler> handlers_{};
  // QPs of evicted connections: kept alive (deactivated) so in-flight
  // traffic stays safe. Normally reclaimed when the drain resolves
  // (`reclaim_retired`); anything still here at finalize is destroyed
  // then as a backstop.
  std::vector<fabric::QueuePair*> retired_qps_{};
  std::uint32_t barrier_next_round_ = 0;
  std::map<std::uint32_t, std::unique_ptr<BarrierRound>> barrier_rounds_{};

  std::unique_ptr<sim::JoinCounter> listeners_done_{};
  std::uint32_t listener_count_ = 0;
  std::uint64_t pending_evictions_ = 0;
  std::unique_ptr<sim::Trigger> evictions_settled_{};

  RkeyHook* rkey_hook_ = nullptr;

  // Large-message tiering state.
  RendezvousSink rendezvous_sink_{};
  std::map<std::uint32_t, RdvPending> rdv_pending_{};
  /// Registered buffers kMsg streams land in, slot i in VA segment i + 1
  /// (make_va_base); a null space is an unused segment. Every registered
  /// buffer is granted to a landing, except at most one free spare.
  struct LandingBuffer {
    std::unique_ptr<fabric::AddressSpace> space;
    fabric::RKey rkey = 0;
  };
  std::vector<LandingBuffer> landing_pool_{};
  std::optional<std::size_t> landing_spare_{};
  /// Fired when a FIN frees a landing buffer; RTSs wait on it while every
  /// segment is busy.
  sim::Trigger landing_freed_;
  /// Granted landings awaiting their FIN, keyed by (initiator, seq).
  struct Landing {
    std::size_t buffer = 0;
    std::uint64_t len = 0;
    std::uint16_t handler = 0;
  };
  std::map<std::pair<RankId, std::uint32_t>, Landing> landings_{};
  /// Stream sequence shared by rendezvous and pipelined transfers so every
  /// concurrent stream toward one peer carries a distinct (pair, seq) key
  /// for the fragment-ordering invariant.
  std::uint32_t rdv_seq_ = 0;

  sim::StatSet stats_{};
};

/// A whole simulated job: fabric + PMI + one conduit per PE.
class ConduitJob {
 public:
  ConduitJob(sim::Engine& engine, JobConfig config);
  ConduitJob(const ConduitJob&) = delete;
  ConduitJob& operator=(const ConduitJob&) = delete;

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const JobConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return config_.ranks; }
  [[nodiscard]] NodeId node_of(RankId rank) const;
  /// Number of PEs on the given node (the last node may be partial).
  [[nodiscard]] std::uint32_t ranks_on_node(NodeId node) const;

  [[nodiscard]] fabric::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] pmi::JobManager& pmi() noexcept { return *pmi_; }
  [[nodiscard]] Conduit& conduit(RankId rank);

  /// Spawn `body` for every PE and orchestrate finalization: each PE's
  /// conduit is finalized after all bodies completed. The caller then runs
  /// the engine to completion.
  void spawn_all(std::function<sim::Task<>(Conduit&)> body);

  /// Aggregate stats over all conduits.
  [[nodiscard]] sim::StatSet aggregate_stats() const;

  /// Attach a protocol observer (`check::InvariantChecker`,
  /// `telemetry::ConnectionTimeline`, `EventLog`, ...). Observers are
  /// notified in attachment order; attaching one twice is a no-op. Every
  /// observer must outlive the job run or detach itself first.
  void add_observer(ProtocolObserver* observer);
  void remove_observer(ProtocolObserver* observer);

 private:
  friend class Conduit;

  struct NodeBarrier {
    explicit NodeBarrier(sim::Engine& engine) : trigger(engine) {}
    sim::Trigger trigger;
    std::uint32_t arrived = 0;
    std::uint64_t round = 0;
  };

  sim::Engine& engine_;
  JobConfig config_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<pmi::JobManager> pmi_;
  std::vector<std::unique_ptr<Conduit>> conduits_{};
  std::vector<std::unique_ptr<NodeBarrier>> node_barriers_{};
  std::vector<ProtocolObserver*> observers_{};
};

}  // namespace odcm::core
