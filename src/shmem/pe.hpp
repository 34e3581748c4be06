// The per-PE OpenSHMEM context.
//
// API mapping to the OpenSHMEM 1.x C bindings (blocking calls become
// awaitables; `SymAddr` offsets replace symmetric pointers):
//
//   start_pes / shmem_init    -> start_pes()
//   shmem_finalize            -> finalize()
//   shmalloc / shfree         -> heap().allocate / deallocate
//   shmem_putmem / getmem     -> put / get (+ typed put_value/get_value)
//   shmem_put_nbi             -> put_nbi, completed by quiet()
//   shmem_longlong_fadd/finc/add/inc/swap/cswap -> atomic_*
//   shmem_wait_until          -> wait_until
//   shmem_barrier_all         -> barrier_all()
//   shmem_broadcast64         -> broadcast
//   shmem_fcollect64          -> fcollect
//   shmem_longlong_sum_to_all (etc.) -> reduce<T>
//
// Two initialization paths exist, selected by the job configuration: the
// baseline ("current design": static all-to-all connections, blocking PMI,
// AM broadcast of segment triplets, global init barriers) and the paper's
// proposed design (on-demand connections, PMIX_Iallgather, piggybacked
// segment exchange, intra-node init barriers).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/conduit.hpp"
#include "fabric/address_space.hpp"
#include "shmem/config.hpp"
#include "shmem/heap.hpp"
#include "shmem/types.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace odcm::fabric::reg {
class RegistrationCache;
}  // namespace odcm::fabric::reg

namespace odcm::shmem {

class ShmemJob;

namespace detail {
/// Conduit AM handler ids used by the OpenSHMEM layer. `kFirstUserHandler
/// + 2` belongs to MPI (`mpi::kMpiHandler`), which shares the conduit in
/// hybrid jobs.
inline constexpr std::uint16_t kCollDataHandler = core::kFirstUserHandler;
inline constexpr std::uint16_t kSegInfoHandler = core::kFirstUserHandler + 1;
/// On-demand registration protocol (rkey faults / invalidations); only
/// registered when `ShmemConfig::registration == kOnDemand`.
inline constexpr std::uint16_t kRegHandler = core::kFirstUserHandler + 3;
/// Collective kinds multiplexed over kCollDataHandler.
inline constexpr std::uint8_t kBcastKind = 1;
inline constexpr std::uint8_t kCollectKind = 2;
inline constexpr std::uint8_t kReduceKind = 3;
inline constexpr std::uint8_t kAlltoallKind = 4;

constexpr std::uint64_t coll_key(std::uint8_t kind, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(kind) << 56) | seq;
}
}  // namespace detail

/// Implements the conduit's rkey hook (`resolve`, `accept_cts`): the
/// heap-wide rkey under eager registration, per-chunk faults and leases
/// under on-demand registration.
class ShmemPe : private core::RkeyHook {
 public:
  ShmemPe(ShmemJob& job, RankId rank);
  ~ShmemPe() override;
  ShmemPe(const ShmemPe&) = delete;
  ShmemPe& operator=(const ShmemPe&) = delete;

  [[nodiscard]] RankId rank() const noexcept { return rank_; }
  [[nodiscard]] std::uint32_t n_pes() const noexcept;
  [[nodiscard]] ShmemJob& job() noexcept { return job_; }
  [[nodiscard]] core::Conduit& conduit() noexcept { return conduit_; }
  [[nodiscard]] sim::Engine& engine() noexcept;

  [[nodiscard]] const ShmemConfig& config() const noexcept;
  [[nodiscard]] SymmetricAllocator& heap() noexcept { return allocator_; }
  [[nodiscard]] sim::StatSet& stats() noexcept { return conduit_.stats(); }

  // ---- lifecycle ----

  /// OpenSHMEM initialization; phase breakdown recorded in stats()
  /// ("shared_memory_setup", "memory_registration", "pmi_exchange",
  /// "connection_setup", "segment_exchange", "init_barrier", "init_other").
  [[nodiscard]] sim::Task<> start_pes();

  /// OpenSHMEM finalization: global barrier (paper §V-B: required for
  /// proper termination even for communication-free programs).
  [[nodiscard]] sim::Task<> finalize();

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

  // ---- local heap access ----

  [[nodiscard]] std::span<std::byte> local_window(SymAddr addr,
                                                  std::size_t len);
  template <typename T>
  [[nodiscard]] T local_read(SymAddr addr) {
    T value;
    auto window = local_window(addr, sizeof(T));
    std::memcpy(&value, window.data(), sizeof(T));
    return value;
  }
  template <typename T>
  void local_write(SymAddr addr, T value) {
    auto window = local_window(addr, sizeof(T));
    std::memcpy(window.data(), &value, sizeof(T));
  }

  // ---- remote memory access ----

  /// shmem_putmem: blocking put of `data` to `dest` on PE `dst`.
  [[nodiscard]] sim::Task<> put(RankId dst, SymAddr dest,
                                std::span<const std::byte> data);
  /// shmem_put_nbi: non-blocking put, completed by quiet().
  void put_nbi(RankId dst, SymAddr dest, std::span<const std::byte> data);
  /// shmem_getmem: blocking get from `src` on PE `dst` into `dest`.
  [[nodiscard]] sim::Task<> get(RankId dst, SymAddr src,
                                std::span<std::byte> dest);
  /// shmem_get_nbi: non-blocking get, completed by quiet(). `dest` must
  /// stay alive (and untouched) until the next quiet()/fence() returns.
  void get_nbi(RankId dst, SymAddr src, std::span<std::byte> dest);

  template <typename T>
  [[nodiscard]] sim::Task<> put_value(RankId dst, SymAddr dest, T value) {
    std::vector<std::byte> bytes(sizeof(T));
    std::memcpy(bytes.data(), &value, sizeof(T));
    co_await put(dst, dest, bytes);
  }
  template <typename T>
  [[nodiscard]] sim::Task<T> get_value(RankId dst, SymAddr src) {
    std::vector<std::byte> bytes(sizeof(T));
    co_await get(dst, src, bytes);
    T value;
    std::memcpy(&value, bytes.data(), sizeof(T));
    co_return value;
  }

  // ---- atomics (64-bit) ----

  [[nodiscard]] sim::Task<std::uint64_t> atomic_fetch_add(RankId dst,
                                                          SymAddr addr,
                                                          std::uint64_t v);
  [[nodiscard]] sim::Task<std::uint64_t> atomic_fetch_inc(RankId dst,
                                                          SymAddr addr);
  [[nodiscard]] sim::Task<> atomic_add(RankId dst, SymAddr addr,
                                       std::uint64_t v);
  [[nodiscard]] sim::Task<> atomic_inc(RankId dst, SymAddr addr);
  [[nodiscard]] sim::Task<std::uint64_t> atomic_swap(RankId dst, SymAddr addr,
                                                     std::uint64_t v);
  [[nodiscard]] sim::Task<std::uint64_t> atomic_compare_swap(
      RankId dst, SymAddr addr, std::uint64_t expect, std::uint64_t desired);

  /// shmem_iput: strided put — element k of `data` (elements of `elem`
  /// bytes, taken every `src_stride` elements) lands at
  /// dest + k*dst_stride*elem on PE `dst`. Non-blocking; complete with
  /// quiet().
  void iput(RankId dst, SymAddr dest, std::span<const std::byte> data,
            std::uint32_t dst_stride, std::uint32_t src_stride,
            std::uint32_t elem, std::uint32_t nelems);

  /// shmem_iget: strided get (blocking).
  [[nodiscard]] sim::Task<> iget(RankId dst, std::span<std::byte> dest,
                                 SymAddr src, std::uint32_t dst_stride,
                                 std::uint32_t src_stride, std::uint32_t elem,
                                 std::uint32_t nelems);

  /// shmem_ptr: direct load/store access to a peer's symmetric memory when
  /// the peer lives on the same node (returns nullopt otherwise).
  [[nodiscard]] std::optional<std::span<std::byte>> local_ptr(
      RankId peer, SymAddr addr, std::size_t len);

  // ---- ordering / synchronization ----

  /// shmem_quiet: wait for completion of all outstanding non-blocking puts.
  [[nodiscard]] sim::Task<> quiet();

  /// shmem_fence: order outstanding puts before subsequent ones. RC
  /// delivery is in-order per connection, so a conservative quiet()
  /// satisfies the (stronger) requirement.
  [[nodiscard]] sim::Task<> fence() { return quiet(); }

  /// shmem_wait_until on a local 64-bit symmetric variable.
  [[nodiscard]] sim::Task<> wait_until(SymAddr addr, WaitCmp cmp,
                                       std::uint64_t value);

  /// shmem_barrier_all.
  [[nodiscard]] sim::Task<> barrier_all();

  // ---- distributed locking (shmem_set_lock / shmem_clear_lock) ----

  /// Acquire the global lock at symmetric address `lock` (an 8-byte
  /// zero-initialized word; the instance on PE 0 is authoritative).
  /// Spins with exponential backoff on remote compare-and-swap.
  [[nodiscard]] sim::Task<> set_lock(SymAddr lock);

  /// Non-blocking acquire; true on success (shmem_test_lock semantics,
  /// inverted: returns whether the lock was taken).
  [[nodiscard]] sim::Task<bool> test_lock(SymAddr lock);

  /// Release the lock. Must be called by the current holder.
  [[nodiscard]] sim::Task<> clear_lock(SymAddr lock);

  // ---- collectives ----

  /// shmem_broadcast: `len` bytes at `addr` from `root` to all PEs.
  [[nodiscard]] sim::Task<> broadcast(RankId root, SymAddr addr,
                                      std::uint32_t len);

  /// shmem_fcollect: every PE contributes `block_len` bytes at `src`; all
  /// PEs end with the concatenation (by rank) at `dest`.
  [[nodiscard]] sim::Task<> fcollect(SymAddr dest, SymAddr src,
                                     std::uint32_t block_len);

  /// shmem_collect: variable-size flavour — every PE contributes `my_len`
  /// bytes; all PEs end with the rank-ordered concatenation at `dest`
  /// (which must be large enough for the sum of all contributions).
  [[nodiscard]] sim::Task<> collect(SymAddr dest, SymAddr src,
                                    std::uint32_t my_len);

  /// shmem_alltoall: PE i's block j (of `block_len` bytes, at
  /// src + j*block_len) ends up at PE j's dest + i*block_len.
  [[nodiscard]] sim::Task<> alltoall(SymAddr dest, SymAddr src,
                                     std::uint32_t block_len);

  /// shmem_*_to_all reduction over `count` elements of T at `src` into
  /// `dest` on every PE. T must be trivially copyable and support the
  /// chosen operator.
  template <typename T>
  [[nodiscard]] sim::Task<> reduce(SymAddr dest, SymAddr src,
                                   std::uint32_t count, ReduceOp op) {
    return reduce_impl(dest, src, count, sizeof(T), op, &combine_span<T>);
  }

  // ---- resource accounting ----

  [[nodiscard]] std::uint64_t communicating_peers() const {
    return conduit_.connected_peer_count();
  }
  [[nodiscard]] std::uint64_t endpoints_created() const {
    return conduit_.endpoints_created();
  }

  /// `dst`'s segment triplet as far as this PE has learned it: its own
  /// from registration on, a peer's from the handshake piggyback that
  /// reached it (proposed design), or every owner's own once the static
  /// design's exchange completed. nullopt for a peer not yet learned.
  [[nodiscard]] std::optional<SegmentInfo> known_segment(RankId dst) const;

  /// The on-demand pin-down cache (nullptr under eager registration).
  [[nodiscard]] fabric::reg::RegistrationCache* registration_cache() noexcept {
    return reg_cache_.get();
  }

 private:
  friend class ShmemJob;

  /// `known_segment(dst)`; throws std::logic_error for a peer not learned.
  [[nodiscard]] SegmentInfo peer_segment(RankId dst) const;
  /// Throw std::out_of_range unless `[addr, addr + len)` lies inside the
  /// symmetric heap (written so `addr + len` cannot wrap).
  void check_heap_range(SymAddr addr, std::uint64_t len) const;
  /// Remote VA of a symmetric address: the heap lives at a
  /// rank-deterministic base on every PE, so no segment info is needed.
  /// Validates the rank and the bounds.
  [[nodiscard]] fabric::VirtAddr remote_va(RankId dst, SymAddr addr,
                                           std::uint64_t len) const;
  sim::Task<> local_copy_in(SymAddr dest, std::span<const std::byte> data);
  sim::Task<> local_copy_out(SymAddr src, std::span<std::byte> dest);
  /// Shared body of the atomics: `op` carries the kind and operands.
  sim::Task<std::uint64_t> atomic(RankId dst, SymAddr addr, core::RmaOp op);
  /// `op` on this PE's own heap: `fabric::execute` after the local latency.
  sim::Task<std::uint64_t> local_atomic(SymAddr addr, const core::RmaOp& op);
  sim::Task<> broadcast_am_segments();

  // On-demand registration plumbing (implemented in pe_registration.cpp).
  [[nodiscard]] bool reg_on_demand() const noexcept;
  /// Construct the pin-down cache / rkey table and register the protocol
  /// handler. Called from start_pes before conduit init.
  void reg_init();
  /// Connection-handshake piggyback: own segment triplet (rkey 0) plus the
  /// hot-chunk rkey table; records `peer` as a sharer of every chunk sent.
  std::vector<std::byte> reg_piggyback_payload(RankId peer);
  void reg_consume_payload(RankId peer, std::span<const std::byte> payload);
  /// kRegHandler dispatch: fault request/reply, invalidation, ack.
  sim::Task<> handle_reg_message(RankId src, std::vector<std::byte> payload);
  /// Resolve the rkey of `dst`'s chunk, faulting it in if cold. Coalesces
  /// concurrent faults on the same chunk.
  sim::Task<fabric::RKey> reg_rkey(RankId dst, std::uint32_t chunk);
  void reg_report(core::ProtocolEvent::Kind kind, RankId peer,
                  std::uint32_t chunk, std::uint64_t rkey);
  /// Wait for in-flight chunk registrations / eviction drains to settle.
  sim::Task<> reg_quiesce();

  // Rkey resolution for the conduit's RMA data path (DESIGN.md §5.18).
  /// Initiator: the rkey hook.
  sim::Task<core::RkeyGrant> resolve(RankId dst, fabric::VirtAddr raddr,
                                     std::uint64_t len) override;
  std::optional<core::RkeyGrant> accept_cts(
      RankId dst, const core::RdvRange& range) override;
  /// Target: the rendezvous sink. Maps an RTS's [raddr, raddr+len) to
  /// postable ranges — the whole-heap rkey under eager registration, one
  /// pinned chunk per range under on-demand registration (the RTS doubles
  /// as a batched registration fault).
  sim::Task<std::vector<core::RdvRange>> rendezvous_sink(
      RankId src, fabric::VirtAddr raddr, std::uint64_t len);

  // Collective plumbing (implemented in collectives.cpp).
  sim::Task<> handle_coll_data(RankId src, std::vector<std::byte> payload);
  /// The one tree-broadcast body: off the root, receive `len` bytes under
  /// `key` into `addr`; then forward them to this PE's children in order.
  sim::Task<> tree_broadcast(std::uint64_t key, RankId root, SymAddr addr,
                             std::uint64_t len);
  /// Where the ring's chunk from PE `idx` lands; its size is the chunk's.
  using RingSlot = std::function<std::span<std::byte>(std::uint32_t idx)>;
  /// The one ring allgather (N-1 steps): this PE sends `mine`, its own
  /// chunk, to the right neighbour, then forwards each chunk it receives
  /// after copying it into `slot(idx)`. `mine` is read before the first
  /// suspension only.
  sim::Task<> ring_allgather(std::span<const std::byte> mine, RingSlot slot);
  /// Folds one received partial into the accumulator (combine_span<T>,
  /// the type-erased core of reduce<T>).
  using Combiner = void (*)(std::span<std::byte> acc,
                            std::span<const std::byte> in, ReduceOp op);
  sim::Task<> reduce_impl(SymAddr dest, SymAddr src, std::uint32_t count,
                          std::uint32_t elem, ReduceOp op, Combiner combine);

  ShmemJob& job_;
  RankId rank_;
  core::Conduit& conduit_;
  fabric::AddressSpace heap_space_;
  SymmetricAllocator allocator_;
  fabric::MemoryRegion heap_region_{};
  /// This PE's own triplet (set during memory registration).
  std::optional<SegmentInfo> segment_{};
  /// Triplets that arrived on a handshake piggyback, one per touched peer
  /// (DESIGN.md §5 item 21).
  std::unordered_map<RankId, SegmentInfo> peer_segments_{};
  /// The static design's exchange completed: every triplet is then read
  /// from its owner through the job, nothing is stored per peer.
  bool segments_exchanged_ = false;
  bool initialized_ = false;

  // On-demand registration state (null under the eager default).
  std::unique_ptr<fabric::reg::RegistrationCache> reg_cache_{};
  std::unique_ptr<fabric::reg::RkeyTable> rkey_table_{};

  // Non-blocking put tracking for quiet().
  std::uint64_t pending_puts_ = 0;
  std::unique_ptr<sim::Trigger> puts_drained_{};

  // Static-mode AM segment exchange bookkeeping.
  std::uint32_t segments_received_ = 0;
  std::unique_ptr<sim::Gate> segments_gate_{};

  // Collective state keyed by (kind, sequence).
  std::uint64_t bcast_seq_ = 0;
  std::uint64_t collect_seq_ = 0;
  std::uint64_t reduce_seq_ = 0;
  /// Incoming collective chunks, matched by coll_key(kind, sequence).
  sim::MatchTable<std::uint64_t, std::vector<std::byte>> coll_matches_;
};

}  // namespace odcm::shmem
