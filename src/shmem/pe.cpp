// ShmemPe: initialization paths, remote memory access, atomics, ordering.
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

namespace {
// Counter and phase ids of this file (sim::stat_id).
const sim::StatId kShmemPut = sim::stat_id("shmem_put");
const sim::StatId kShmemGet = sim::stat_id("shmem_get");
const sim::StatId kShmemAtomic = sim::stat_id("shmem_atomic");

/// Whether `nelems` elements of `elem` bytes, `stride` elements apart, fit
/// in a `size`-byte buffer: the last one starts at
/// (nelems - 1) * stride * elem. Checked by division, so nothing can wrap.
bool strided_fits(std::uint64_t size, std::uint32_t stride, std::uint32_t elem,
                  std::uint32_t nelems) {
  if (nelems == 0) return true;
  if (elem > size) return false;
  const std::uint64_t step = std::uint64_t{stride} * elem;
  return (size - elem) / step >= nelems - 1;
}
}  // namespace

using detail::kCollDataHandler;
using detail::kSegInfoHandler;

ShmemPe::ShmemPe(ShmemJob& job, RankId rank)
    : job_(job),
      rank_(rank),
      conduit_(job.conduit_job().conduit(rank)),
      heap_space_(rank, fabric::make_va_base(rank),
                  job.shmem_config().heap_bytes),
      allocator_(job.shmem_config().heap_bytes),
      coll_matches_(conduit_.engine()) {}

ShmemPe::~ShmemPe() = default;

std::uint32_t ShmemPe::n_pes() const noexcept {
  return job_.conduit_job().ranks();
}

sim::Engine& ShmemPe::engine() noexcept { return conduit_.engine(); }

const ShmemConfig& ShmemPe::config() const noexcept {
  return job_.shmem_config();
}

// ---- lifecycle ----

sim::Task<> ShmemPe::start_pes() {
  if (initialized_) {
    throw std::logic_error("ShmemPe::start_pes: already initialized");
  }
  sim::Engine& eng = engine();
  sim::StatSet& st = stats();
  const ShmemConfig& cfg = config();
  const sim::Time t0 = eng.now();

  puts_drained_ = std::make_unique<sim::Trigger>(eng);
  conduit_.register_handler(
      kCollDataHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_coll_data(src, std::move(payload));
      });
  conduit_.register_handler(
      kSegInfoHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        // A peer's triplet is its owner's own: check it, store nothing.
        if (job_.pe(src).known_segment(src) !=
            SegmentInfo::deserialize(payload)) {
          throw std::logic_error("ShmemPe: segment triplet from PE " +
                                 std::to_string(src) +
                                 " differs from its owner's");
        }
        if (++segments_received_ == n_pes() - 1 && segments_gate_) {
          segments_gate_->open();
        }
        co_return;
      });

  {
    sim::PhaseTimer timer(eng, &st, "shared_memory_setup");
    std::uint32_t local_pes =
        job_.conduit_job().ranks_on_node(conduit_.node());
    co_await eng.delay(cfg.shared_memory_base +
                       cfg.shared_memory_per_pe * local_pes);
  }

  {
    sim::PhaseTimer timer(eng, &st, "memory_registration");
    if (cfg.registration == RegistrationMode::kEager) {
      // Whole-heap pin during init. The *modeled* heap size (DESIGN.md §2)
      // is charged inside the HCA cost model, the single place both this
      // path and the chunked on-demand path price registration.
      std::uint64_t modeled = std::max(
          cfg.modeled_heap_bytes != 0 ? cfg.modeled_heap_bytes
                                      : cfg.heap_bytes,
          cfg.heap_bytes);
      heap_region_ = co_await conduit_.hca().register_memory(
          heap_space_, heap_space_.base(), heap_space_.size(), modeled);
      segment_ =
          SegmentInfo{heap_region_.addr, heap_region_.size, heap_region_.rkey};
    } else {
      // On-demand: nothing is pinned yet. Peers learn the heap geometry
      // (rkey 0 = "fault for it") and chunks register lazily on first
      // remote access (DESIGN.md §5.15).
      reg_init();
      segment_ = SegmentInfo{heap_space_.base(), heap_space_.size(), 0};
    }
  }

  // The RMA data path's rkey answers, initiator and target side (plain
  // installs — no events, so the default trace is unchanged).
  conduit_.set_rkey_hook(this);
  conduit_.set_rendezvous_sink(
      [this](RankId src, core::RdvOp, fabric::VirtAddr raddr,
             std::uint64_t len) -> sim::Task<std::vector<core::RdvRange>> {
        return rendezvous_sink(src, raddr, len);
      });

  const bool on_demand =
      conduit_.config().connection_mode == core::ConnectionMode::kOnDemand;
  if (on_demand) {
    // Proposed design: the segment triplet rides on the connection
    // request/reply packets (paper §IV-C). Under on-demand registration
    // the payload additionally carries the hot-chunk rkey table.
    if (reg_on_demand()) {
      conduit_.set_payload_hooks(
          [this](RankId peer) { return reg_piggyback_payload(peer); },
          [this](RankId peer, std::span<const std::byte> payload) {
            reg_consume_payload(peer, payload);
          });
    } else {
      conduit_.set_payload_hooks(
          [this](RankId) { return segment_->serialize(); },
          [this](RankId peer, std::span<const std::byte> payload) {
            peer_segments_.try_emplace(peer,
                                       SegmentInfo::deserialize(payload));
          });
    }
  }

  co_await conduit_.init();
  conduit_.set_ready();

  if (conduit_.config().intranode_transport == core::IntranodeTransport::kShm) {
    // Shm transport: cross-map this PE's heap into the node's shared
    // domain — no UD handshake, no piggybacked rkey involved (DESIGN.md
    // §5.14). The intra-node barrier guarantees every local peer has
    // exported before any same-node RMA; shm-routed RMA resolves no rkey,
    // so no same-node triplet is stored.
    sim::PhaseTimer timer(eng, &st, "shm_segment_exchange");
    co_await conduit_.shm_export(heap_space_, heap_space_.base(),
                                 heap_space_.size());
    co_await conduit_.barrier_intranode();
  }

  if (!on_demand) {
    // Current design: after the static mesh is up, every PE sends its
    // triplet to every other PE over active messages (inefficiency #2 in
    // paper §IV-B).
    sim::PhaseTimer timer(eng, &st, "segment_exchange");
    co_await broadcast_am_segments();
    segments_exchanged_ = true;
  }

  {
    sim::PhaseTimer timer(eng, &st, "init_barrier");
    co_await conduit_.barrier_init();
    co_await conduit_.barrier_init();
  }

  {
    sim::PhaseTimer timer(eng, &st, "init_other");
    co_await eng.delay(cfg.init_misc);
  }

  st.add_time("start_pes_total", eng.now() - t0);
  initialized_ = true;
}

sim::Task<> ShmemPe::broadcast_am_segments() {
  const std::uint32_t n = n_pes();
  if (n == 1) co_return;
  if (conduit_.bulk_modeled()) {
    // Bulk path: charge the per-PE cost of sending N-1 small AMs; the
    // triplets are then read from their owners (every PE registered before
    // the PMI fence inside conduit init, so the data is available).
    co_await engine().delay(
        (n - 1) * (fabric::kHcaTxOverhead + fabric::kMinPacketGap));
    co_return;
  }
  segments_gate_ = std::make_unique<sim::Gate>(engine());
  if (segments_received_ == n - 1) {
    segments_gate_->open();
  }
  std::vector<std::byte> mine = segment_->serialize();
  for (RankId r = 0; r < n; ++r) {
    if (r != rank_) {
      co_await conduit_.am_send(r, kSegInfoHandler, mine);
    }
  }
  co_await segments_gate_->wait();
}

sim::Task<> ShmemPe::finalize() {
  if (!initialized_) {
    throw std::logic_error("ShmemPe::finalize: not initialized");
  }
  // Proper termination needs a full barrier even for communication-free
  // programs (paper §V-B) — in on-demand mode this is where Hello World
  // pays for its few tree connections.
  co_await quiet();
  if (reg_cache_ != nullptr) {
    // Let any in-flight registration drain settle while every peer's AM
    // listener is still guaranteed to be serving (pre-barrier).
    co_await reg_quiesce();
  }
  co_await conduit_.barrier_global();
  initialized_ = false;
}

// ---- addressing ----

std::span<std::byte> ShmemPe::local_window(SymAddr addr, std::size_t len) {
  return heap_space_.window(heap_space_.base() + addr, len);
}

std::optional<SegmentInfo> ShmemPe::known_segment(RankId dst) const {
  if (dst == rank_) return segment_;
  if (dst >= n_pes()) return std::nullopt;
  if (segments_exchanged_) return job_.pe(dst).segment_;
  auto it = peer_segments_.find(dst);
  if (it == peer_segments_.end()) return std::nullopt;
  return it->second;
}

SegmentInfo ShmemPe::peer_segment(RankId dst) const {
  std::optional<SegmentInfo> info = known_segment(dst);
  if (!info) {
    throw std::logic_error("ShmemPe: no segment info for peer " +
                           std::to_string(dst));
  }
  return *info;
}

void ShmemPe::check_heap_range(SymAddr addr, std::uint64_t len) const {
  const std::uint64_t size = config().heap_bytes;
  if (len > size || addr > size - len) {
    throw std::out_of_range("ShmemPe: symmetric address out of heap");
  }
}

fabric::VirtAddr ShmemPe::remote_va(RankId dst, SymAddr addr,
                                    std::uint64_t len) const {
  if (dst >= n_pes()) {
    throw std::out_of_range("ShmemPe: bad rank " + std::to_string(dst));
  }
  check_heap_range(addr, len);
  return fabric::make_va_base(dst) + addr;
}

// ---- local fast paths ----

sim::Task<> ShmemPe::local_copy_in(SymAddr dest,
                                   std::span<const std::byte> data) {
  co_await engine().delay(
      kLocalCopyLatency +
      static_cast<sim::Time>(static_cast<double>(data.size()) /
                             kLocalBytesPerNs));
  auto window = local_window(dest, data.size());
  std::copy(data.begin(), data.end(), window.begin());
}

sim::Task<> ShmemPe::local_copy_out(SymAddr src, std::span<std::byte> dest) {
  co_await engine().delay(
      kLocalCopyLatency +
      static_cast<sim::Time>(static_cast<double>(dest.size()) /
                             kLocalBytesPerNs));
  auto window = local_window(src, dest.size());
  std::copy(window.begin(), window.end(), dest.begin());
}

sim::Task<std::uint64_t> ShmemPe::local_atomic(SymAddr addr,
                                               const core::RmaOp& op) {
  co_await engine().delay(kLocalCopyLatency);
  co_return fabric::execute(core::work_request(op, 0, op.len(), 0),
                            local_window(addr, op.len()), {});
}

// ---- RMA ----

sim::Task<> ShmemPe::put(RankId dst, SymAddr dest,
                         std::span<const std::byte> data) {
  stats().add(kShmemPut);
  if (data.empty()) {
    // Zero-length puts are complete no-ops (OpenSHMEM 1.4 §9.3): no
    // connection, no registration fault, no credit, no modeled latency.
    co_return;
  }
  const fabric::VirtAddr va = remote_va(dst, dest, data.size());
  if (dst == rank_) {
    co_await local_copy_in(dest, data);
    co_return;
  }
  const fabric::Completion wc = co_await conduit_.rma(
      dst, {.kind = core::RmaKind::kPut, .raddr = va, .src = data});
  if (!wc.ok()) {
    throw std::runtime_error("ShmemPe::put: remote write failed");
  }
}

void ShmemPe::put_nbi(RankId dst, SymAddr dest,
                      std::span<const std::byte> data) {
  ++pending_puts_;
  engine().spawn([](ShmemPe& pe, RankId dst, SymAddr dest,
                    std::vector<std::byte> data) -> sim::Task<> {
    co_await pe.put(dst, dest, data);
    if (--pe.pending_puts_ == 0) {
      pe.puts_drained_->notify_all();
    }
  }(*this, dst, dest, std::vector<std::byte>(data.begin(), data.end())));
}

sim::Task<> ShmemPe::get(RankId dst, SymAddr src, std::span<std::byte> dest) {
  stats().add(kShmemGet);
  if (dest.empty()) {
    co_return;  // zero-length: no-op, mirrors put()
  }
  const fabric::VirtAddr va = remote_va(dst, src, dest.size());
  if (dst == rank_) {
    co_await local_copy_out(src, dest);
    co_return;
  }
  const fabric::Completion wc = co_await conduit_.rma(
      dst, {.kind = core::RmaKind::kGet, .raddr = va, .dest = dest});
  if (!wc.ok()) {
    throw std::runtime_error("ShmemPe::get: remote read failed");
  }
}

void ShmemPe::get_nbi(RankId dst, SymAddr src, std::span<std::byte> dest) {
  // Shares the outstanding-op counter with put_nbi: shmem_quiet completes
  // both kinds (OpenSHMEM 1.3 §9.8).
  ++pending_puts_;
  engine().spawn([](ShmemPe& pe, RankId dst, SymAddr src,
                    std::span<std::byte> dest) -> sim::Task<> {
    co_await pe.get(dst, src, dest);
    if (--pe.pending_puts_ == 0) {
      pe.puts_drained_->notify_all();
    }
  }(*this, dst, src, dest));
}

// ---- atomics ----

sim::Task<std::uint64_t> ShmemPe::atomic(RankId dst, SymAddr addr,
                                         core::RmaOp op) {
  stats().add(kShmemAtomic);
  op.raddr = remote_va(dst, addr, sizeof(std::uint64_t));
  if (dst == rank_) {
    co_return co_await local_atomic(addr, op);
  }
  const fabric::Completion wc = co_await conduit_.rma(dst, op);
  if (!wc.ok()) throw std::runtime_error("ShmemPe: atomic failed");
  co_return wc.atomic_old;
}

sim::Task<std::uint64_t> ShmemPe::atomic_fetch_add(RankId dst, SymAddr addr,
                                                   std::uint64_t v) {
  return atomic(dst, addr, {.kind = core::RmaKind::kFetchAdd, .operand = v});
}

sim::Task<std::uint64_t> ShmemPe::atomic_fetch_inc(RankId dst, SymAddr addr) {
  co_return co_await atomic_fetch_add(dst, addr, 1);
}

sim::Task<> ShmemPe::atomic_add(RankId dst, SymAddr addr, std::uint64_t v) {
  (void)co_await atomic_fetch_add(dst, addr, v);
}

sim::Task<> ShmemPe::atomic_inc(RankId dst, SymAddr addr) {
  (void)co_await atomic_fetch_add(dst, addr, 1);
}

sim::Task<std::uint64_t> ShmemPe::atomic_swap(RankId dst, SymAddr addr,
                                              std::uint64_t v) {
  return atomic(dst, addr, {.kind = core::RmaKind::kSwap, .operand = v});
}

sim::Task<std::uint64_t> ShmemPe::atomic_compare_swap(RankId dst, SymAddr addr,
                                                      std::uint64_t expect,
                                                      std::uint64_t desired) {
  return atomic(dst, addr,
                {.kind = core::RmaKind::kCompareSwap,
                 .operand = desired,
                 .expect = expect});
}

// ---- strided transfers / local pointers ----

void ShmemPe::iput(RankId dst, SymAddr dest, std::span<const std::byte> data,
                   std::uint32_t dst_stride, std::uint32_t src_stride,
                   std::uint32_t elem, std::uint32_t nelems) {
  if (dst_stride == 0 || src_stride == 0 || elem == 0) {
    throw std::invalid_argument("ShmemPe::iput: zero stride or element");
  }
  if (!strided_fits(data.size(), src_stride, elem, nelems)) {
    throw std::out_of_range("ShmemPe::iput: source too small");
  }
  if (nelems == 0) return;  // validated no-op: nothing issued, nothing pinned
  for (std::uint32_t k = 0; k < nelems; ++k) {
    put_nbi(dst,
            dest + static_cast<std::uint64_t>(k) * dst_stride * elem,
            data.subspan(static_cast<std::size_t>(k) * src_stride * elem,
                         elem));
  }
}

sim::Task<> ShmemPe::iget(RankId dst, std::span<std::byte> dest, SymAddr src,
                          std::uint32_t dst_stride, std::uint32_t src_stride,
                          std::uint32_t elem, std::uint32_t nelems) {
  if (dst_stride == 0 || src_stride == 0 || elem == 0) {
    throw std::invalid_argument("ShmemPe::iget: zero stride or element");
  }
  if (!strided_fits(dest.size(), dst_stride, elem, nelems)) {
    throw std::out_of_range("ShmemPe::iget: destination too small");
  }
  if (nelems == 0) co_return;  // validated no-op
  for (std::uint32_t k = 0; k < nelems; ++k) {
    co_await get(dst,
                 src + static_cast<std::uint64_t>(k) * src_stride * elem,
                 dest.subspan(static_cast<std::size_t>(k) * dst_stride * elem,
                              elem));
  }
}

std::optional<std::span<std::byte>> ShmemPe::local_ptr(RankId peer,
                                                       SymAddr addr,
                                                       std::size_t len) {
  if (peer >= n_pes()) {
    throw std::out_of_range("ShmemPe::local_ptr: bad rank");
  }
  if (job_.conduit_job().node_of(peer) != conduit_.node()) {
    return std::nullopt;  // different node: no load/store path
  }
  return job_.pe(peer).local_window(addr, len);
}

// ---- ordering ----

sim::Task<> ShmemPe::quiet() {
  while (pending_puts_ > 0) {
    co_await puts_drained_->wait();
  }
}

sim::Task<> ShmemPe::wait_until(SymAddr addr, WaitCmp cmp,
                                std::uint64_t value) {
  auto satisfied = [&] {
    std::uint64_t current = local_read<std::uint64_t>(addr);
    switch (cmp) {
      case WaitCmp::kEq: return current == value;
      case WaitCmp::kNe: return current != value;
      case WaitCmp::kGt: return current > value;
      case WaitCmp::kGe: return current >= value;
      case WaitCmp::kLt: return current < value;
      case WaitCmp::kLe: return current <= value;
    }
    return false;
  };
  while (!satisfied()) {
    co_await engine().delay(kWaitPollInterval);
  }
}

sim::Task<> ShmemPe::barrier_all() {
  co_await quiet();
  co_await conduit_.barrier_global();
  stats().add("shmem_barrier_all");
}

// ---- distributed locking ----
//
// The word on PE 0 is the authoritative lock; 0 = free, rank+1 = holder.
// Acquisition spins on remote compare-and-swap with exponential backoff —
// the simple (non-queueing) algorithm several OpenSHMEM implementations
// ship for shmem_set_lock.

sim::Task<> ShmemPe::set_lock(SymAddr lock) {
  stats().add("shmem_lock_acquire");
  sim::Time backoff = 2 * sim::usec;
  while (true) {
    std::uint64_t old =
        co_await atomic_compare_swap(0, lock, 0, rank_ + 1);
    if (old == 0) co_return;
    co_await engine().delay(backoff);
    if (backoff < 64 * sim::usec) backoff *= 2;
  }
}

sim::Task<bool> ShmemPe::test_lock(SymAddr lock) {
  std::uint64_t old = co_await atomic_compare_swap(0, lock, 0, rank_ + 1);
  co_return old == 0;
}

sim::Task<> ShmemPe::clear_lock(SymAddr lock) {
  // Complete all our critical-section stores before releasing.
  co_await quiet();
  std::uint64_t old = co_await atomic_swap(0, lock, 0);
  if (old != rank_ + 1) {
    throw std::logic_error("ShmemPe::clear_lock: not the lock holder");
  }
  stats().add("shmem_lock_release");
}

}  // namespace odcm::shmem
