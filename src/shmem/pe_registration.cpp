// Rkey resolution for the RMA data path (DESIGN.md §5.18) and the
// shmem-side glue of the on-demand rkey-fault protocol (DESIGN.md §5.15).
//
// Roles per PE:
//  * target  — owns a `fabric::reg::RegistrationCache` over its symmetric
//    heap; serves rkey faults (registering chunks lazily), answers
//    rendezvous RTSs with pinned sink ranges, and runs the epoch-guarded
//    invalidation drain when the LRU pin cap evicts a chunk.
//  * initiator — keeps granted rkeys in a `fabric::reg::RkeyTable`; as the
//    conduit's rkey hook it splits RC RMAs at chunk boundaries, faults cold
//    chunks in on first use, and adopts the rkeys a CTS grants.
//
// Safety argument for eviction (mirrors the conduit's disconnect notices):
// the target defers `deregister_memory` until every sharer acked the
// invalidation, and each initiator defers its ack until the lease count of
// the dying rkey drains to zero — a lease spans resolve..completion of one
// RMA, so by the time the last ack is sent every RMA that ever resolved
// the rkey has completed at the target. A use-after-deregistration is
// therefore impossible by construction; `check::InvariantChecker` verifies
// it anyway from the kReg* event stream.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/wire.hpp"
#include "fabric/reg/registration_cache.hpp"
#include "fabric/reg/rkey_table.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

namespace {
// Counter and phase ids of this file (sim::stat_id).
const sim::StatId kRegRkeyHits = sim::stat_id("reg_rkey_hits");
const sim::StatId kRegRkeyMisses = sim::stat_id("reg_rkey_misses");
}  // namespace

using core::ProtocolEvent;
using core::RegMsgType;
using core::RegPacket;
using fabric::reg::RegCacheConfig;
using fabric::reg::RegEvent;
using fabric::reg::RegistrationCache;
using fabric::reg::RkeyLease;
using fabric::reg::RkeyTable;

bool ShmemPe::reg_on_demand() const noexcept {
  return config().registration == RegistrationMode::kOnDemand;
}

void ShmemPe::reg_report(ProtocolEvent::Kind kind, RankId peer,
                         std::uint32_t chunk, std::uint64_t rkey) {
  ProtocolEvent event;
  event.kind = kind;
  event.peer = peer;
  event.attempt = chunk;
  event.detail = rkey;
  conduit_.report_event(event);
}

void ShmemPe::reg_init() {
  const ShmemConfig& cfg = config();
  RegCacheConfig rc;
  rc.chunk_bytes = cfg.reg_chunk_bytes;
  rc.pinned_max_bytes = cfg.reg_pinned_max_bytes;
  rc.modeled_bytes =
      cfg.modeled_heap_bytes != 0
          ? std::max(cfg.modeled_heap_bytes, cfg.heap_bytes)
          : 0;
  reg_cache_ = std::make_unique<RegistrationCache>(conduit_.hca(), heap_space_,
                                                   rc, stats());
  rkey_table_ = std::make_unique<RkeyTable>(engine());

  reg_cache_->set_event_fn([this](RegEvent event, std::uint32_t chunk,
                                  fabric::RKey rkey, RankId peer) {
    switch (event) {
      case RegEvent::kPinned:
        reg_report(ProtocolEvent::Kind::kRegChunkPinned, peer, chunk, rkey);
        break;
      case RegEvent::kEvicted:
        reg_report(ProtocolEvent::Kind::kRegChunkEvicted, peer, chunk, rkey);
        break;
      case RegEvent::kDeregistered:
        reg_report(ProtocolEvent::Kind::kRegChunkDeregistered, peer, chunk,
                   rkey);
        break;
    }
  });
  reg_cache_->set_invalidate_fn(
      [this](std::uint32_t chunk, fabric::RKey rkey,
             std::vector<RankId> sharers) -> sim::Task<> {
        RegPacket notice{RegMsgType::kInvalidate, chunk, rkey};
        std::vector<std::byte> bytes = notice.encode();
        for (RankId sharer : sharers) {
          co_await conduit_.am_send(sharer, detail::kRegHandler, bytes);
        }
      });
  conduit_.register_handler(
      detail::kRegHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_reg_message(src, std::move(payload));
      });
}

sim::Task<> ShmemPe::reg_quiesce() { return reg_cache_->quiesce(); }

// ---- handshake piggyback ------------------------------------------------

std::vector<std::byte> ShmemPe::reg_piggyback_payload(RankId peer) {
  // Handing a chunk out makes `peer` a sharer — it must see any later
  // invalidation.
  RegHandshakePayload payload{.segment = *segment_};
  reg_cache_->for_each_pinned([&](std::uint32_t chunk, fabric::RKey rkey) {
    payload.hot_chunks.emplace_back(chunk, rkey);
    reg_cache_->add_sharer(chunk, peer);
  });
  return payload.encode();
}

void ShmemPe::reg_consume_payload(RankId peer,
                                  std::span<const std::byte> bytes) {
  const RegHandshakePayload payload = RegHandshakePayload::decode(bytes);
  peer_segments_.try_emplace(peer, payload.segment);
  for (const auto& [chunk, rkey] : payload.hot_chunks) {
    if (!rkey_table_->install(peer, chunk, rkey)) {
      // The handshake payload raced an invalidation notice (lossy UD can
      // deliver a cached reply arbitrarily late); the tombstone wins.
      stats().add("reg_dead_grants");
    }
  }
}

// ---- protocol messages --------------------------------------------------

sim::Task<> ShmemPe::handle_reg_message(RankId src,
                                        std::vector<std::byte> payload) {
  RegPacket packet = RegPacket::decode(payload);
  switch (packet.type) {
    case RegMsgType::kFaultRequest: {
      stats().add("reg_faults_served");
      fabric::MemoryRegion region =
          co_await reg_cache_->acquire(packet.chunk, src);
      RegPacket reply{RegMsgType::kFaultReply, packet.chunk, region.rkey};
      co_await conduit_.am_send(src, detail::kRegHandler, reply.encode());
      break;
    }
    case RegMsgType::kFaultReply: {
      if (rkey_table_->install(src, packet.chunk, packet.rkey)) {
        reg_report(ProtocolEvent::Kind::kRegFaultServed, src, packet.chunk,
                   packet.rkey);
      } else {
        stats().add("reg_dead_grants");
      }
      break;
    }
    case RegMsgType::kInvalidate: {
      if (rkey_table_->invalidate(src, packet.chunk, packet.rkey)) {
        reg_report(ProtocolEvent::Kind::kRegRkeyInvalidated, src,
                   packet.chunk, packet.rkey);
        // Hold the ack until every RMA that resolved this rkey completed:
        // the target deregisters only after all acks, so an acked rkey can
        // never be used again.
        co_await rkey_table_->wait_unleased(src, packet.chunk);
      } else {
        stats().add("reg_stale_invalidations");
      }
      RegPacket ack{RegMsgType::kInvalidateAck, packet.chunk, packet.rkey};
      co_await conduit_.am_send(src, detail::kRegHandler, ack.encode());
      break;
    }
    case RegMsgType::kInvalidateAck:
      reg_cache_->on_invalidate_ack(packet.chunk, packet.rkey, src);
      break;
  }
}

// ---- initiator data path ------------------------------------------------

sim::Task<fabric::RKey> ShmemPe::reg_rkey(RankId dst, std::uint32_t chunk) {
  for (;;) {
    fabric::RKey rkey = rkey_table_->rkey(dst, chunk);
    if (rkey != 0) {
      stats().add(kRegRkeyHits);
      co_return rkey;
    }
    if (rkey_table_->fault_in_flight(dst, chunk)) {
      // Coalesce: another RMA already faulted this chunk; park until its
      // reply lands, then re-check (the grant may have died to a racing
      // invalidation, in which case we fault again).
      co_await rkey_table_->wait_fault(dst, chunk);
      continue;
    }
    rkey_table_->begin_fault(dst, chunk);
    stats().add(kRegRkeyMisses);
    reg_report(ProtocolEvent::Kind::kRegFault, dst, chunk, 0);
    sim::Time t0 = engine().now();
    RegPacket fault{RegMsgType::kFaultRequest, chunk, 0};
    try {
      co_await conduit_.am_send(dst, detail::kRegHandler, fault.encode());
    } catch (...) {
      rkey_table_->abort_fault(dst, chunk);
      throw;
    }
    co_await rkey_table_->wait_fault(dst, chunk);
    stats().add_time("rkey_fault_wait", engine().now() - t0);
  }
}

// ---- rkey resolution for the conduit's RMA data path -------------------

sim::Task<core::RkeyGrant> ShmemPe::resolve(RankId dst, fabric::VirtAddr raddr,
                                            std::uint64_t len) {
  if (!reg_on_demand()) {
    // One rkey covers the whole heap. It rides the peer's segment triplet,
    // which on-demand connections carry in the handshake (§IV-C).
    if (!known_segment(dst)) {
      (void)co_await conduit_.connected_qp(dst);
    }
    co_return core::RkeyGrant{.len = len, .rkey = peer_segment(dst).rkey};
  }
  // One rkey per chunk: fault it in if cold, and lease it so a racing
  // invalidation defers its ack until the RMA completed.
  const std::uint64_t chunk_bytes = config().reg_chunk_bytes;
  const std::uint64_t offset = raddr - fabric::make_va_base(dst);
  const auto chunk = static_cast<std::uint32_t>(offset / chunk_bytes);
  const std::uint64_t take =
      std::min<std::uint64_t>(len, (chunk + 1) * chunk_bytes - offset);
  const fabric::RKey rkey = co_await reg_rkey(dst, chunk);
  co_return core::RkeyGrant{
      .len = take, .rkey = rkey, .lease = RkeyLease(*rkey_table_, dst, chunk)};
}

std::optional<core::RkeyGrant> ShmemPe::accept_cts(
    RankId dst, const core::RdvRange& range) {
  if (!reg_on_demand()) {
    return core::RkeyGrant{.len = range.len, .rkey = range.rkey};
  }
  const auto chunk = static_cast<std::uint32_t>(
      (range.va - fabric::make_va_base(dst)) / config().reg_chunk_bytes);
  if (!rkey_table_->install(dst, chunk, range.rkey)) {
    // The CTS raced an invalidation notice for the same rkey; the
    // tombstone wins and the conduit re-issues the RTS.
    stats().add("reg_dead_grants");
    return std::nullopt;
  }
  return core::RkeyGrant{.len = range.len,
                         .rkey = range.rkey,
                         .lease = RkeyLease(*rkey_table_, dst, chunk)};
}

sim::Task<std::vector<core::RdvRange>> ShmemPe::rendezvous_sink(
    RankId src, fabric::VirtAddr raddr, std::uint64_t len) {
  const fabric::VirtAddr base = heap_space_.base();
  if (raddr < base) {
    throw std::out_of_range("ShmemPe: rendezvous RTS outside symmetric heap");
  }
  check_heap_range(raddr - base, len);
  std::vector<core::RdvRange> ranges;
  if (!reg_on_demand()) {
    ranges.push_back({raddr, len, heap_region_.rkey});
    co_return ranges;
  }
  // The RTS doubles as a batched rkey fault: pin every chunk the transfer
  // touches. `acquire` coalesces with concurrent faults and records `src`
  // as a sharer for future invalidation drains.
  const std::uint64_t chunk_bytes = config().reg_chunk_bytes;
  std::uint64_t off = raddr - base;
  const std::uint64_t end = off + len;
  while (off < end) {
    auto chunk = static_cast<std::uint32_t>(off / chunk_bytes);
    std::uint64_t take = std::min<std::uint64_t>(
        end - off, (chunk + 1) * chunk_bytes - off);
    fabric::MemoryRegion region = co_await reg_cache_->acquire(chunk, src);
    ranges.push_back({base + off, take, region.rkey});
    off += take;
  }
  co_return ranges;
}

}  // namespace odcm::shmem
