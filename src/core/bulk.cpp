// Large-message protocol tiering (DESIGN.md §5.17): the credit-based
// flow-control window, the pipelined fragment streamer, and the one RTS/CTS
// rendezvous that RMA and two-sided messages share. All of it is inert under
// the default configuration (eager_threshold == rendezvous_threshold ==
// qp_credits == 0): no credit path suspends, no fragment or rendezvous event
// is emitted, and the conduit's event/time stream stays bit-identical to the
// pre-tiering code.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/conduit.hpp"

namespace odcm::core {

namespace {
// Counter and phase ids of this file (sim::stat_id).
const sim::StatId kCreditStalls = sim::stat_id("credit_stalls");
const sim::StatId kCreditStallTime = sim::stat_id("credit_stall_time");
const sim::StatId kCreditsReturned = sim::stat_id("credits_returned");
}  // namespace

// ---- credit-based flow control ----

CreditLease Conduit::try_credit(RankId dst) {
  if (config().qp_credits == 0 || shm_routes(dst)) {
    // Flow control disabled (or a connectionless transport): grant at once
    // a lease whose release is a no-op, so the default config's event
    // stream is untouched.
    return CreditLease(*this, dst, 0);
  }
  Peer& p = peer(dst);
  if (p.credit_pool == 0 || p.phase != Peer::Phase::kConnected) return {};
  --p.credit_pool;
  return CreditLease(*this, dst, p.credit_epoch);
}

sim::Task<CreditLease> Conduit::acquire_credit(RankId dst) {
  if (CreditLease lease = try_credit(dst)) co_return lease;
  Peer& p = peer(dst);
  const std::uint32_t epoch = p.credit_epoch;
  while (p.credit_pool == 0) {
    if (p.phase != Peer::Phase::kConnected || p.credit_epoch != epoch) {
      co_return CreditLease{};
    }
    if (!p.credit_free) {
      p.credit_free = std::make_unique<sim::Trigger>(engine());
    }
    stats_.add(kCreditStalls);
    const sim::Time stall_start = engine().now();
    co_await p.credit_free->wait();
    const sim::Time stalled = engine().now() - stall_start;
    stats_.add_time(kCreditStallTime, stalled);
    notify({.kind = ProtocolEvent::Kind::kCreditStall,
            .peer = dst,
            .detail = static_cast<std::uint64_t>(stalled)});
  }
  if (p.phase != Peer::Phase::kConnected || p.credit_epoch != epoch) {
    // The connection this window belonged to was torn down while we
    // stalled; the caller's QP pointer is stale and must be re-resolved.
    co_return CreditLease{};
  }
  --p.credit_pool;
  co_return CreditLease(*this, dst, epoch);
}

void Conduit::release_credit(RankId dst, std::uint32_t epoch) {
  if (config().qp_credits == 0 || shm_routes(dst)) {
    return;
  }
  Peer& p = peer(dst);
  if (p.phase == Peer::Phase::kConnected && p.credit_epoch == epoch) {
    ++p.credit_pool;
    if (p.credit_free) {
      p.credit_free->notify_all();
    }
    return;
  }
  // Straggler: the epoch this credit was drawn from already flushed its
  // pool (eviction or finalize). Account the return directly so the
  // conservation audit (credits_granted == credits_returned) still closes.
  stats_.add(kCreditsReturned);
}

void CreditLease::release() noexcept {
  if (owner_ != nullptr) {
    std::exchange(owner_, nullptr)->release_credit(dst_, epoch_);
  }
}

// ---- fragment streamer (pipelined + rendezvous data phase) ----

namespace {
struct StreamState {
  explicit StreamState(sim::Engine& engine) : progress(engine) {}
  sim::Trigger progress;  ///< fired on every fragment completion
  std::uint64_t in_flight = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::exception_ptr error{};
};
}  // namespace

sim::Task<> Conduit::stream_fragments(RankId dst, bool is_get,
                                      std::uint32_t seq,
                                      std::vector<RdvRange> ranges,
                                      std::span<const std::byte> src_data,
                                      std::span<std::byte> dest_data) {
  // Validate the range set against the transfer size BEFORE issuing
  // fragments: the ranges arrive from the peer's CTS, and a set covering
  // more bytes than the local buffer would drive the subspan() calls
  // below past the end. (RendezvousPacket::decode cross-checks CTS frames
  // too; this also guards ranges built by local sink resolvers.)
  const std::uint64_t expected = is_get ? dest_data.size() : src_data.size();
  std::uint64_t covered = 0;
  for (const RdvRange& range : ranges) {
    if (range.len > expected - covered) {
      throw std::runtime_error(
          "Conduit: rendezvous ranges cover more than the " +
          std::to_string(expected) + "-byte transfer");
    }
    covered += range.len;
  }
  if (covered != expected) {
    throw std::runtime_error(
        "Conduit: rendezvous ranges cover " + std::to_string(covered) +
        " of " + std::to_string(expected) + " bytes");
  }
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, config().bulk_chunk_bytes);
  const std::uint32_t window =
      config().qp_credits > 0 ? config().qp_credits : 4;
  auto state = std::make_shared<StreamState>(engine());

  std::uint32_t frag = 0;
  std::uint64_t offset = 0;  // position in src_data / dest_data
  for (const RdvRange& range : ranges) {
    for (std::uint64_t off = 0; off < range.len && !state->error;
         off += chunk) {
      const std::uint64_t flen = std::min(chunk, range.len - off);
      while (state->in_flight >= window) {
        co_await state->progress.wait();
      }
      // Resolve the connection and a credit inside the issue loop (not in
      // the per-fragment task): fragments acquire strictly in order, so
      // the kBulkFragmentSent stream per (pair, seq) is sequential — the
      // checker's no-reordering invariant — and an eviction mid-stream
      // just re-establishes before the next fragment.
      fabric::QueuePair* qp = nullptr;
      CreditLease credit;
      while (true) {
        qp = co_await connected_qp(dst);
        credit = co_await acquire_credit(dst);
        if (credit) break;
      }
      notify({.kind = ProtocolEvent::Kind::kBulkFragmentSent,
              .peer = dst,
              .attempt = frag,
              .detail = seq});
      stats_.add("bulk_fragments_sent");
      ++state->in_flight;
      ++state->issued;
      engine().spawn(
          [](Conduit& c, RankId dst, fabric::QueuePair* qp, bool is_get,
             fabric::VirtAddr va, fabric::RKey rkey,
             std::span<const std::byte> src, std::span<std::byte> dest,
             CreditLease credit, std::uint32_t frag, std::uint32_t seq,
             std::shared_ptr<StreamState> state) -> sim::Task<> {
            try {
              fabric::WorkRequest wr{
                  .opcode = is_get ? fabric::WcOpcode::kRdmaRead
                                   : fabric::WcOpcode::kRdmaWrite,
                  .raddr = va,
                  .rkey = rkey,
                  .data = {src.begin(), src.end()},
                  .dest = dest};
              fabric::Completion wc = co_await qp->post(std::move(wr));
              if (!wc.ok()) {
                throw std::runtime_error(
                    "Conduit: bulk fragment " + std::to_string(frag) +
                    " toward rank " + std::to_string(dst) + " failed");
              }
            } catch (...) {
              if (!state->error) state->error = std::current_exception();
            }
            credit.release();
            c.notify({.kind = ProtocolEvent::Kind::kBulkFragmentDelivered,
                      .peer = dst,
                      .attempt = frag,
                      .detail = seq});
            c.stats_.add("bulk_fragments_delivered");
            --state->in_flight;
            ++state->completed;
            state->progress.notify_all();
          }(*this, dst, qp, is_get, range.va + off, range.rkey,
            is_get ? std::span<const std::byte>{}
                   : src_data.subspan(offset, flen),
            is_get ? dest_data.subspan(offset, flen) : std::span<std::byte>{},
            std::move(credit), frag, seq, state));
      ++frag;
      offset += flen;
    }
    if (state->error) break;
  }
  while (state->completed != state->issued) {
    co_await state->progress.wait();
  }
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

// ---- rendezvous (RTS/CTS, and FIN for messages) ----

sim::Task<> Conduit::am_send_rendezvous(RankId dst, std::uint16_t handler,
                                        std::vector<std::byte> payload) {
  if (shm_routes(dst)) {
    co_return co_await shm_am_send(dst, handler, std::move(payload));
  }
  wire::require_encodable(payload.size());
  (void)co_await rendezvous(dst, RdvOp::kMsg, handler, payload, {});
}

sim::Task<RdvRange> Conduit::post_landing(RankId src,
                                          const RendezvousPacket& rts) {
  if (rts.raddr < kFirstUserHandler || rts.raddr >= handlers_.size() ||
      !handlers_[rts.raddr]) {
    throw std::runtime_error("Conduit: message RTS for unregistered handler " +
                             std::to_string(rts.raddr));
  }
  if (rts.len > wire::kMaxWirePayload) {
    // Bound the landing allocation like the wire decoders bound their
    // length fields.
    throw std::runtime_error("Conduit: message RTS length out of range");
  }
  // Take the spare buffer, else an unused or new segment; with every
  // segment busy, wait for a FIN to free one (back-pressure: the CTS
  // simply goes out later).
  std::size_t slot = 0;
  if (landing_spare_) {
    slot = *std::exchange(landing_spare_, std::nullopt);
  } else {
    while (true) {
      slot = 0;
      while (slot < landing_pool_.size() && landing_pool_[slot].space) ++slot;
      if (slot + 1 < fabric::kSegmentsPerRank) break;
      stats_.add("rdv_landing_waits");
      co_await landing_freed_.wait();
      if (landing_spare_) {
        slot = *std::exchange(landing_spare_, std::nullopt);
        break;
      }
    }
    if (slot == landing_pool_.size()) landing_pool_.emplace_back();
  }
  if (!landing_pool_[slot].space ||
      landing_pool_[slot].space->size() < rts.len) {
    // Register a buffer that fits; a spare too small gives up its segment.
    if (landing_pool_[slot].space) {
      hca().deregister_memory(landing_pool_[slot].rkey);
    }
    // The segment is claimed before registration suspends; the pool may
    // grow meanwhile, so it is re-indexed afterwards.
    landing_pool_[slot].space = std::make_unique<fabric::AddressSpace>(
        rank_,
        fabric::make_va_base(rank_, static_cast<std::uint32_t>(slot) + 1),
        static_cast<std::size_t>(rts.len));
    fabric::AddressSpace& space = *landing_pool_[slot].space;
    fabric::MemoryRegion mr =
        co_await hca().register_memory(space, space.base(), rts.len);
    landing_pool_[slot].rkey = mr.rkey;
    stats_.add("rdv_landing_registered");
  }
  const LandingBuffer& buffer = landing_pool_[slot];
  if (!landings_
           .try_emplace({src, rts.seq},
                        Landing{slot, rts.len,
                                static_cast<std::uint16_t>(rts.raddr)})
           .second) {
    throw std::runtime_error("Conduit: duplicate message RTS sequence");
  }
  co_return RdvRange{buffer.space->base(), rts.len, buffer.rkey};
}

void Conduit::release_landing(std::size_t slot) {
  // Keep one free buffer registered, the larger: the target does not stay
  // pinned at its peak concurrent landing bytes once a burst drains.
  if (landing_spare_) {
    std::size_t drop = slot;
    if (landing_pool_[*landing_spare_].space->size() <
        landing_pool_[slot].space->size()) {
      drop = *std::exchange(landing_spare_, slot);
    }
    hca().deregister_memory(landing_pool_[drop].rkey);
    landing_pool_[drop].space.reset();
    stats_.add("rdv_landing_released");
  } else {
    landing_spare_ = slot;
  }
  landing_freed_.notify_all();
}

sim::Task<> Conduit::handle_rendezvous(RankId src,
                                       std::vector<std::byte> payload) {
  RendezvousPacket packet = RendezvousPacket::decode(payload);
  if (packet.type == RdvMsgType::kRts) {
    stats_.add("rdv_rts_received");
    // Post the sink. Both resolvers may suspend: a message registers a
    // landing buffer when no free one fits, and in on-demand registration
    // mode a cold chunk is pinned right here, which is the paper-composing
    // property: the RTS doubles as the registration fault.
    std::vector<RdvRange> ranges;
    if (packet.op == RdvOp::kMsg) {
      ranges.push_back(co_await post_landing(src, packet));
    } else if (rendezvous_sink_) {
      ranges =
          co_await rendezvous_sink_(src, packet.op, packet.raddr, packet.len);
    } else {
      ranges.push_back(RdvRange{packet.raddr, packet.len, 0});
    }
    co_await engine().delay(fabric::kRendezvousSinkPostCost);
    notify({.kind = ProtocolEvent::Kind::kCtsIssued,
            .peer = src,
            .attempt = packet.seq});
    stats_.add("rdv_cts_sent");
    RendezvousPacket cts;
    cts.type = RdvMsgType::kCts;
    cts.op = packet.op;
    cts.seq = packet.seq;
    cts.raddr = packet.raddr;
    cts.len = packet.len;
    cts.ranges.reserve(ranges.size());
    for (const RdvRange& r : ranges) {
      cts.ranges.push_back({r.va, r.len, r.rkey});
    }
    co_await am_send(src, kRendezvousHandler, cts.encode());
    co_return;
  }
  if (packet.type == RdvMsgType::kFin) {
    // Every fragment of the message landed: copy it out, free the buffer
    // and run the handler inline, so delivery happens at FIN arrival with
    // no suspension in between (arrival order is delivery order).
    auto it = landings_.find({src, packet.seq});
    if (it == landings_.end()) {
      throw std::runtime_error("Conduit: FIN for a message never granted");
    }
    const Landing landing = it->second;
    landings_.erase(it);
    std::span<const std::byte> bytes =
        landing_pool_[landing.buffer].space->bytes().first(
            static_cast<std::size_t>(landing.len));
    std::vector<std::byte> message(bytes.begin(), bytes.end());
    release_landing(landing.buffer);
    co_await handlers_[landing.handler](src, std::move(message));
    co_return;
  }
  // CTS at the initiator: deposit the granted ranges and wake the sender.
  auto it = rdv_pending_.find(packet.seq);
  if (it == rdv_pending_.end()) {
    stats_.add("rdv_stale_cts_dropped");
    co_return;
  }
  it->second.ranges.clear();
  it->second.ranges.reserve(packet.ranges.size());
  for (const RendezvousPacket::Range& r : packet.ranges) {
    it->second.ranges.push_back(RdvRange{r.va, r.len, r.rkey});
  }
  it->second.gate->open();
}

sim::Task<bool> Conduit::rendezvous(RankId dst, RdvOp op,
                                    fabric::VirtAddr raddr,
                                    std::span<const std::byte> src,
                                    std::span<std::byte> dest) {
  const bool is_get = op == RdvOp::kGet;
  const std::uint64_t len = is_get ? dest.size() : src.size();
  // Establish before announcing: the RTS event must be observed on an
  // established pair (checker rule), and the RTS itself rides the RC AM
  // channel anyway.
  (void)co_await connected_qp(dst);
  const std::uint32_t seq = ++rdv_seq_;
  notify({.kind = ProtocolEvent::Kind::kRtsIssued,
          .peer = dst,
          .attempt = seq,
          .detail = len});
  stats_.add("rdv_rts_sent");
  auto [it, inserted] = rdv_pending_.try_emplace(seq, engine());
  RendezvousPacket rts;
  rts.type = RdvMsgType::kRts;
  rts.op = op;
  rts.seq = seq;
  rts.raddr = raddr;
  rts.len = len;
  co_await am_send(dst, kRendezvousHandler, rts.encode());
  co_await it->second.gate->wait();
  std::vector<RdvRange> ranges = std::move(it->second.ranges);
  rdv_pending_.erase(it);
  // Adopt every granted rkey before any data moves; the leases keep them
  // alive across the whole fragment stream. Landing-buffer rkeys of a
  // message are never invalidated, so they need no lease.
  std::vector<fabric::reg::RkeyLease> leases;
  if (rkey_hook_ != nullptr && op != RdvOp::kMsg) {
    for (const RdvRange& range : ranges) {
      std::optional<RkeyGrant> grant = rkey_hook_->accept_cts(dst, range);
      if (!grant) {
        stats_.add("rdv_aborted");
        // Close the stream for the checker: an aborted rendezvous moved no
        // fragments (detail=1 marks the abort) and retries under a new seq.
        notify({.kind = ProtocolEvent::Kind::kRendezvousDone,
                .peer = dst,
                .attempt = seq,
                .detail = 1});
        co_return false;
      }
      report_rkey_used(dst, *grant);
      leases.push_back(std::move(grant->lease));
    }
  }
  co_await stream_fragments(dst, is_get, seq, std::move(ranges), src, dest);
  if (op == RdvOp::kMsg) {
    RendezvousPacket fin;
    fin.type = RdvMsgType::kFin;
    fin.op = op;
    fin.seq = seq;
    co_await am_send(dst, kRendezvousHandler, fin.encode());
  }
  notify({.kind = ProtocolEvent::Kind::kRendezvousDone,
          .peer = dst,
          .attempt = seq});
  stats_.add("rdv_done");
  co_return true;
}

}  // namespace odcm::core
