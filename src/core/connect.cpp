// Connection establishment: the on-demand two-phase UD handshake (Fig. 4)
// with retransmission, duplicate suppression and collision resolution, plus
// the baseline static all-to-all connector and its bulk aggregate model.
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/backoff.hpp"
#include "core/conduit.hpp"

namespace odcm::core {

namespace {
constexpr const char* kRcKeyPrefix = "odcm-rc:";

// The static connector's PMI row: the `encode_endpoint` layout of the
// publisher's lid and its QPN toward rank 0, then its QPNs toward ranks
// 1 … n-1.
constexpr std::size_t rc_row_bytes(std::uint32_t ranks) {
  return sizeof(fabric::Lid) + sizeof(fabric::Qpn) * std::size_t{ranks};
}

/// The endpoint a row's publisher created for rank `column`.
fabric::EndpointAddr rc_row_entry(const std::string& row, RankId column) {
  fabric::EndpointAddr addr;
  std::memcpy(&addr.lid, row.data(), sizeof(addr.lid));
  std::memcpy(&addr.qpn, row.data() + rc_row_bytes(column), sizeof(addr.qpn));
  return addr;
}
}  // namespace

void Conduit::notify(ProtocolEvent event) {
  if (job_.observers_.empty()) return;
  event.self = rank_;
  event.time = engine().now();
  for (ProtocolObserver* obs : job_.observers_) obs->on_event(event);
}

void Conduit::set_phase(RankId peer_rank, Peer& p, PeerPhase next) {
  notify({.kind = ProtocolEvent::Kind::kPhaseChange,
          .peer = peer_rank,
          .from = p.phase,
          .to = next,
          .role = p.role});
  // This is the single phase-mutation funnel, so the exact connected count
  // and the (last_used, rank) LRU list are maintained here. A freshly
  // established connection is stamped "used now" on BOTH the client and
  // server paths: an unstamped (last_used == 0) server-side connection
  // used to be the immediate eviction victim ahead of genuinely idle
  // peers.
  if (next == Peer::Phase::kConnected) {
    ++connected_count_;
    p.last_used = engine().now();
    lru_.insert(p);
    // Grant the flow-control window for the fresh connection epoch
    // (DESIGN.md §5.17). Waiters parked on the old epoch's trigger are
    // woken so they can observe the epoch change and re-resolve.
    if (config().qp_credits != 0) {
      p.credit_pool = config().qp_credits;
      stats_.add("credits_granted", config().qp_credits);
      if (p.credit_free) p.credit_free->notify_all();
    }
  } else if (p.phase == Peer::Phase::kConnected) {
    --connected_count_;
    lru_.remove(p);
    // An evicted (or drained) QP returns its credits: flush the unspent
    // pool, bump the epoch so in-flight sends release through the
    // stale-epoch path, and wake stalled senders so they reconnect.
    if (config().qp_credits != 0) {
      stats_.add("credits_returned", p.credit_pool);
      p.credit_pool = 0;
      ++p.credit_epoch;
      if (p.credit_free) p.credit_free->notify_all();
    }
  }
  p.phase = next;
}

// ---- the connection lifecycle (Fig. 4) ----

sim::Task<fabric::QueuePair*> Conduit::new_rc_qp() {
  fabric::QueuePair* qp =
      co_await hca().create_qp(fabric::QpType::kRc, rank_);
  stats_.add("qp_created_rc");
  co_await qp->transition(fabric::QpState::kInit);
  co_return qp;
}

sim::Task<> Conduit::connect_rc_qp(fabric::QueuePair* qp,
                                   fabric::EndpointAddr remote) {
  qp->set_remote(remote);
  co_await qp->transition(fabric::QpState::kRtr);
  co_await qp->transition(fabric::QpState::kRts);
}

void Conduit::bind_qp(Peer& p, fabric::QueuePair* qp) {
  p.qp = qp;
  notify({.kind = ProtocolEvent::Kind::kQpBound, .peer = p.rank});
}

void Conduit::unbind_qp(Peer& p) {
  p.qp = nullptr;
  notify({.kind = ProtocolEvent::Kind::kQpUnbound, .peer = p.rank});
}

void Conduit::establish(Peer& p, PeerRole role) {
  p.role = role;
  set_phase(p.rank, p, Peer::Phase::kConnected);
  // A bulk-modeled mesh counted every connection at init.
  if (role != Peer::Role::kStatic || !bulk_sized()) {
    stats_.add("connections_established");
  }
}

void Conduit::open_established(sim::Engine& engine, Peer& peer) {
  if (!peer.established) {
    peer.established = std::make_unique<sim::Gate>(engine);
  }
  peer.established->open();
}

sim::Task<> Conduit::ensure_connected(RankId dst) {
  while (true) {
    Peer& p = peer(dst);
    if (p.phase == Peer::Phase::kConnected) {
      co_return;
    }
    if (bulk_connected_) {
      (void)materialize_bulk(dst);
      co_return;
    }
    if (config().connection_mode == ConnectionMode::kStatic) {
      throw std::logic_error(
          "Conduit: peer not connected in static mode (init not run?)");
    }
    if (p.phase == Peer::Phase::kDraining) {
      // We evicted this connection and the drain has not acked yet; wait,
      // then re-establish through the normal path.
      co_await p.drained->wait();
      continue;
    }
    if (dst == rank_) {
      co_await self_connect();
      continue;
    }
    if (!p.established || p.established->is_open()) {
      // An open gate here is stale (it belongs to a torn-down connection
      // epoch; open gates never have waiters, so replacing is safe).
      // Waiting on it would spin without advancing time.
      p.established = std::make_unique<sim::Gate>(engine());
    }
    if (p.phase == Peer::Phase::kIdle) {
      p.role = Peer::Role::kClient;
      set_phase(dst, p, Peer::Phase::kRequesting);
      engine().spawn(client_connect(dst, ++p.connect_serial));
    }
    // A failed handshake (retry budget exhausted) bumps the slot's fail
    // epoch and opens the gate so no waiter is stranded; every waiter that
    // crossed the failure observes it here and rethrows.
    const std::uint32_t epoch = p.fail_epoch;
    co_await p.established->wait();
    if (p.fail_epoch != epoch) {
      throw std::runtime_error(p.fail_reason);
    }
    if (config().test_skip_established_recheck) {
      // TEST ONLY (see ConduitConfig): return without looping back to the
      // phase re-check. Safe only if nothing squeezed between the gate
      // opening and this waiter running — an assumption some tie-break
      // orders violate (eviction or passive drain at the same timestamp).
      if (p.phase != Peer::Phase::kConnected || p.qp == nullptr) {
        throw std::runtime_error(
            "seeded ordering bug: established-gate wakeup for rank " +
            std::to_string(dst) + " raced a teardown (phase " +
            std::to_string(static_cast<int>(p.phase)) + ")");
      }
      co_return;
    }
  }
}

sim::Task<> Conduit::self_connect() {
  Peer& p = peer(rank_);
  if (p.phase == Peer::Phase::kConnected) {
    co_return;
  }
  if (p.phase != Peer::Phase::kIdle) {
    co_await p.established->wait();
    co_return;
  }
  p.role = Peer::Role::kClient;
  set_phase(rank_, p, Peer::Phase::kEstablishing);
  if (!p.established) {
    p.established = std::make_unique<sim::Gate>(engine());
  }
  fabric::QueuePair* qp = co_await new_rc_qp();
  co_await connect_rc_qp(qp, qp->addr());  // loopback
  bind_qp(p, qp);
  establish(p, Peer::Role::kClient);
  p.established->open();
  maybe_evict(rank_);  // self connections have no drain protocol
}

sim::Task<> Conduit::client_connect(RankId dst, std::uint32_t serial) {
  Peer& p = peer(dst);
  stats_.add("conn_requests_initiated");
  fabric::EndpointAddr peer_ud = co_await resolve_ud(dst);
  if (p.connect_serial != serial || p.phase != Peer::Phase::kRequesting) {
    // Superseded while resolving: a collision takeover made us the server,
    // or the slot went through a whole establish/evict cycle and a newer
    // client_connect owns it now. Either way the active path finishes the
    // connection; waiting on the established gate here is wrong — after a
    // full cycle the gate object may already have been torn down.
    co_return;
  }
  fabric::QueuePair* qp = co_await new_rc_qp();
  if (p.connect_serial != serial || p.phase != Peer::Phase::kRequesting) {
    // Our QP is not yet bound to the slot, so nobody else can reference it.
    co_await hca().destroy_qp(qp->qpn());
    co_return;
  }
  bind_qp(p, qp);

  ConnectPacket request;
  request.type = UdMsgType::kConnectRequest;
  request.src_rank = rank_;
  request.rc_addr = qp->addr();
  if (payload_provider_) {
    request.payload = payload_provider_(dst);
  }
  // Encoded once, shared across every retransmission (and with every
  // delivered copy of the datagram) instead of re-copied per attempt.
  fabric::UdPayload encoded = request.encode_shared();

  std::uint32_t attempts = 0;
  while (p.phase != Peer::Phase::kConnected) {
    if (p.connect_serial != serial) {
      // Superseded mid-retry: the slot completed a full lifecycle while we
      // slept in a backoff window and a newer epoch drives it now. The QP
      // we bound was either reused by a takeover or retired with that
      // epoch — not ours to touch anymore.
      co_return;
    }
    if (p.phase == Peer::Phase::kEstablishing) {
      co_return;  // reply arrived (or a takeover is completing); done here
    }
    if (attempts > kConnMaxRetries) {
      // Retry budget exhausted: fail the handshake cleanly instead of
      // letting the exception escape this detached root task, which would
      // leave the established gate closed and strand every waiter parked
      // in ensure_connected. The slot returns to kIdle (a later call may
      // retry from scratch); waiters observe the epoch bump across their
      // wait and rethrow fail_reason.
      stats_.add("conn_failures");
      notify({.kind = ProtocolEvent::Kind::kConnectFailed,
              .peer = dst,
              .attempt = attempts});
      fabric::QueuePair* failed_qp = p.qp;
      unbind_qp(p);
      p.role = Peer::Role::kNone;
      ++p.fail_epoch;
      p.fail_reason = "Conduit: connection retries exceeded to rank " +
                      std::to_string(dst);
      set_phase(dst, p, Peer::Phase::kIdle);
      open_established(engine(), p);
      co_await hca().destroy_qp(failed_qp->qpn());
      co_return;
    }
    if (attempts > 0) {
      stats_.add("conn_retransmits");
      notify({.kind = ProtocolEvent::Kind::kRetransmit,
              .peer = dst,
              .attempt = attempts});
    }
    ++attempts;
    (void)co_await ud_qp_->send_ud(peer_ud.lid, peer_ud.qpn, encoded);
    // Exponential backoff with deterministic per-(src, dst, attempt)
    // jitter: colliding clients spread out instead of retransmitting in
    // lockstep, and the schedule is identical across fabric seeds.
    bool opened = co_await p.established->wait_for(
        backoff_rto(config(), rank_, dst, attempts - 1));
    if (opened) break;
  }
}

void Conduit::handle_conn_request(ConnectPacket packet,
                                  fabric::EndpointAddr reply_to) {
  RankId src = packet.src_rank;
  Peer& p = peer(src);
  switch (p.phase) {
    case Peer::Phase::kConnected:
      if (config().test_skip_duplicate_suppression) {
        // TEST ONLY (see ConduitConfig): mishandle the duplicate as a
        // fresh request. The Connected → Establishing transition is
        // illegal and the invariant checker must flag it.
        accept_request(src, p, std::move(packet), reply_to,
                       /*collision=*/false);
        return;
      }
      if (p.role == Peer::Role::kServer && p.cached_reply != nullptr) {
        // Our reply was lost and the client retransmitted: resend it.
        stats_.add("conn_reply_resends");
        notify({.kind = ProtocolEvent::Kind::kReplyResend, .peer = src});
        sim::spawn_discard(engine(),
                           ud_qp_->send_ud(p.reply_to.lid, p.reply_to.qpn,
                                           p.cached_reply));
      }
      return;
    case Peer::Phase::kRequesting:
      // Collision: both sides initiated simultaneously. The request from
      // the lower rank is served; the higher rank's own request is dropped
      // by its peer and absorbed here.
      if (src < rank_) {
        stats_.add("conn_collisions");
        notify({.kind = ProtocolEvent::Kind::kCollision, .peer = src});
        accept_request(src, p, std::move(packet), reply_to,
                       /*collision=*/true);
      }
      return;
    case Peer::Phase::kEstablishing:
      return;  // duplicate while the state machine is running
    case Peer::Phase::kDraining:
      // The peer processed our eviction notice and is already
      // re-initiating; its request doubles as the drain ack. Retire the
      // old epoch's QP first (the in-flight notice send keeps it alive in
      // retired_qps_) so the fresh server-side QP does not leak it, then
      // reclaim it — the drain is resolved — and accept as from kIdle.
      retire_qp(p);
      reclaim_retired(p);
      if (p.drained) p.drained->open();
      [[fallthrough]];
    case Peer::Phase::kIdle:
      accept_request(src, p, std::move(packet), reply_to,
                     /*collision=*/false);
      return;
  }
}

void Conduit::accept_request(RankId src, Peer& p, ConnectPacket packet,
                             fabric::EndpointAddr reply_to, bool collision) {
  if (!collision) p.role = Peer::Role::kServer;
  set_phase(src, p, Peer::Phase::kEstablishing);
  engine().spawn(serve_request(src, packet.rc_addr, std::move(packet.payload),
                               reply_to, collision));
}

sim::Task<> Conduit::serve_request(RankId src,
                                   fabric::EndpointAddr client_addr,
                                   std::vector<std::byte> payload,
                                   fabric::EndpointAddr reply_to,
                                   bool collision) {
  Peer& p = peer(src);
  // Paper §IV-E: a request can arrive before this PE finished registering
  // its own segments; the reply is held until the upper layer is ready and
  // the client's retransmission covers the delay.
  if (ready_gate_ && !ready_gate_->is_open()) {
    stats_.add("conn_requests_held");
    notify({.kind = ProtocolEvent::Kind::kRequestHeld, .peer = src});
    co_await ready_gate_->wait();
  }

  // After a collision the QP our own client attempt created (and bound) is
  // reused.
  fabric::QueuePair* qp = p.qp;
  const bool reuse = collision && qp != nullptr &&
                     qp->state() == fabric::QpState::kInit;
  if (!reuse) {
    qp = co_await new_rc_qp();
  }
  co_await connect_rc_qp(qp, client_addr);
  if (!reuse) {
    bind_qp(p, qp);
  }

  if (payload_consumer_ && !payload.empty()) {
    payload_consumer_(src, payload);
    notify({.kind = ProtocolEvent::Kind::kPayloadInstalled, .peer = src});
  }

  ConnectPacket reply;
  reply.type = UdMsgType::kConnectReply;
  reply.src_rank = rank_;
  reply.rc_addr = qp->addr();
  if (payload_provider_) {
    reply.payload = payload_provider_(src);
  }
  p.cached_reply = reply.encode_shared();
  p.reply_to = reply_to;
  establish(p, Peer::Role::kServer);
  (void)co_await ud_qp_->send_ud(reply_to.lid, reply_to.qpn, p.cached_reply);
  open_established(engine(), p);
  after_established(src);
}

void Conduit::handle_conn_reply(ConnectPacket packet) {
  RankId src = packet.src_rank;
  Peer& p = peer(src);
  if (p.phase != Peer::Phase::kRequesting ||
      p.role != Peer::Role::kClient || p.qp == nullptr) {
    return;  // duplicate or stale reply
  }
  set_phase(src, p, Peer::Phase::kEstablishing);
  engine().spawn(
      finish_client(src, packet.rc_addr, std::move(packet.payload)));
}

sim::Task<> Conduit::finish_client(RankId src,
                                   fabric::EndpointAddr server_addr,
                                   std::vector<std::byte> payload) {
  Peer& p = peer(src);
  co_await connect_rc_qp(p.qp, server_addr);
  if (payload_consumer_ && !payload.empty()) {
    payload_consumer_(src, payload);
    notify({.kind = ProtocolEvent::Kind::kPayloadInstalled, .peer = src});
  }
  establish(p, Peer::Role::kClient);
  open_established(engine(), p);
  after_established(src);
}

// ---- adaptive connection management (eviction) ----

void Conduit::after_established(RankId src) {
  Peer& p = peer(src);
  if (p.remote_drain_pending) {
    p.remote_drain_pending = false;
    if (p.qp != nullptr && p.qp->remote().qpn == p.drain_notice_qpn) {
      // The peer evicted this connection while our handshake was still in
      // flight; honor the drain now that waiters have been released.
      perform_passive_drain(src);
      return;
    }
    // The handshake completed a newer epoch than the one the notice
    // named: the peer's drain already resolved (our retransmitted
    // request doubled as its ack), so the notice is stale — dropping it
    // keeps both sides on the fresh connection.
    stats_.add("conn_stale_notices_dropped");
  }
  maybe_evict(src);
}

void Conduit::maybe_evict(RankId just_connected) {
  const std::uint32_t cap = config().max_active_connections;
  if (cap == 0 || config().connection_mode != ConnectionMode::kOnDemand) {
    return;
  }
  while (connected_count_ > cap) {
    // O(1) victim selection: the LRU list is sorted ascending by
    // (last_used, rank), so the victim is the head unless the head is the
    // just-connected peer (on-demand mode has no static peers to skip).
    Peer* victim = lru_.front();
    if (victim != nullptr && victim->rank == just_connected) {
      victim = victim->lru_next;
    }
    if (victim == nullptr) break;  // nothing evictable
    RankId victim_rank = victim->rank;
    set_phase(victim_rank, *victim, Peer::Phase::kDraining);
    // Invariant: the established gate is open iff the peer is connected.
    // A stale open gate would make ensure_connected's wait loop spin
    // synchronously once the drain resolves (open gates resume inline).
    victim->established.reset();
    victim->drained = std::make_unique<sim::Gate>(engine());
    stats_.add("conn_evictions");
    ++pending_evictions_;
    engine().spawn(evict_connection(victim_rank, victim->qp));
  }
}

sim::Task<> Conduit::evict_connection(RankId victim, fabric::QueuePair* qp) {
  Peer& p = peer(victim);
  if (victim == rank_) {
    resolve_drain(p);  // self connection: no protocol needed
  } else {
    // Notify the peer over the existing RC connection, then deactivate our
    // side. The QP object survives (retired) until the drain resolves.
    //
    // Why reclaiming at drain resolution is safe for in-flight traffic:
    // the peer's RC sends resolve our QP at SEND initiation, not at
    // delivery, and delivery lands in the rank-keyed SRQ, which needs no
    // QP object. Every drain-resolution trigger — the peer's ack, its
    // symmetric notice, or its re-request doubling as the ack — is a
    // message the peer sent *after* it processed our notice and retired
    // its own side, i.e. after the last send it will ever initiate on
    // this connection epoch. Our own notice send may itself still be
    // awaiting its completion, which is why reclaim_retired polls the
    // work queue empty before destroying. The one pathological
    // interleaving — the peer's UD re-request overtaking its in-flight RC
    // ack — leaves that ack to complete with an error at the peer (which
    // discards it), and a stale ack arriving here in any phase other than
    // kDraining is ignored by handle_disconnect_ack.
    //
    // The notice goes out on the QP captured at eviction time, even when
    // the peer's crossing notice already resolved our drain and retired it
    // before this task first ran: the peer is draining too and only our
    // notice resolves its side. The retired QP stays alive until this send
    // completes (reclaim_retired waits for the work queue to empty).
    AmPacket notice{kDisconnectNoticeHandler, rank_, {}};
    (void)co_await qp->send(notice.encode());
    // While the notice was in flight the drain may already have resolved
    // (symmetric eviction, or the peer's re-request doubling as the ack);
    // those paths retire the QP themselves and a new epoch may own p.qp.
    if (p.qp == qp) {
      retire_qp(p);
    }
  }
  settle_eviction();
}

void Conduit::settle_eviction() {
  --pending_evictions_;
  if (pending_evictions_ == 0 && evictions_settled_) {
    evictions_settled_->notify_all();
  }
}

void Conduit::retire_qp(Peer& peer) {
  if (peer.qp != nullptr) {
    retired_qps_.push_back(peer.qp);
    // Remember the epoch's QP so the drain-resolution path can reclaim it.
    // If an older retired QP was never reclaimed (it should have been), it
    // stays in retired_qps_ and the finalize backstop destroys it.
    peer.retired_qp = peer.qp;
    unbind_qp(peer);
  }
  peer.role = Peer::Role::kNone;
  peer.cached_reply.reset();
  peer.established.reset();
}

void Conduit::resolve_drain(Peer& p) {
  retire_qp(p);  // a no-op when evict_connection already retired it
  set_phase(p.rank, p, Peer::Phase::kIdle);
  if (p.drained) p.drained->open();
  reclaim_retired(p);
}

void Conduit::reclaim_retired(Peer& peer) {
  fabric::QueuePair* qp = peer.retired_qp;
  if (qp == nullptr) return;
  peer.retired_qp = nullptr;
  // Tracked like an eviction so finalize waits for the destroy to finish
  // instead of racing it with the bulk teardown of retired_qps_.
  ++pending_evictions_;
  engine().spawn([](Conduit& c, fabric::QueuePair* qp) -> sim::Task<> {
    // Our own final sends of the epoch (eviction notice, passive-drain ack)
    // may still be awaiting their completions on this QP. Wait for the work
    // queue to empty, then one extra tick so any coroutine resumed by the
    // last completion runs to its suspension point before the object dies.
    // Re-check after that tick: an eviction task spawned at the same
    // instant may post its notice on this QP after the first check.
    do {
      while (qp->outstanding() != 0) {
        co_await c.engine().delay(sim::usec);
      }
      co_await c.engine().delay(sim::usec);
    } while (qp->outstanding() != 0);
    std::erase(c.retired_qps_, qp);
    co_await c.hca().destroy_qp(qp->qpn());
    c.stats_.add("qp_retired_reclaimed");
    c.settle_eviction();
  }(*this, qp));
}

void Conduit::perform_passive_drain(RankId src) {
  Peer& p = peer(src);
  stats_.add("conn_evictions_passive");
  fabric::QueuePair* old = p.qp;
  retire_qp(p);
  set_phase(src, p, Peer::Phase::kIdle);
  p.remote_drain_pending = false;
  // Ack over the retired QP (still alive and RTS). Tracked like an
  // eviction so finalize waits for the send to complete. The ack is the
  // last send of this epoch, so once it completes the QP can be reclaimed.
  ++pending_evictions_;
  engine().spawn([](Conduit& c, RankId src, fabric::QueuePair* qp)
                     -> sim::Task<> {
    AmPacket ack{kDisconnectAckHandler, c.rank_, {}};
    (void)co_await qp->send(ack.encode());
    c.reclaim_retired(c.peer(src));
    c.settle_eviction();
  }(*this, src, old));
}

fabric::Qpn Conduit::current_remote_qpn(const Peer& p) {
  if (p.qp != nullptr) return p.qp->remote().qpn;
  if (p.retired_qp != nullptr) return p.retired_qp->remote().qpn;
  return 0;
}

void Conduit::handle_disconnect_notice(RankId src, fabric::Qpn notice_qpn) {
  Peer& p = peer(src);
  switch (p.phase) {
    case Peer::Phase::kConnected:
      if (current_remote_qpn(p) != notice_qpn) {
        // Stale notice: it names a peer QP from an earlier connection
        // epoch whose drain already resolved (e.g. our retransmitted
        // request doubled as its ack and the peer served us a fresh
        // connection). Acting on it would tear down the live epoch while
        // the peer keeps it, desynchronizing the two sides for good.
        return;
      }
      perform_passive_drain(src);
      return;
    case Peer::Phase::kDraining:
      if (current_remote_qpn(p) != notice_qpn) {
        return;  // stale epoch: not the connection we are draining
      }
      // Symmetric eviction: both sides evicted concurrently. Our own
      // evict_connection may still be sending its notice; retire the QP
      // here so the peer slot is clean before any reconnect starts.
      // reclaim_retired waits for that in-flight notice to complete.
      resolve_drain(p);
      return;
    case Peer::Phase::kRequesting:
    case Peer::Phase::kEstablishing:
      // The notice outran our side of the handshake (the evictor finished
      // first); honor it once the establishment completes — if the epoch
      // we end up establishing is the one the notice named
      // (after_established checks).
      p.remote_drain_pending = true;
      p.drain_notice_qpn = notice_qpn;
      return;
    case Peer::Phase::kIdle:
      return;  // stale notice from a previous connection epoch
  }
}

void Conduit::handle_disconnect_ack(RankId src) {
  Peer& p = peer(src);
  if (p.phase == Peer::Phase::kDraining) resolve_drain(p);
}

// ---- static (baseline) connector ----

sim::Task<> Conduit::static_connect_all() {
  const std::uint32_t n = size();
  std::vector<fabric::QueuePair*> qps(n, nullptr);
  {
    sim::PhaseTimer timer(engine(), &stats_, "connection_setup");
    for (RankId r = 0; r < n; ++r) {
      qps[r] = co_await new_rc_qp();
    }
  }

  // Publish this PE's row and read, from every peer's row, the endpoint
  // that peer created for this PE.
  std::vector<fabric::EndpointAddr> remote(n);
  {
    sim::PhaseTimer timer(engine(), &stats_, "pmi_exchange");
    std::string value = encode_endpoint({hca().lid(), qps[0]->qpn()});
    for (RankId r = 1; r < n; ++r) {
      const fabric::Qpn qpn = qps[r]->qpn();
      value.append(reinterpret_cast<const char*>(&qpn), sizeof(qpn));
    }
    if (config().pmi_mode == PmiMode::kNonBlocking) {
      pmi::CollectiveTicket ticket = pmi().iallgather_start(std::move(value));
      // Read each peer's row in place from the round's shared table.
      const pmi::SharedTable values = co_await pmi().iallgather_wait(ticket);
      for (RankId r = 0; r < n; ++r) {
        remote[r] = rc_row_entry((*values)[r], rank_);
      }
    } else {
      co_await pmi().put(kRcKeyPrefix + std::to_string(rank_),
                         std::move(value));
      co_await pmi().fence();
      for (RankId r = 0; r < n; ++r) {
        const std::string row =
            co_await published(kRcKeyPrefix + std::to_string(r));
        remote[r] = rc_row_entry(row, rank_);
      }
    }
  }

  {
    sim::PhaseTimer timer(engine(), &stats_, "connection_setup");
    for (RankId r = 0; r < n; ++r) {
      co_await connect_rc_qp(qps[r], remote[r]);
      Peer& p = peer(r);
      bind_qp(p, qps[r]);
      establish(p, Peer::Role::kStatic);
    }
  }
}

sim::Task<> Conduit::static_connect_bulk() {
  const std::uint32_t n = size();
  {
    // Same per-connection constants as the fully simulated path, charged in
    // aggregate (validated against the simulated path in tests).
    sim::PhaseTimer timer(engine(), &stats_, "connection_setup");
    co_await engine().delay(
        n * (fabric::kQpCreateCost + 3 * fabric::kQpTransitionCost));
  }
  {
    sim::PhaseTimer timer(engine(), &stats_, "pmi_exchange");
    std::string value(rc_row_bytes(n), 'q');
    if (config().pmi_mode == PmiMode::kNonBlocking) {
      pmi::CollectiveTicket ticket = pmi().iallgather_start(std::move(value));
      (void)co_await pmi().iallgather_wait(ticket);
    } else {
      // The row moves into the KVS: no PE keeps a copy across the fence.
      const std::uint64_t value_bytes = value.size();
      co_await pmi().put(kRcKeyPrefix + std::to_string(rank_),
                         std::move(value));
      co_await pmi().fence();
      co_await pmi().charge_gets(n, value_bytes);
    }
  }
  bulk_connected_ = true;
  bulk_endpoints_ = n;
  stats_.add("qp_created_rc", n);
  stats_.add("connections_established", n);
}

fabric::QueuePair* Conduit::materialize_bulk(RankId dst) {
  Peer& p = peer(dst);
  if (p.qp != nullptr) {
    return p.qp;
  }
  // Both ends of the pair; a self connection is one QP looped back.
  Conduit& other = job_.conduit(dst);
  fabric::QueuePair& mine = hca().materialize_qp(fabric::QpType::kRc, rank_);
  fabric::QueuePair& theirs =
      dst == rank_ ? mine
                   : other.hca().materialize_qp(fabric::QpType::kRc, dst);
  mine.set_remote(theirs.addr());
  theirs.set_remote(mine.addr());
  mine.force_state(fabric::QpState::kRts);
  theirs.force_state(fabric::QpState::kRts);
  bind_qp(p, &mine);
  establish(p, Peer::Role::kStatic);
  if (dst != rank_) {
    Peer& q = other.peer(rank_);
    other.bind_qp(q, &theirs);
    other.establish(q, Peer::Role::kStatic);
  }
  return p.qp;
}

}  // namespace odcm::core
