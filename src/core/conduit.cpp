// Conduit lifecycle, listeners, active messages and the RMA data path.
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/conduit.hpp"

namespace odcm::core {

namespace {
constexpr const char* kUdKeyPrefix = "odcm-ud:";

// Counter and phase ids of this file (sim::stat_id).
const sim::StatId kAmReceived = sim::stat_id("am_received");
const sim::StatId kAmSent = sim::stat_id("am_sent");
const sim::StatId kAmSentShm = sim::stat_id("am_sent_shm");
const sim::StatId kRmaShmTime = sim::stat_id("rma_shm_time");
const sim::StatId kRmaRcTime = sim::stat_id("rma_rc_time");
const sim::StatId kRegRkeyRaces = sim::stat_id("reg_rkey_races");

// Per-kind tables, indexed by RmaKind.
const sim::StatId kRmaCounter[] = {
    sim::stat_id("rma_put"), sim::stat_id("rma_get"),
    sim::stat_id("rma_atomic"), sim::stat_id("rma_atomic"),
    sim::stat_id("rma_atomic")};
const sim::StatId kRmaShmCounter[] = {
    sim::stat_id("rma_put_shm"), sim::stat_id("rma_get_shm"),
    sim::stat_id("rma_atomic_shm"), sim::stat_id("rma_atomic_shm"),
    sim::stat_id("rma_atomic_shm")};
constexpr fabric::WcOpcode kRmaOpcode[] = {
    fabric::WcOpcode::kRdmaWrite, fabric::WcOpcode::kRdmaRead,
    fabric::WcOpcode::kFetchAdd, fabric::WcOpcode::kSwap,
    fabric::WcOpcode::kCompareSwap};
constexpr std::size_t kind_index(RmaKind kind) {
  return static_cast<std::size_t>(kind);
}

// Indexed by BulkTier.
const sim::StatId kTierCounter[] = {sim::stat_id("bulk_tier_eager"),
                                    sim::stat_id("bulk_tier_pipelined"),
                                    sim::stat_id("bulk_tier_rendezvous")};

/// Dead-grant retries before a rendezvous degrades to the pipelined tier.
/// A transfer spanning more registration chunks than the target's pin cap
/// holds evicts its own earliest chunk while the sink resolves, so the
/// invalidation beats the CTS on every attempt — retrying forever would
/// livelock. The pipelined tier pins one chunk at a time and always fits.
constexpr int kRdvMaxRetries = 4;

/// A PMI value's bytes as a ring hop carries them.
std::span<const std::byte> value_bytes(const std::string& value) {
  return std::as_bytes(std::span(value));
}
}  // namespace

fabric::WorkRequest work_request(const RmaOp& op, std::uint64_t offset,
                                 std::uint64_t len, fabric::RKey rkey) {
  fabric::WorkRequest wr{.opcode = kRmaOpcode[kind_index(op.kind)],
                         .raddr = op.raddr + offset,
                         .rkey = rkey,
                         .operand = op.operand,
                         .expect = op.expect};
  if (op.kind == RmaKind::kPut) {
    std::span<const std::byte> bytes = op.src.subspan(offset, len);
    wr.data.assign(bytes.begin(), bytes.end());
  } else if (op.kind == RmaKind::kGet) {
    wr.dest = op.dest.subspan(offset, len);
  }
  return wr;
}

Conduit::Conduit(ConduitJob& job, RankId rank)
    : job_(job),
      rank_(rank),
      node_(job.node_of(rank)),
      landing_freed_(job.engine()) {}

Conduit::~Conduit() = default;

std::uint32_t Conduit::size() const noexcept { return job_.ranks(); }

const ConduitConfig& Conduit::config() const noexcept {
  return job_.config().conduit;
}

fabric::Hca& Conduit::hca() { return job_.fabric().hca(node_); }

pmi::PmiClient& Conduit::pmi() { return job_.pmi().client(rank_); }

sim::Engine& Conduit::engine() { return job_.engine(); }

// ---- lifecycle ----

sim::Task<> Conduit::init() {
  if (initialized_) {
    throw std::logic_error("Conduit::init: already initialized");
  }
  listeners_done_ = std::make_unique<sim::JoinCounter>(engine());
  listeners_done_->add();
  engine().spawn(srq_listener());

  if (config().connection_mode == ConnectionMode::kOnDemand) {
    {
      sim::PhaseTimer timer(engine(), &stats_, "connection_setup");
      ud_qp_ = co_await hca().create_qp(fabric::QpType::kUd, rank_);
      co_await ud_qp_->to_rts();
      stats_.add("qp_created_ud");
    }
    listeners_done_->add();
    engine().spawn(ud_listener());
    {
      sim::PhaseTimer timer(engine(), &stats_, "pmi_exchange");
      co_await publish_ud_endpoint();
    }
  } else if (bulk_sized()) {
    co_await static_connect_bulk();
  } else {
    co_await static_connect_all();
  }
  initialized_ = true;
}

sim::Task<> Conduit::finalize() {
  if (!initialized_ || finalized_) {
    co_return;
  }
  finalized_ = true;

  // Ring bootstrap must finish before receive queues close: every PE's
  // table completes with exactly the messages already in flight, so no PE
  // closes a queue another PE's ring task still needs.
  if (config().pmi_mode == PmiMode::kRing && ud_gate_) {
    co_await ud_gate_->wait();
  }

  // Stop listeners first: close the receive queues, let the loops drain and
  // exit, then tear down the QPs they were reading from.
  hca().srq(rank_).close();
  if (ud_qp_ != nullptr) {
    ud_qp_->ud_recv().close();
  }
  co_await listeners_done_->wait();

  // Let in-flight eviction drains (notice/ack sends on retired QPs) finish.
  // This must come after the listeners exit: a disconnect notice processed
  // moments before the queue closed can still spawn an ack task.
  if (pending_evictions_ > 0) {
    evictions_settled_ = std::make_unique<sim::Trigger>(engine());
    while (pending_evictions_ > 0) {
      co_await evictions_settled_->wait();
    }
  }

  // Flush the credit window of every still-connected peer. Finalize tears
  // QPs down without running set_phase, so without this the granted credits
  // would never be counted returned and the conservation audit
  // (credits_granted == credits_returned) could not close. Epochs are
  // bumped so any straggler release takes the stale-epoch path.
  if (config().qp_credits != 0) {
    for_each_peer([this](RankId, Peer& p) {
      if (p.phase == Peer::Phase::kConnected) {
        stats_.add("credits_returned", p.credit_pool);
        p.credit_pool = 0;
        ++p.credit_epoch;
        if (p.credit_free) p.credit_free->notify_all();
      }
    });
  }

  if (bulk_connected_) {
    std::uint64_t materialized = 0;
    for (const Peer& peer : peers_.slots()) {
      if (peer.qp != nullptr) ++materialized;
    }
    // Aggregate teardown cost of the never-materialized bulk connections,
    // serialized on the HCA command queue like individual destroys.
    sim::Time done = hca().reserve_command_window(
        (bulk_endpoints_ - materialized) * fabric::kQpDestroyCost);
    co_await engine().delay(done - engine().now());
  }
  for (Peer* peer : peers_by_rank()) {
    if (peer->qp != nullptr) {
      co_await hca().destroy_qp(peer->qp->qpn());
      unbind_qp(*peer);
    }
  }
  for (fabric::QueuePair* qp : retired_qps_) {
    co_await hca().destroy_qp(qp->qpn());
  }
  retired_qps_.clear();
  if (ud_qp_ != nullptr) {
    co_await hca().destroy_qp(ud_qp_->qpn());
    ud_qp_ = nullptr;
  }
}

void Conduit::set_payload_hooks(PayloadProvider provider,
                                PayloadConsumer consumer) {
  payload_provider_ = std::move(provider);
  payload_consumer_ = std::move(consumer);
  if (!ready_gate_) {
    ready_gate_ = std::make_unique<sim::Gate>(engine());
  }
}

void Conduit::set_ready() {
  if (ready_gate_) {
    ready_gate_->open();
  }
}

// ---- listeners ----

sim::Task<> Conduit::ud_listener() {
  // The "connection manager thread" of Fig. 4.
  sim::Mailbox<fabric::UdDatagram>& recv = ud_qp_->ud_recv();
  while (true) {
    co_await recv.ready();
    auto gram = recv.try_pop();
    if (!gram) break;  // closed and drained
    co_await engine().delay(kAmHandlerOverhead);
    ConnectPacket packet = ConnectPacket::decode(*gram->payload);
    fabric::EndpointAddr reply_to{gram->src_lid, gram->src_qpn};
    if (packet.type == UdMsgType::kConnectRequest) {
      handle_conn_request(std::move(packet), reply_to);
    } else {
      handle_conn_reply(std::move(packet));
    }
  }
  listeners_done_->finish();
}

sim::Task<> Conduit::srq_listener() {
  sim::Mailbox<fabric::RcMessage>& srq = hca().srq(rank_);
  while (true) {
    co_await srq.ready();
    auto message = srq.try_pop();
    if (!message) break;  // closed and drained
    co_await engine().delay(kAmHandlerOverhead);
    // Consume the delivered buffer in place: the AM payload reuses it
    // instead of being copied out (fast-path allocation churn).
    dispatch_am(AmPacket::decode_consume(std::move(message->payload)),
                message->src_qpn);
  }
  listeners_done_->finish();
}

void Conduit::dispatch_am(AmPacket packet, fabric::Qpn src_qpn) {
  stats_.add(kAmReceived);
  switch (packet.handler) {
    case kBarrierArriveHandler: {
      wire::Reader reader(packet.payload);
      handle_barrier_arrive(packet.src_rank, reader.read_int<std::uint32_t>());
      return;
    }
    case kBarrierReleaseHandler: {
      wire::Reader reader(packet.payload);
      handle_barrier_release(reader.read_int<std::uint32_t>());
      return;
    }
    case kDisconnectNoticeHandler:  // adaptive connection management
      handle_disconnect_notice(packet.src_rank, src_qpn);
      return;
    case kDisconnectAckHandler:
      handle_disconnect_ack(packet.src_rank);
      return;
    case kRingHopHandler: {
      // A forwarded ring entry: a rank, then its published endpoint bytes.
      // PEs read endpoints from the shared table; a hop must agree with it.
      const RankId entry = wire::Reader(packet.payload).read_int<RankId>();
      const std::span<const std::byte> addr =
          std::span<const std::byte>(packet.payload).subspan(sizeof(entry));
      if (!ud_values_ || entry >= size() ||
          !std::ranges::equal(addr, value_bytes((*ud_values_)[entry]))) {
        throw std::logic_error("Conduit: ring hop disagrees with PMI table");
      }
      ring_arrivals_->push(entry);
      return;
    }
    case kRendezvousHandler:  // rendezvous RTS/CTS/FIN (large messages)
      // Runs as its own task: the RTS branch may suspend while the sink
      // resolver pins registration chunks, and a FIN runs the message's
      // handler like the user-handler spawn below.
      engine().spawn(
          handle_rendezvous(packet.src_rank, std::move(packet.payload)));
      return;
    default:
      break;
  }
  if (packet.handler >= handlers_.size() || !handlers_[packet.handler]) {
    throw std::runtime_error("Conduit: AM for unregistered handler " +
                             std::to_string(packet.handler));
  }
  // User handlers run as their own tasks so a handler that suspends cannot
  // stall the progress loop.
  engine().spawn(
      handlers_[packet.handler](packet.src_rank, std::move(packet.payload)));
}

// ---- active messages ----

void Conduit::register_handler(std::uint16_t id, AmHandler handler) {
  if (id < kFirstUserHandler) {
    throw std::logic_error("Conduit::register_handler: id reserved");
  }
  if (id >= handlers_.size()) {
    handlers_.resize(static_cast<std::size_t>(id) + 1);
  }
  if (handlers_[id]) {
    throw std::logic_error("Conduit::register_handler: duplicate id");
  }
  handlers_[id] = std::move(handler);
}

sim::Task<> Conduit::am_send(RankId dst, std::uint16_t handler,
                             std::vector<std::byte> payload) {
  if (shm_routes(dst)) {
    co_return co_await shm_am_send(dst, handler, std::move(payload));
  }
  AmPacket::frame(payload, handler, rank_);
  while (true) {
    // A connected peer with a free credit takes neither the connect nor the
    // credit task: neither would suspend, so no event moves.
    fabric::QueuePair* qp = ready_qp(dst);
    if (qp == nullptr) qp = co_await connected_qp(dst);
    // User-level messages consume a flow-control credit; conduit-internal
    // protocol traffic (barrier, disconnect notice/ack, rendezvous RTS/CTS)
    // is exempt so eviction drains and rendezvous handshakes can always
    // make progress even with the data window exhausted.
    CreditLease credit;
    if (handler >= kFirstUserHandler) {
      credit = try_credit(dst);
      if (!credit) credit = co_await acquire_credit(dst);
      if (!credit) continue;  // connection torn down during the stall
    }
    const fabric::Completion wc = co_await qp->send(std::move(payload));
    credit.release();
    if (!wc.ok()) {
      throw std::runtime_error("Conduit::am_send: send failed");
    }
    stats_.add(kAmSent);
    co_return;
  }
}

// ---- intra-node shared-memory transport ----

bool Conduit::shm_routes(RankId dst) const {
  return config().intranode_transport == IntranodeTransport::kShm &&
         dst < size() && job_.node_of(dst) == node_;
}

fabric::ShmDomain& Conduit::shm_domain() {
  return job_.fabric().shm_domain(node_);
}

void Conduit::mark_shm_peer(RankId dst) {
  // shm routes only within the node, and nodes are contiguous rank blocks.
  const std::uint32_t per_node = job_.config().ranks_per_node;
  if (shm_node_peers_.empty()) {
    shm_node_peers_.resize(per_node);
  }
  const std::size_t bit = dst - node_ * per_node;
  if (!shm_node_peers_[bit]) {
    shm_node_peers_[bit] = true;
    ++shm_peer_count_;
  }
}

sim::Task<> Conduit::shm_export(fabric::AddressSpace& space,
                                fabric::VirtAddr base, std::uint64_t len) {
  if (config().intranode_transport != IntranodeTransport::kShm) {
    co_return;
  }
  co_await shm_domain().export_segment(rank_, space, base, len);
  stats_.add("shm_segment_exported");
}

sim::Task<> Conduit::shm_am_send(RankId dst, std::uint16_t handler,
                                 std::vector<std::byte> bytes) {
  AmPacket::frame(bytes, handler, rank_);
  co_await engine().delay(
      fabric::kShmAmOverhead + fabric::kShmCopyLatency +
      static_cast<sim::Time>(static_cast<double>(bytes.size()) /
                             fabric::kShmBytesPerNs));
  mark_shm_peer(dst);
  stats_.add(kAmSent);
  stats_.add(kAmSentShm);
  // Delivered through the same per-PE receive queue RC SENDs land in, so
  // dispatch (and its software overhead) stays transport-independent.
  // src_qpn 0 marks a connectionless origin.
  hca().srq(dst).push(
      fabric::RcMessage{.src_lid = hca().lid(), .payload = std::move(bytes)});
}

sim::Task<fabric::Completion> Conduit::shm_rma(RankId dst, const RmaOp& op) {
  const sim::Time start = engine().now();
  const std::uint64_t len = op.len();
  mark_shm_peer(dst);
  stats_.add(kRmaCounter[kind_index(op.kind)]);
  stats_.add(kRmaShmCounter[kind_index(op.kind)]);
  notify({.kind = ProtocolEvent::Kind::kShmIssued, .peer = dst});
  const fabric::WorkRequest wr = work_request(op, 0, len, 0);
  co_await engine().delay(
      op.atomic() ? fabric::kShmAtomicLatency
                  : fabric::kShmCopyLatency +
                        static_cast<sim::Time>(static_cast<double>(len) /
                                               fabric::kShmBytesPerNs));
  fabric::Completion wc;
  wc.opcode = wr.opcode;
  wc.byte_len = static_cast<std::uint32_t>(len);
  auto window = shm_domain().resolve(dst, op.raddr, len);
  if (window) {
    wc.atomic_old = fabric::execute(wr, *window, op.dest);
  } else {
    wc.status = fabric::WcStatus::kRemoteAccessError;
  }
  stats_.add_time(kRmaShmTime, engine().now() - start);
  co_return wc;
}

// ---- RMA ----

sim::Task<fabric::QueuePair*> Conduit::connected_qp(RankId dst) {
  if (dst >= size()) {
    throw std::out_of_range("Conduit::connected_qp: bad rank");
  }
  co_await ensure_connected(dst);
  co_return touch_qp(peer(dst));
}

fabric::QueuePair* Conduit::ready_qp(RankId dst) {
  Peer* p = peers_.find(dst);
  if (p == nullptr || p->phase != Peer::Phase::kConnected) return nullptr;
  return touch_qp(*p);
}

fabric::QueuePair* Conduit::touch_qp(Peer& p) {
  // Touch the LRU clock; the list keeps its (last_used, rank) order so
  // victim selection stays O(1).
  if (p.in_lru) {
    lru_.touch(p, engine().now());
  } else {
    p.last_used = engine().now();
  }
  return p.qp;
}

sim::Task<fabric::Completion> Conduit::rma(RankId dst, RmaOp op) {
  // 1. Route: same-node peers under the shm transport need no connection,
  //    rkey or credit.
  if (shm_routes(dst)) {
    co_return co_await shm_rma(dst, op);
  }
  const sim::Time start = engine().now();
  const std::uint64_t len = op.len();
  fabric::Completion wc;
  wc.opcode = kRmaOpcode[kind_index(op.kind)];
  wc.byte_len = static_cast<std::uint32_t>(len);

  // 2. Tier: atomics are always a single eager op.
  BulkTier tier = BulkTier::kEager;
  if (!op.atomic()) {
    tier = select_tier(len);
    if (config().tiering_enabled()) {
      stats_.add(kTierCounter[static_cast<std::size_t>(tier)]);
    }
  }
  if (tier == BulkTier::kRendezvous) {
    for (int attempt = 0; attempt < kRdvMaxRetries; ++attempt) {
      if (co_await rendezvous(dst,
                              op.kind == RmaKind::kGet ? RdvOp::kGet
                                                       : RdvOp::kPut,
                              op.raddr, op.src, op.dest)) {
        co_return wc;
      }
      stats_.add("rendezvous_retries");
    }
    stats_.add("rendezvous_fallbacks");
    tier = BulkTier::kPipelined;
  }

  // 3. Rkeys: the hook splits the transfer into rkey-covered pieces (one
  //    per registration chunk under on-demand registration).
  const bool is_get = op.kind == RmaKind::kGet;
  for (std::uint64_t offset = 0; offset < len;) {
    RkeyGrant grant;
    if (rkey_hook_ != nullptr) {
      grant = co_await rkey_hook_->resolve(dst, op.raddr + offset,
                                           len - offset);
    } else {
      grant = RkeyGrant{.len = len - offset, .rkey = op.rkey};
    }
    if (op.atomic() && grant.len != len) {
      throw std::invalid_argument(
          "Conduit::rma: atomic straddles an rkey boundary");
    }
    // 4. Connect, and take the credit of a single RC op (a fragment stream
    //    takes one per fragment instead).
    fabric::QueuePair* qp = ready_qp(dst);
    if (qp == nullptr) qp = co_await connected_qp(dst);
    CreditLease credit;
    while (tier == BulkTier::kEager) {
      credit = try_credit(dst);
      if (!credit) credit = co_await acquire_credit(dst);
      if (credit) break;
      qp = co_await connected_qp(dst);  // torn down during the stall
    }
    if (!grant.lease.current(grant.rkey)) {
      // An invalidation landed while we suspended. Dropping the lease lets
      // its deferred ack proceed; resolve afresh.
      stats_.add(kRegRkeyRaces);
      continue;
    }
    report_rkey_used(dst, grant);
    if (tier == BulkTier::kPipelined) {
      const std::uint32_t seq = ++rdv_seq_;
      std::vector<RdvRange> ranges{
          RdvRange{op.raddr + offset, grant.len, grant.rkey}};
      // Only the transfer's own direction has bytes to slice: a put's
      // `dest` and a get's `src` are empty.
      std::span<const std::byte> src_data;
      std::span<std::byte> dest_data;
      if (is_get) {
        dest_data = op.dest.subspan(offset, grant.len);
      } else {
        src_data = op.src.subspan(offset, grant.len);
      }
      co_await stream_fragments(dst, is_get, seq, std::move(ranges), src_data,
                                dest_data);
    } else {
      stats_.add(kRmaCounter[kind_index(op.kind)]);
      notify({.kind = ProtocolEvent::Kind::kRdmaIssued, .peer = dst});
      const fabric::Completion piece =
          co_await qp->post(work_request(op, offset, grant.len, grant.rkey));
      credit.release();
      if (op.atomic() || !piece.ok()) wc = piece;
      if (!piece.ok()) break;
    }
    offset += grant.len;
  }
  stats_.add_time(kRmaRcTime, engine().now() - start);
  co_return wc;
}

void Conduit::report_rkey_used(RankId dst, const RkeyGrant& grant) {
  if (grant.lease.held()) {
    notify({.kind = ProtocolEvent::Kind::kRegRkeyUsed,
            .peer = dst,
            .attempt = grant.lease.chunk(),
            .detail = grant.rkey});
  }
}

// ---- PMI endpoint exchange ----

sim::Task<> Conduit::publish_ud_endpoint() {
  std::string value = encode_endpoint(ud_qp_->addr());
  if (config().pmi_mode == PmiMode::kBlocking) {
    co_await pmi().put(kUdKeyPrefix + std::to_string(rank_),
                       std::move(value));
    co_await pmi().fence();
  } else if (config().pmi_mode == PmiMode::kRing) {
    // PMIX_Ring bootstrap: constant-cost out-of-band exchange of the ring
    // neighbors' endpoints, then the rest travels over InfiniBand.
    ud_values_ = co_await pmi().ring(std::move(value));
    ud_gate_ = std::make_unique<sim::Gate>(engine());
    ring_arrivals_ = std::make_unique<sim::Mailbox<RankId>>(engine());
    engine().spawn(ring_distribute());
  } else {
    // PMIX_Iallgather: launched here, waited on at first communication
    // (paper §IV-D). Launching is effectively free.
    ud_ticket_ = pmi().iallgather_start(std::move(value));
  }
}

sim::Task<> Conduit::ring_distribute() {
  const std::uint32_t n = size();
  if (n <= 2) {
    // Neighbors cover the whole job already.
    ud_gate_->open();
    co_return;
  }
  RankId right = (rank_ + 1) % n;
  RankId current = rank_;
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    std::vector<std::byte> payload;
    wire::put_int<std::uint32_t>(payload, current);
    wire::put_bytes(payload, value_bytes((*ud_values_)[current]));
    co_await am_send(right, kRingHopHandler, std::move(payload));
    current = co_await ring_arrivals_->pop();
    // Entries arrive in ring order; `ud_reached` counts on it.
    if (current != (rank_ + n - 1 - ring_hops_) % n) {
      throw std::logic_error("Conduit: ring hop out of order");
    }
    ++ring_hops_;
  }
  stats_.add("ring_bootstrap_hops", n - 1);
  ud_gate_->open();
}

bool Conduit::ud_reached(RankId dst) const {
  if (!ud_values_) return false;
  if (config().pmi_mode != PmiMode::kRing) return true;
  // Ring: this PE's own entry (0 behind), its PMI neighbors' (1 and n-1
  // behind), and those forwarded from the left so far (1 … hops behind).
  const std::uint32_t n = size();
  const std::uint32_t behind = (rank_ + n - dst) % n;
  return behind <= std::max(ring_hops_, 1u) || behind == n - 1;
}

sim::Task<fabric::EndpointAddr> Conduit::resolve_ud(RankId dst) {
  if (config().pmi_mode == PmiMode::kBlocking) {
    // One PMI get per peer, cached in the peer's slot.
    Peer& p = peer(dst);
    if (!p.ud_addr) {
      sim::PhaseTimer timer(engine(), &stats_, "pmi_wait");
      const std::string value =
          co_await published(kUdKeyPrefix + std::to_string(dst));
      p.ud_addr = decode_endpoint(value);
    }
    co_return *p.ud_addr;
  }
  if (!ud_reached(dst)) {
    // First-communication semantics, like PMIX_Wait: wait for the ring's
    // dissemination, or for the iallgather round (the first resolution
    // waits for it, concurrent ones for the first). Every PE of the job
    // then reads the same shared table.
    sim::PhaseTimer timer(engine(), &stats_, "pmi_wait");
    if (ud_gate_) {
      co_await ud_gate_->wait();
    } else {
      ud_gate_ = std::make_unique<sim::Gate>(engine());
      ud_values_ = co_await pmi().iallgather_wait(*ud_ticket_);
      ud_gate_->open();
    }
  }
  co_return decode_endpoint((*ud_values_)[dst]);
}

sim::Task<std::string> Conduit::published(std::string key) {
  std::optional<std::string> value = co_await pmi().get(key);
  if (!value) {
    throw std::runtime_error("Conduit: " + key + " not published");
  }
  co_return std::move(*value);
}

// ---- accounting ----

Conduit::Peer& Conduit::peer(RankId rank) { return peers_.get(rank); }

const Conduit::Peer* Conduit::find_peer(RankId rank) const noexcept {
  return peers_.find(rank);
}

std::uint64_t Conduit::connected_peer_count() const {
  if (bulk_connected_) {
    return size();
  }
  return connected_count_;
}

PeerPhase Conduit::peer_phase(RankId rank) const {
  const Peer* p = find_peer(rank);
  return p == nullptr ? PeerPhase::kIdle : p->phase;
}

PeerRole Conduit::peer_role(RankId rank) const {
  const Peer* p = find_peer(rank);
  return p == nullptr ? PeerRole::kNone : p->role;
}

std::uint64_t Conduit::endpoints_created() const {
  return static_cast<std::uint64_t>(stats_.counter("qp_created_rc") +
                                    stats_.counter("qp_created_ud"));
}

}  // namespace odcm::core
