#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "fabric/fabric.hpp"

namespace odcm::fabric {

namespace {

/// Validate a verbs state transition.
bool valid_transition(QpState from, QpState to) {
  switch (to) {
    case QpState::kInit:
      return from == QpState::kReset;
    case QpState::kRtr:
      return from == QpState::kInit;
    case QpState::kRts:
      return from == QpState::kRtr;
    case QpState::kReset:
    case QpState::kError:
      return true;
    default:
      return false;
  }
}

constexpr const char* kOpName[] = {"send",      "rdma_write",   "rdma_read",
                                   "fetch_add", "compare_swap", "swap"};

bool is_atomic(WcOpcode opcode) {
  return opcode == WcOpcode::kFetchAdd || opcode == WcOpcode::kCompareSwap ||
         opcode == WcOpcode::kSwap;
}

/// A posted RC work request until it completes. It lives in the posting
/// coroutine's frame, which waits on `done`; the two fabric events reach it
/// by pointer (`Hca::destroy_qp` refuses a QP with work in flight).
struct InFlight {
  InFlight(sim::Engine& engine, WorkRequest request)
      : wr(std::move(request)), done(engine) {}

  WorkRequest wr;
  std::size_t len = 0;
  RankId dst_rank = 0;                ///< send: owner of the target QP
  std::vector<std::byte> snapshot{};  ///< read: the bytes at the responder
  WcStatus status = WcStatus::kSuccess;
  std::uint64_t atomic_old = 0;
  sim::Gate done;
};

}  // namespace

QueuePair::QueuePair(Hca& hca, Qpn qpn, QpType type, RankId owner)
    : hca_(hca), qpn_(qpn), type_(type), owner_(owner) {
  if (type_ == QpType::kUd) {
    ud_recv_ =
        std::make_unique<sim::Mailbox<UdDatagram>>(hca_.fabric().engine());
  }
}

Lid QueuePair::lid() const noexcept { return hca_.lid(); }

void QueuePair::require_state(QpState expected, const char* op) const {
  if (state_ != expected) {
    throw std::logic_error(std::string("QueuePair: ") + op +
                           " requires QP state " +
                           std::to_string(static_cast<int>(expected)) +
                           ", current state " +
                           std::to_string(static_cast<int>(state_)));
  }
}

void QueuePair::require_type(QpType expected, const char* op) const {
  if (type_ != expected) {
    throw std::logic_error(std::string("QueuePair: ") + op +
                           " called on wrong transport type");
  }
}

// ---- state machine ----

sim::Task<> QueuePair::transition(QpState next) {
  if (!valid_transition(state_, next)) {
    throw std::logic_error("QueuePair::transition: invalid state change");
  }
  if (type_ == QpType::kRc && next == QpState::kRtr && remote_.lid == 0) {
    throw std::logic_error(
        "QueuePair::transition: RC QP needs set_remote before RTR");
  }
  return transition_impl(next);
}

sim::Task<> QueuePair::transition_impl(QpState next) {
  co_await hca_.fabric().engine().delay(kQpTransitionCost);
  state_ = next;
}

sim::Task<> QueuePair::to_rts() {
  if (state_ == QpState::kReset) co_await transition(QpState::kInit);
  if (state_ == QpState::kInit) co_await transition(QpState::kRtr);
  if (state_ == QpState::kRtr) co_await transition(QpState::kRts);
  if (state_ != QpState::kRts) {
    throw std::logic_error("QueuePair::to_rts: QP is in error state");
  }
}

void QueuePair::set_remote(EndpointAddr remote) {
  if (type_ != QpType::kRc) {
    throw std::logic_error("QueuePair::set_remote: only RC QPs connect");
  }
  remote_ = remote;
}

std::optional<std::span<std::byte>> QueuePair::resolve_remote(
    VirtAddr raddr, RKey rkey, std::size_t len) {
  Hca& remote_hca = hca_.fabric().hca_by_lid(remote_.lid);
  return remote_hca.resolve(raddr, rkey, len);
}

sim::Time QueuePair::schedule_arrival(std::size_t bytes) {
  Fabric& fabric = hca_.fabric();
  sim::Time depart = hca_.reserve_injection_slot();
  sim::Time latency = fabric.transfer_latency(lid(), remote_.lid, bytes) +
                      hca_.cache_penalty();
  sim::Time arrival = std::max(depart + latency, last_arrival_);
  last_arrival_ = arrival;
  return arrival;
}

Completion QueuePair::finish(WrId wr_id, WcOpcode opcode, WcStatus status,
                             std::uint32_t byte_len,
                             std::uint64_t atomic_old) {
  --outstanding_;
  if (status != WcStatus::kSuccess) {
    state_ = QpState::kError;
  }
  return Completion{wr_id, status, opcode, byte_len, atomic_old};
}

// ---- RC operations ----

std::uint64_t execute(const WorkRequest& wr, std::span<std::byte> window,
                      std::span<std::byte> read_into) {
  if (wr.opcode == WcOpcode::kRdmaWrite) {
    std::copy(wr.data.begin(), wr.data.end(), window.begin());
    return 0;
  }
  if (wr.opcode == WcOpcode::kRdmaRead) {
    std::copy(window.begin(), window.end(), read_into.begin());
    return 0;
  }
  if (!is_atomic(wr.opcode)) {
    throw std::logic_error("fabric::execute: a send has no target window");
  }
  std::uint64_t old = 0;
  std::memcpy(&old, window.data(), sizeof(old));
  std::uint64_t value = old;
  if (wr.opcode == WcOpcode::kFetchAdd) {
    value = old + wr.operand;
  } else if (wr.opcode == WcOpcode::kSwap || old == wr.expect) {
    value = wr.operand;
  }
  std::memcpy(window.data(), &value, sizeof(value));
  return old;
}

sim::Task<Completion> QueuePair::post(WorkRequest wr) {
  const char* op = kOpName[static_cast<std::size_t>(wr.opcode)];
  require_type(QpType::kRc, op);
  require_state(QpState::kRts, op);
  return post_impl(std::move(wr));
}

sim::Task<Completion> QueuePair::post_impl(WorkRequest wr) {
  ++outstanding_;
  Fabric& fabric = hca_.fabric();
  sim::Engine& engine = fabric.engine();
  InFlight op(engine, std::move(wr));
  const WcOpcode opcode = op.wr.opcode;
  const bool read = opcode == WcOpcode::kRdmaRead;
  op.len = read                ? op.wr.dest.size()
           : is_atomic(opcode) ? sizeof(std::uint64_t)
                               : op.wr.data.size();

  // A read request is header-only; its response carries the data. Reads
  // and atomics complete when the response is back, sends and writes when
  // the ack is.
  const sim::Time arrival = schedule_arrival(read ? 0 : op.len);
  const sim::Time complete =
      read || is_atomic(opcode)
          ? arrival + kResponderOverhead +
                fabric.transfer_latency(remote_.lid, lid(), op.len)
          : arrival + kAckLatency;

  if (opcode == WcOpcode::kSend) {
    QueuePair* remote_qp =
        fabric.hca_by_lid(remote_.lid).find_qp(remote_.qpn);
    if (remote_qp == nullptr) {
      // The peer QP vanished: real RC would retry and eventually fail with
      // a retry-exceeded completion; we fail immediately.
      co_await engine.delay(kAckLatency);
      co_return finish(op.wr.wr_id, opcode, WcStatus::kRemoteAccessError, 0);
    }
    op.dst_rank = remote_qp->owner();
  }

  engine.schedule_at(arrival, [this, &op] {
    if (op.wr.opcode == WcOpcode::kSend) {
      sim::Mailbox<RcMessage>& srq =
          hca_.fabric().hca_by_lid(remote_.lid).srq(op.dst_rank);
      // A drained (closed) receive queue flushes incoming messages, like a
      // QP in the error state.
      if (!srq.closed()) {
        srq.push(RcMessage{lid(), qpn_, remote_.qpn, std::move(op.wr.data)});
      }
      return;
    }
    auto window = resolve_remote(op.wr.raddr, op.wr.rkey, op.len);
    if (!window) {
      op.status = WcStatus::kRemoteAccessError;
      return;
    }
    if (op.wr.opcode == WcOpcode::kRdmaRead) op.snapshot.resize(op.len);
    op.atomic_old = execute(op.wr, *window, op.snapshot);
  });
  // Only a successful read has a snapshot to land.
  engine.schedule_at(complete, [&op] {
    std::copy(op.snapshot.begin(), op.snapshot.end(), op.wr.dest.begin());
    op.done.open();
  });
  co_await op.done.wait();
  co_return finish(op.wr.wr_id, opcode, op.status,
                   static_cast<std::uint32_t>(op.len), op.atomic_old);
}

// ---- UD operations ----

sim::Task<Completion> QueuePair::send_ud(Lid dlid, Qpn dqpn,
                                         std::vector<std::byte> payload,
                                         WrId wr_id) {
  return send_ud(
      dlid, dqpn,
      std::make_shared<const std::vector<std::byte>>(std::move(payload)),
      wr_id);
}

sim::Task<Completion> QueuePair::send_ud(Lid dlid, Qpn dqpn, UdPayload payload,
                                         WrId wr_id) {
  require_type(QpType::kUd, "send_ud");
  require_state(QpState::kRts, "send_ud");
  if (payload == nullptr) {
    throw std::logic_error("QueuePair::send_ud: null payload");
  }
  if (payload->size() > kMtu) {
    throw std::logic_error("QueuePair::send_ud: payload exceeds MTU");
  }
  return send_ud_impl(dlid, dqpn, std::move(payload), wr_id);
}

sim::Task<Completion> QueuePair::send_ud_impl(Lid dlid, Qpn dqpn,
                                              UdPayload payload, WrId wr_id) {
  ++outstanding_;
  Fabric& fabric = hca_.fabric();
  const FabricConfig& cfg = fabric.config();
  sim::Engine& engine = fabric.engine();
  const auto byte_len = static_cast<std::uint32_t>(payload->size());
  sim::Time depart = hca_.reserve_injection_slot();

  auto deliver = [&fabric, dlid, dqpn](sim::Time at,
                                       std::shared_ptr<UdDatagram> gram) {
    fabric.engine().schedule_at(at, [&fabric, dlid, dqpn, gram] {
      QueuePair* dst = fabric.hca_by_lid(dlid).find_qp(dqpn);
      // Datagrams to missing or non-UD QPs are silently dropped, like real
      // UD traffic to a stale QPN.
      if (dst != nullptr && dst->type() == QpType::kUd &&
          (dst->state() == QpState::kRtr || dst->state() == QpState::kRts) &&
          !dst->ud_recv().closed()) {
        dst->ud_recv().push(*gram);
      }
    });
  };

  // Scripted fault schedule (if installed) composes with the i.i.d. rates:
  // the hook sees every datagram and may drop, duplicate, delay, or kill
  // the destination QP outright.
  UdFault fault{};
  if (fabric.ud_fault_hook()) {
    UdSendContext ctx;
    ctx.src_rank = owner_;
    QueuePair* dst_peek = fabric.hca_by_lid(dlid).find_qp(dqpn);
    ctx.dst_rank = dst_peek != nullptr ? dst_peek->owner() : 0;
    ctx.src_lid = lid();
    ctx.dst_lid = dlid;
    ctx.src_qpn = qpn_;
    ctx.dst_qpn = dqpn;
    ctx.payload = *payload;
    ctx.index = fabric.next_ud_index();
    ctx.now = engine.now();
    fault = fabric.ud_fault_hook()(ctx);
  }

  if (fault.kill_dst_qp) {
    engine.schedule_at(depart, [&fabric, dlid, dqpn] {
      QueuePair* dst = fabric.hca_by_lid(dlid).find_qp(dqpn);
      if (dst != nullptr) dst->set_error();
    });
  }
  bool dropped = fault.drop || fault.kill_dst_qp;
  dropped = fabric.rng().chance(cfg.ud_drop_rate) || dropped;
  if (!dropped) {
    sim::Time jitter =
        cfg.ud_jitter_max > 0 ? fabric.rng().next_below(cfg.ud_jitter_max) : 0;
    sim::Time latency = fabric.transfer_latency(lid(), dlid, payload->size()) +
                        jitter + fault.extra_delay;
    // Every delivered copy (including duplicates) shares the immutable
    // payload buffer; only the shared_ptr is copied per delivery.
    auto gram = std::make_shared<UdDatagram>(
        UdDatagram{lid(), qpn_, std::move(payload)});
    deliver(depart + latency, gram);
    if (fabric.rng().chance(cfg.ud_duplicate_rate)) {
      sim::Time jitter2 = cfg.ud_jitter_max > 0
                              ? fabric.rng().next_below(cfg.ud_jitter_max)
                              : kWireLatency;
      deliver(depart + latency + jitter2 + 1, gram);
    }
    for (std::uint32_t copy = 0; copy < fault.duplicates; ++copy) {
      deliver(depart + latency + (copy + 1) * (kWireLatency + 1), gram);
    }
  }

  sim::Gate done(engine);
  engine.schedule_at(depart + kHcaTxOverhead, [&done] { done.open(); });
  co_await done.wait();
  co_return finish(wr_id, WcOpcode::kSend, WcStatus::kSuccess, byte_len);
}

sim::Mailbox<UdDatagram>& QueuePair::ud_recv() {
  if (!ud_recv_) {
    throw std::logic_error("QueuePair::ud_recv: not a UD QP");
  }
  return *ud_recv_;
}

}  // namespace odcm::fabric
