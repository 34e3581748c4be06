#include "mpi/mpi.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/wire.hpp"
#include "shmem/pe.hpp"
#include "sim/time.hpp"

namespace odcm::mpi {

// Hybrid jobs run OpenSHMEM and MPI over one conduit, so their AM handler
// ids must never collide.
static_assert(kMpiHandler != shmem::detail::kCollDataHandler &&
                  kMpiHandler != shmem::detail::kSegInfoHandler &&
                  kMpiHandler != shmem::detail::kRegHandler &&
                  kMpiRdvHandler != shmem::detail::kCollDataHandler &&
                  kMpiRdvHandler != shmem::detail::kSegInfoHandler &&
                  kMpiRdvHandler != shmem::detail::kRegHandler,
              "MPI and OpenSHMEM AM handler ids clash");

MpiComm::MpiComm(core::Conduit& conduit)
    : conduit_(conduit), matches_(conduit.engine()) {
  conduit_.register_handler(
      kMpiHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_message(src, std::move(payload), /*bounce_copy=*/true);
      });
  conduit_.register_handler(
      kMpiRdvHandler,
      [this](RankId src, std::vector<std::byte> payload) -> sim::Task<> {
        return handle_message(src, std::move(payload), /*bounce_copy=*/false);
      });
}

sim::Task<> MpiComm::init() {
  if (!conduit_.initialized()) {
    co_await conduit_.init();
    conduit_.set_ready();
  }
}

double MpiComm::wtime() {
  return sim::to_seconds(conduit_.engine().now());
}

void MpiComm::check_rank(RankId peer, const char* what) const {
  if (peer >= size()) {
    throw std::out_of_range(std::string("MpiComm::") + what + ": no rank " +
                            std::to_string(peer));
  }
}

sim::Task<> MpiComm::handle_message(RankId src,
                                    std::vector<std::byte> payload,
                                    bool bounce_copy) {
  const auto tag = core::wire::Reader(payload).read_int<std::uint64_t>();
  // Strip the tag in place: the body keeps the delivered buffer.
  payload.erase(payload.begin(), payload.begin() + sizeof(tag));
  Arrival arrival{std::move(payload), conduit_.engine().now()};
  if (conduit_.config().tiering_enabled()) {
    // Matched now, visible later: after the eager bounce-buffer copy (the
    // cost rendezvous exists to avoid; its bytes landed by RDMA write), and
    // never before an earlier message from this source (non-overtaking).
    if (bounce_copy) {
      arrival.visible_at += static_cast<sim::Time>(
          static_cast<double>(arrival.data.size()) /
          fabric::kEagerCopyBytesPerNs);
    }
    sim::Time& latest = visible_[src];
    arrival.visible_at = latest = std::max(latest, arrival.visible_at);
  }
  const std::size_t live = matches_.size();
  matches_.deliver({src, tag}, std::move(arrival));
  count_matchboxes(live);
  co_return;
}

MpiComm::Request MpiComm::post(RankId src, std::uint64_t tag) {
  Request request;
  request.state_ = std::make_shared<Request::State>(conduit_.engine());
  const std::size_t live = matches_.size();
  matches_.post({src, tag}, request.state_);
  count_matchboxes(live);
  return request;
}

void MpiComm::count_matchboxes(std::size_t live_before) {
  if (matches_.size() == live_before) return;
  conduit_.stats().add(matches_.size() > live_before ? "mpi_matchbox_created"
                                                     : "mpi_matchbox_reclaimed");
}

sim::Task<> MpiComm::send_tagged(RankId dst, std::uint64_t tag,
                                 std::span<const std::byte> data) {
  std::vector<std::byte> message;
  // Room for the AM header too: am_send frames this buffer in place.
  message.reserve(core::AmPacket::kHeaderSize + 8 + data.size());
  core::wire::put_int<std::uint64_t>(message, tag);
  message.insert(message.end(), data.begin(), data.end());
  const core::ConduitConfig& cfg = conduit_.config();
  if (cfg.rendezvous_threshold != 0 && data.size() > cfg.rendezvous_threshold &&
      dst != rank()) {
    // Zero-byte and small sends never reach this branch: they stay eager
    // and cost exactly one AM (a 0-byte send must still match a receive
    // but may not spend credits or trigger rendezvous state).
    co_await conduit_.am_send_rendezvous(dst, kMpiRdvHandler,
                                         std::move(message));
    co_return;
  }
  co_await conduit_.am_send(dst, kMpiHandler, std::move(message));
}

sim::Task<std::vector<std::byte>> MpiComm::recv_tagged(RankId src,
                                                       std::uint64_t tag) {
  return wait_impl(post(src, tag));
}

sim::Task<> MpiComm::send(RankId dst, std::uint32_t tag,
                          std::span<const std::byte> data) {
  // Routed through the isend chain so a blocking send posted after a
  // pending isend to the same destination cannot overtake it.
  (void)co_await wait(isend(dst, tag, data));
}

sim::Task<std::vector<std::byte>> MpiComm::recv(RankId src,
                                                std::uint32_t tag) {
  return wait(irecv(src, tag));
}

MpiComm::Request MpiComm::isend(RankId dst, std::uint32_t tag,
                                std::span<const std::byte> data) {
  check_rank(dst, "isend");
  Request request;
  request.state_ = std::make_shared<Request::State>(conduit_.engine());
  // Chain behind the previous send to the same destination: the sender task
  // below only hits the wire after its predecessor completed, so two
  // back-to-back isends with the same (dst, tag) stay in posting order no
  // matter how the scheduler interleaves their detached tasks.
  std::shared_ptr<Request::State> prev =
      std::exchange(send_tail_[dst], request.state_);
  conduit_.engine().spawn(
      [](MpiComm& comm, RankId d, std::uint32_t t,
         std::vector<std::byte> payload,
         std::shared_ptr<Request::State> predecessor,
         std::shared_ptr<Request::State> state) -> sim::Task<> {
        if (predecessor) co_await predecessor->done.wait();
        comm.conduit_.stats().add("mpi_send");
        co_await comm.send_tagged(d, t, payload);
        state->done.open();
        auto it = comm.send_tail_.find(d);
        if (it != comm.send_tail_.end() && it->second == state) {
          comm.send_tail_.erase(it);
        }
      }(*this, dst, tag, std::vector<std::byte>(data.begin(), data.end()),
        std::move(prev), request.state_));
  return request;
}

MpiComm::Request MpiComm::irecv(RankId src, std::uint32_t tag) {
  check_rank(src, "irecv");
  conduit_.stats().add("mpi_recv");
  return post(src, tag);
}

sim::Task<std::vector<std::byte>> MpiComm::wait(Request request) {
  if (!request.valid()) {
    throw std::logic_error("MpiComm::wait: invalid request");
  }
  return wait_impl(std::move(request));
}

sim::Task<std::vector<std::byte>> MpiComm::wait_impl(Request request) {
  co_await request.state_->done.wait();
  Arrival& arrival = request.state_->item;
  sim::Engine& engine = conduit_.engine();
  if (arrival.visible_at > engine.now()) {
    co_await engine.delay(arrival.visible_at - engine.now());
  }
  co_return std::move(arrival.data);
}

sim::Task<> MpiComm::waitall(std::vector<Request> requests) {
  for (Request& request : requests) {
    (void)co_await wait(std::move(request));
  }
}

sim::Task<> MpiComm::barrier() {
  co_await conduit_.barrier_global();
}

sim::Task<> MpiComm::bcast(RankId root, std::span<std::byte> data) {
  check_rank(root, "bcast");
  const std::uint32_t n = size();
  if (n == 1) co_return;
  const std::uint64_t tag = kUserTagSpace + coll_seq_++;
  const core::KaryTree tree(n, rank(), root);

  if (!tree.is_root()) {
    std::vector<std::byte> incoming = co_await recv_tagged(tree.parent(), tag);
    if (incoming.size() != data.size()) {
      throw std::runtime_error("MpiComm::bcast: size mismatch");
    }
    std::copy(incoming.begin(), incoming.end(), data.begin());
  }
  for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
    co_await send_tagged(tree.child(c), tag, data);
  }
}

sim::Task<> MpiComm::allgather(std::span<const std::byte> block,
                               std::span<std::byte> out) {
  const std::uint32_t n = size();
  const std::size_t len = block.size();
  if (out.size() != len * n) {
    throw std::invalid_argument("MpiComm::allgather: bad output size");
  }
  std::copy(block.begin(), block.end(),
            out.begin() + static_cast<std::ptrdiff_t>(rank() * len));
  if (n == 1) co_return;
  // Ring allgather: N-1 steps, each forwarding the newest block.
  const std::uint64_t tag = kUserTagSpace + coll_seq_++;
  const RankId right = (rank() + 1) % n;
  const RankId left = (rank() + n - 1) % n;
  std::uint32_t send_idx = rank();
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    std::vector<std::byte> message;
    core::wire::put_int<std::uint32_t>(message, send_idx);
    auto chunk = out.subspan(static_cast<std::size_t>(send_idx) * len, len);
    message.insert(message.end(), chunk.begin(), chunk.end());
    co_await send_tagged(right, tag, message);

    std::vector<std::byte> incoming = co_await recv_tagged(left, tag);
    const auto idx = core::wire::Reader(incoming).read_int<std::uint32_t>();
    const auto data =
        std::span<const std::byte>(incoming).subspan(sizeof(idx));
    if (idx >= n || data.size() != len) {
      throw std::runtime_error("MpiComm::allgather: bad chunk");
    }
    std::copy(data.begin(), data.end(),
              out.begin() + static_cast<std::ptrdiff_t>(idx * len));
    send_idx = idx;
  }
}

sim::Task<> MpiComm::gather(RankId root, std::span<const std::byte> block,
                            std::span<std::byte> out) {
  check_rank(root, "gather");
  const std::uint32_t n = size();
  const std::size_t len = block.size();
  const std::uint64_t tag = kUserTagSpace + coll_seq_++;
  if (rank() == root) {
    if (out.size() != len * n) {
      throw std::invalid_argument("MpiComm::gather: bad output size");
    }
    std::copy(block.begin(), block.end(),
              out.begin() + static_cast<std::ptrdiff_t>(root * len));
    for (RankId r = 0; r < n; ++r) {
      if (r == root) continue;
      std::vector<std::byte> data = co_await recv_tagged(r, tag);
      if (data.size() != len) {
        throw std::runtime_error("MpiComm::gather: size mismatch");
      }
      std::copy(data.begin(), data.end(),
                out.begin() + static_cast<std::ptrdiff_t>(r * len));
    }
  } else {
    co_await send_tagged(root, tag, block);
  }
}

sim::Task<> MpiComm::scatter(RankId root, std::span<const std::byte> in,
                             std::span<std::byte> out) {
  check_rank(root, "scatter");
  const std::uint32_t n = size();
  const std::size_t len = out.size();
  const std::uint64_t tag = kUserTagSpace + coll_seq_++;
  if (rank() == root) {
    if (in.size() != len * n) {
      throw std::invalid_argument("MpiComm::scatter: bad input size");
    }
    for (RankId r = 0; r < n; ++r) {
      if (r == root) continue;
      co_await send_tagged(r, tag,
                           in.subspan(static_cast<std::size_t>(r) * len, len));
    }
    auto mine = in.subspan(static_cast<std::size_t>(root) * len, len);
    std::copy(mine.begin(), mine.end(), out.begin());
  } else {
    std::vector<std::byte> data = co_await recv_tagged(root, tag);
    if (data.size() != len) {
      throw std::runtime_error("MpiComm::scatter: size mismatch");
    }
    std::copy(data.begin(), data.end(), out.begin());
  }
}

sim::Task<std::vector<std::byte>> MpiComm::sendrecv(
    RankId peer, std::uint32_t tag, std::span<const std::byte> data) {
  // The send completes on its own, so two PEs in sendrecv with each other
  // cannot deadlock.
  (void)isend(peer, tag, data);
  return recv(peer, tag);
}

}  // namespace odcm::mpi
