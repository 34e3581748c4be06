// OpenSHMEM collectives over conduit active messages.
//
//   broadcast : k-ary tree rooted at `root`
//   fcollect  : ring allgather (bandwidth-optimal, N-1 steps)
//   reduce    : k-ary tree reduce to PE 0, then tree broadcast of the result
//
// Every collective operation is keyed by (kind, per-PE sequence number);
// since the operations are collective, the sequence numbers align across
// PEs and data for distinct operations cannot mix.
#include <cstring>
#include <stdexcept>
#include <string>

#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using detail::coll_key;
using detail::kBcastKind;
using detail::kCollDataHandler;
using detail::kAlltoallKind;
using detail::kCollectKind;
using detail::kReduceKind;

sim::Task<> ShmemPe::handle_coll_data(RankId /*src*/,
                                      std::vector<std::byte> payload) {
  core::wire::Reader reader(payload);
  auto kind = reader.read_int<std::uint8_t>();
  auto seq = reader.read_int<std::uint64_t>();
  coll_matches_.deliver(coll_key(kind, seq), reader.read_rest());
  co_return;
}

namespace {

std::vector<std::byte> coll_header(std::uint8_t kind, std::uint64_t seq) {
  std::vector<std::byte> out;
  core::wire::put_u8(out, kind);
  core::wire::put_int<std::uint64_t>(out, seq);
  return out;
}

}  // namespace

sim::Task<> ShmemPe::broadcast(RankId root, SymAddr addr, std::uint32_t len) {
  const std::uint32_t n = n_pes();
  if (root >= n) {
    throw std::out_of_range("ShmemPe::broadcast: root " +
                            std::to_string(root) + " outside " +
                            std::to_string(n) + " PEs");
  }
  stats().add("shmem_broadcast");
  if (n == 1) co_return;
  const std::uint64_t seq = bcast_seq_++;
  const std::uint64_t key = coll_key(kBcastKind, seq);
  const std::uint32_t fanout = config().collective_fanout;
  const std::uint32_t vrank = (rank_ + n - root) % n;

  if (vrank != 0) {
    std::vector<std::byte> data = co_await coll_matches_.receive(key);
    if (data.size() != len) {
      throw std::runtime_error("ShmemPe::broadcast: length mismatch");
    }
    auto window = local_window(addr, len);
    std::copy(data.begin(), data.end(), window.begin());
  }

  std::vector<std::byte> message = coll_header(kBcastKind, seq);
  auto window = local_window(addr, len);
  message.insert(message.end(), window.begin(), window.end());
  for (std::uint32_t c = 1; c <= fanout; ++c) {
    std::uint64_t child = static_cast<std::uint64_t>(vrank) * fanout + c;
    if (child >= n) break;
    co_await conduit_.am_send((static_cast<RankId>(child) + root) % n,
                              kCollDataHandler, message);
  }
}

sim::Task<> ShmemPe::fcollect(SymAddr dest, SymAddr src,
                              std::uint32_t block_len) {
  stats().add("shmem_fcollect");
  const std::uint32_t n = n_pes();
  // Place the local contribution.
  {
    auto source = local_window(src, block_len);
    auto target = local_window(
        dest + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kCollectKind, seq);
  const RankId right = (rank_ + 1) % n;

  std::uint32_t send_idx = rank_;
  auto first = local_window(src, block_len);
  std::vector<std::byte> current(first.begin(), first.end());

  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    std::vector<std::byte> message = coll_header(kCollectKind, seq);
    core::wire::put_int<std::uint32_t>(message, send_idx);
    message.insert(message.end(), current.begin(), current.end());
    co_await conduit_.am_send(right, kCollDataHandler, std::move(message));

    std::vector<std::byte> incoming = co_await coll_matches_.receive(key);
    core::wire::Reader reader(incoming);
    auto idx = reader.read_int<std::uint32_t>();
    current = reader.read_rest();
    if (current.size() != block_len || idx >= n) {
      throw std::runtime_error("ShmemPe::fcollect: bad chunk");
    }
    auto target = local_window(
        dest + static_cast<std::uint64_t>(idx) * block_len, block_len);
    std::copy(current.begin(), current.end(), target.begin());
    send_idx = idx;
  }
}

sim::Task<> ShmemPe::collect(SymAddr dest, SymAddr src,
                             std::uint32_t my_len) {
  stats().add("shmem_collect");
  const std::uint32_t n = n_pes();
  std::vector<std::uint32_t> lengths(n, 0);
  lengths[rank_] = my_len;

  if (n > 1) {
    // Pass 1: ring-allgather the lengths (plain AM payloads, no symmetric
    // scratch memory needed).
    const std::uint64_t seq = collect_seq_++;
    const std::uint64_t key = coll_key(kCollectKind, seq);
    const RankId right = (rank_ + 1) % n;
    std::uint32_t send_idx = rank_;
    for (std::uint32_t step = 0; step + 1 < n; ++step) {
      std::vector<std::byte> message = coll_header(kCollectKind, seq);
      core::wire::put_int<std::uint32_t>(message, send_idx);
      core::wire::put_int<std::uint32_t>(message, lengths[send_idx]);
      co_await conduit_.am_send(right, kCollDataHandler,
                                std::move(message));
      std::vector<std::byte> incoming = co_await coll_matches_.receive(key);
      core::wire::Reader reader(incoming);
      auto idx = reader.read_int<std::uint32_t>();
      auto len = reader.read_int<std::uint32_t>();
      if (idx >= n) throw std::runtime_error("ShmemPe::collect: bad index");
      lengths[idx] = len;
      send_idx = idx;
    }
  }

  std::vector<std::uint64_t> offsets(n, 0);
  for (std::uint32_t r = 1; r < n; ++r) {
    offsets[r] = offsets[r - 1] + lengths[r - 1];
  }

  // Place the local contribution.
  if (my_len > 0) {
    auto source = local_window(src, my_len);
    auto target = local_window(dest + offsets[rank_], my_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  // Pass 2: ring-allgather the variable-size blocks.
  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kCollectKind, seq);
  const RankId right = (rank_ + 1) % n;
  std::uint32_t send_idx = rank_;
  auto first = local_window(src, my_len);
  std::vector<std::byte> current(first.begin(), first.end());
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    std::vector<std::byte> message = coll_header(kCollectKind, seq);
    core::wire::put_int<std::uint32_t>(message, send_idx);
    message.insert(message.end(), current.begin(), current.end());
    co_await conduit_.am_send(right, kCollDataHandler,
                              std::move(message));
    std::vector<std::byte> incoming = co_await coll_matches_.receive(key);
    core::wire::Reader reader(incoming);
    auto idx = reader.read_int<std::uint32_t>();
    current = reader.read_rest();
    if (idx >= n || current.size() != lengths[idx]) {
      throw std::runtime_error("ShmemPe::collect: bad chunk");
    }
    if (!current.empty()) {
      auto target = local_window(dest + offsets[idx], current.size());
      std::copy(current.begin(), current.end(), target.begin());
    }
    send_idx = idx;
  }
}

sim::Task<> ShmemPe::alltoall(SymAddr dest, SymAddr src,
                              std::uint32_t block_len) {
  stats().add("shmem_alltoall");
  const std::uint32_t n = n_pes();
  // Own block moves locally.
  {
    auto source = local_window(
        src + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    auto target = local_window(
        dest + static_cast<std::uint64_t>(rank_) * block_len, block_len);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = collect_seq_++;
  const std::uint64_t key = coll_key(kAlltoallKind, seq);
  // Rotated send order spreads load (classic alltoall schedule).
  for (std::uint32_t offset = 1; offset < n; ++offset) {
    RankId peer = (rank_ + offset) % n;
    std::vector<std::byte> message = coll_header(kAlltoallKind, seq);
    core::wire::put_int<std::uint32_t>(message, rank_);
    auto block = local_window(
        src + static_cast<std::uint64_t>(peer) * block_len, block_len);
    message.insert(message.end(), block.begin(), block.end());
    co_await conduit_.am_send(peer, kCollDataHandler,
                              std::move(message));
  }
  for (std::uint32_t received = 0; received + 1 < n; ++received) {
    std::vector<std::byte> incoming = co_await coll_matches_.receive(key);
    core::wire::Reader reader(incoming);
    auto idx = reader.read_int<std::uint32_t>();
    std::vector<std::byte> data = reader.read_rest();
    if (idx >= n || data.size() != block_len) {
      throw std::runtime_error("ShmemPe::alltoall: bad block");
    }
    auto target = local_window(
        dest + static_cast<std::uint64_t>(idx) * block_len, block_len);
    std::copy(data.begin(), data.end(), target.begin());
  }
}

sim::Task<> ShmemPe::reduce_impl(SymAddr dest, SymAddr src,
                                 std::uint32_t count, std::uint32_t elem,
                                 ReduceOp op, Combiner combine) {
  stats().add("shmem_reduce");
  const std::uint32_t n = n_pes();
  const std::uint32_t bytes = count * elem;
  // Start from the local contribution.
  {
    auto source = local_window(src, bytes);
    auto target = local_window(dest, bytes);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t seq = reduce_seq_++;
  const std::uint64_t key = coll_key(kReduceKind, seq);
  const std::uint32_t fanout = config().collective_fanout;

  std::uint32_t children = 0;
  for (std::uint32_t c = 1; c <= fanout; ++c) {
    if (static_cast<std::uint64_t>(rank_) * fanout + c < n) ++children;
  }

  // Combine the children's partial results.
  for (std::uint32_t received = 0; received < children; ++received) {
    std::vector<std::byte> partial = co_await coll_matches_.receive(key);
    if (partial.size() != bytes) {
      throw std::runtime_error("ShmemPe::reduce: bad partial");
    }
    combine(local_window(dest, bytes), partial, op);
  }

  if (rank_ != 0) {
    // Send the partial up, then wait for the final result from the parent.
    std::vector<std::byte> message = coll_header(kReduceKind, seq);
    auto acc = local_window(dest, bytes);
    message.insert(message.end(), acc.begin(), acc.end());
    RankId parent = (rank_ - 1) / fanout;
    co_await conduit_.am_send(parent, kCollDataHandler, std::move(message));

    std::vector<std::byte> result = co_await coll_matches_.receive(key);
    if (result.size() != bytes) {
      throw std::runtime_error("ShmemPe::reduce: bad result");
    }
    auto target = local_window(dest, bytes);
    std::copy(result.begin(), result.end(), target.begin());
  }

  // Forward the final result down the tree.
  std::vector<std::byte> message = coll_header(kReduceKind, seq);
  auto result = local_window(dest, bytes);
  message.insert(message.end(), result.begin(), result.end());
  for (std::uint32_t c = 1; c <= fanout; ++c) {
    std::uint64_t child = static_cast<std::uint64_t>(rank_) * fanout + c;
    if (child >= n) break;
    co_await conduit_.am_send(static_cast<RankId>(child), kCollDataHandler,
                              message);
  }
}

}  // namespace odcm::shmem
