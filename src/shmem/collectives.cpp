// OpenSHMEM collectives over conduit active messages.
//
//   broadcast : tree_broadcast down the one collective tree (core/tree.hpp)
//               rooted at `root`
//   fcollect  : one ring_allgather pass (bandwidth-optimal, N-1 steps)
//   collect   : two ring_allgather passes: the lengths, then the blocks
//   alltoall  : rotated pairwise exchange
//   reduce    : tree reduce to PE 0, folding each child's partial with
//               combine_span (shmem/types.hpp) in arrival order, then
//               tree_broadcast of the result from PE 0
//
// Every collective operation is keyed by (kind, per-PE sequence number);
// since the operations are collective, the sequence numbers align across
// PEs and data for distinct operations cannot mix.
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/tree.hpp"
#include "shmem/job.hpp"
#include "shmem/pe.hpp"

namespace odcm::shmem {

using detail::coll_key;
using detail::kBcastKind;
using detail::kCollDataHandler;
using detail::kAlltoallKind;
using detail::kCollectKind;
using detail::kReduceKind;

namespace {

/// Bytes of a collective message's header: the kind and sequence number
/// that coll_key packed into the key.
constexpr std::size_t kCollHeaderSize = 1 + 8;

/// Insert the collective header of `key` in front of `message`, in place.
void put_coll_header(std::vector<std::byte>& message, std::uint64_t key) {
  const auto kind = static_cast<std::uint8_t>(key >> 56);
  const std::uint64_t seq = key & ((1ULL << 56) - 1);
  std::byte header[kCollHeaderSize];
  std::memcpy(header, &kind, 1);
  std::memcpy(header + 1, &seq, sizeof(seq));
  message.insert(message.begin(), std::begin(header), std::end(header));
}

/// A collective message holding only its header, with room reserved for
/// `body_len` more bytes and the AM header `am_send` frames it with: the
/// message is allocated once, here.
std::vector<std::byte> coll_header(std::uint64_t key, std::size_t body_len) {
  std::vector<std::byte> out;
  out.reserve(core::AmPacket::kHeaderSize + kCollHeaderSize + body_len);
  put_coll_header(out, key);
  return out;
}

}  // namespace

sim::Task<> ShmemPe::handle_coll_data(RankId /*src*/,
                                      std::vector<std::byte> payload) {
  core::wire::Reader reader(payload);
  auto kind = reader.read_int<std::uint8_t>();
  auto seq = reader.read_int<std::uint64_t>();
  // Strip the header in place: the body keeps the delivered buffer.
  payload.erase(payload.begin(), payload.begin() + kCollHeaderSize);
  coll_matches_.deliver(coll_key(kind, seq), std::move(payload));
  co_return;
}

sim::Task<> ShmemPe::broadcast(RankId root, SymAddr addr, std::uint32_t len) {
  const std::uint32_t n = n_pes();
  if (root >= n) {
    throw std::out_of_range("ShmemPe::broadcast: root " +
                            std::to_string(root) + " outside " +
                            std::to_string(n) + " PEs");
  }
  stats().add("shmem_broadcast");
  if (n == 1) co_return;
  co_await tree_broadcast(coll_key(kBcastKind, bcast_seq_++), root, addr,
                          len);
}

sim::Task<> ShmemPe::tree_broadcast(std::uint64_t key, RankId root,
                                    SymAddr addr, std::uint64_t len) {
  const core::KaryTree tree(n_pes(), rank_, root);
  if (!tree.is_root()) {
    std::vector<std::byte> data = co_await coll_matches_.receive(key);
    if (data.size() != len) {
      throw std::runtime_error("ShmemPe: broadcast length mismatch");
    }
    auto window = local_window(addr, len);
    std::copy(data.begin(), data.end(), window.begin());
  }

  auto window = local_window(addr, len);
  for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
    std::vector<std::byte> message = coll_header(key, len);
    message.insert(message.end(), window.begin(), window.end());
    co_await conduit_.am_send(tree.child(c), kCollDataHandler,
                              std::move(message));
  }
}

sim::Task<> ShmemPe::ring_allgather(std::span<const std::byte> mine,
                                    RingSlot slot) {
  const std::uint32_t n = n_pes();
  const std::uint64_t key = coll_key(kCollectKind, collect_seq_++);
  const RankId right = (rank_ + 1) % n;
  std::vector<std::byte> message =
      coll_header(key, sizeof(std::uint32_t) + mine.size());
  core::wire::put_int<std::uint32_t>(message, rank_);
  message.insert(message.end(), mine.begin(), mine.end());
  for (std::uint32_t step = 0; step + 1 < n; ++step) {
    co_await conduit_.am_send(right, kCollDataHandler, std::move(message));

    // Forward the chunk as received: `src` and `dest` may overlap, so the
    // slot it lands in is no source for the next step. The received buffer
    // itself, its header restored, is the next step's message.
    message = co_await coll_matches_.receive(key);
    const auto idx = core::wire::Reader(message).read_int<std::uint32_t>();
    if (idx >= n) throw std::runtime_error("ShmemPe: bad ring index");
    const auto chunk =
        std::span<const std::byte>(message).subspan(sizeof(idx));
    std::span<std::byte> target = slot(idx);
    if (chunk.size() != target.size()) {
      throw std::runtime_error("ShmemPe: bad ring chunk");
    }
    std::copy(chunk.begin(), chunk.end(), target.begin());
    put_coll_header(message, key);
  }
}

sim::Task<> ShmemPe::fcollect(SymAddr dest, SymAddr src,
                              std::uint32_t block_len) {
  stats().add("shmem_fcollect");
  auto slot = [this, dest, block_len](std::uint32_t idx) {
    return local_window(dest + static_cast<std::uint64_t>(idx) * block_len,
                        block_len);
  };
  // Place the local contribution (`src` may already be this PE's slot).
  auto source = local_window(src, block_len);
  auto mine = slot(rank_);
  if (source.data() != mine.data()) {
    std::copy(source.begin(), source.end(), mine.begin());
  }
  if (n_pes() == 1) co_return;
  co_await ring_allgather(source, slot);
}

sim::Task<> ShmemPe::collect(SymAddr dest, SymAddr src,
                             std::uint32_t my_len) {
  stats().add("shmem_collect");
  const std::uint32_t n = n_pes();
  std::vector<std::uint32_t> lengths(n, 0);
  lengths[rank_] = my_len;

  if (n > 1) {
    // Pass 1: ring-allgather the lengths, each a 4-byte chunk of the local
    // `lengths` buffer (plain AM payloads, no symmetric scratch memory).
    auto length_bytes = std::as_writable_bytes(std::span(lengths));
    auto length_slot = [length_bytes](std::uint32_t idx) {
      return length_bytes.subspan(idx * sizeof(std::uint32_t),
                                  sizeof(std::uint32_t));
    };
    auto mine = length_slot(rank_);
    co_await ring_allgather(mine, length_slot);
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
  co_await ring_allgather(local_window(src, my_len),
                          [&](std::uint32_t idx) {
                            return local_window(dest + offsets[idx],
                                                lengths[idx]);
                          });
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

  const std::uint64_t key = coll_key(kAlltoallKind, collect_seq_++);
  // Rotated send order spreads load (classic alltoall schedule).
  for (std::uint32_t offset = 1; offset < n; ++offset) {
    RankId peer = (rank_ + offset) % n;
    std::vector<std::byte> message =
        coll_header(key, sizeof(std::uint32_t) + block_len);
    core::wire::put_int<std::uint32_t>(message, rank_);
    auto block = local_window(
        src + static_cast<std::uint64_t>(peer) * block_len, block_len);
    message.insert(message.end(), block.begin(), block.end());
    co_await conduit_.am_send(peer, kCollDataHandler,
                              std::move(message));
  }
  for (std::uint32_t received = 0; received + 1 < n; ++received) {
    std::vector<std::byte> incoming = co_await coll_matches_.receive(key);
    const auto idx = core::wire::Reader(incoming).read_int<std::uint32_t>();
    const auto data =
        std::span<const std::byte>(incoming).subspan(sizeof(idx));
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
  const std::uint64_t bytes = std::uint64_t{count} * elem;
  check_heap_range(src, bytes);
  check_heap_range(dest, bytes);
  stats().add("shmem_reduce");
  const std::uint32_t n = n_pes();
  // Start from the local contribution.
  {
    auto source = local_window(src, bytes);
    auto target = local_window(dest, bytes);
    std::copy(source.begin(), source.end(), target.begin());
  }
  if (n == 1) co_return;

  const std::uint64_t key = coll_key(kReduceKind, reduce_seq_++);
  const core::KaryTree tree(n, rank_);
  // Fold the children's partial results in arrival order.
  for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
    std::vector<std::byte> partial = co_await coll_matches_.receive(key);
    if (partial.size() != bytes) {
      throw std::runtime_error("ShmemPe::reduce: bad partial");
    }
    combine(local_window(dest, bytes), partial, op);
  }
  if (!tree.is_root()) {
    std::vector<std::byte> message = coll_header(key, bytes);
    auto acc = local_window(dest, bytes);
    message.insert(message.end(), acc.begin(), acc.end());
    co_await conduit_.am_send(tree.parent(), kCollDataHandler,
                              std::move(message));
  }
  // The final result comes back down the same tree from PE 0.
  co_await tree_broadcast(key, 0, dest, bytes);
}

}  // namespace odcm::shmem
