// Barriers: the AM-tree global barrier and the shared-memory intra-node
// barrier that replaces it during initialization (paper §IV-E).
#include <stdexcept>

#include "core/conduit.hpp"
#include "core/tree.hpp"

namespace odcm::core {

namespace {

std::vector<std::byte> encode_round(std::uint32_t round) {
  std::vector<std::byte> out;
  wire::put_int<std::uint32_t>(out, round);
  return out;
}

}  // namespace

Conduit::BarrierRound& Conduit::barrier_round(std::uint32_t round) {
  auto it = barrier_rounds_.find(round);
  if (it == barrier_rounds_.end()) {
    it = barrier_rounds_
             .emplace(round, std::make_unique<BarrierRound>(engine()))
             .first;
  }
  return *it->second;
}

void Conduit::handle_barrier_arrive(RankId /*src*/, std::uint32_t round) {
  BarrierRound& state = barrier_round(round);
  const KaryTree tree(barrier_vsize(), barrier_vrank());
  if (++state.arrived == tree.child_count()) {
    state.arrivals.open();
  }
}

void Conduit::handle_barrier_release(std::uint32_t round) {
  barrier_round(round).release.open();
}

std::uint32_t Conduit::barrier_vrank() const {
  return config().intranode_transport == IntranodeTransport::kShm
             ? static_cast<std::uint32_t>(node_)
             : static_cast<std::uint32_t>(rank_);
}

std::uint32_t Conduit::barrier_vsize() const {
  if (config().intranode_transport != IntranodeTransport::kShm) return size();
  const std::uint32_t rpn = job_.config().ranks_per_node;
  return (size() + rpn - 1) / rpn;
}

RankId Conduit::barrier_actual_rank(std::uint64_t vrank) const {
  if (config().intranode_transport != IntranodeTransport::kShm) {
    return static_cast<RankId>(vrank);
  }
  return static_cast<RankId>(vrank * job_.config().ranks_per_node);
}

sim::Task<> Conduit::barrier_tree() {
  const std::uint32_t vsize = barrier_vsize();
  const std::uint32_t vrank = barrier_vrank();
  std::uint32_t round = barrier_next_round_++;
  if (vsize == 1) co_return;  // single participant: nothing to exchange
  BarrierRound& state = barrier_round(round);
  const KaryTree tree(vsize, vrank);

  // Wait for all children to check in, then report up (or release if root).
  if (tree.child_count() > 0) {
    co_await state.arrivals.wait();
  }
  if (tree.is_root()) {
    state.release.open();
  } else {
    co_await am_send(barrier_actual_rank(tree.parent()), /*handler=*/0,
                     encode_round(round));
    co_await state.release.wait();
  }
  for (std::uint32_t c = 0; c < tree.child_count(); ++c) {
    co_await am_send(barrier_actual_rank(tree.child(c)), /*handler=*/1,
                     encode_round(round));
  }
  barrier_rounds_.erase(round);
}

sim::Task<> Conduit::barrier_global() {
  const std::uint32_t n = size();
  if (n == 1) {
    co_await engine().delay(kIntranodeBarrierHop);
    co_return;
  }
  if (config().intranode_transport == IntranodeTransport::kShm) {
    // Hierarchical: everyone arrives at the node barrier over shared
    // memory, node leaders synchronize over the AM tree, and a second
    // node barrier releases the non-leaders. No same-node pair ever
    // touches an RC connection.
    co_await barrier_intranode();
    if (rank_ == barrier_actual_rank(node_)) {
      co_await barrier_tree();
    }
    co_await barrier_intranode();
  } else {
    co_await barrier_tree();
  }
  stats_.add("barriers_global");
}

sim::Task<> Conduit::barrier_intranode() {
  ConduitJob::NodeBarrier& nb = *job_.node_barriers_[node_];
  const std::uint32_t expected = job_.ranks_on_node(node_);
  co_await engine().delay(kIntranodeBarrierHop);
  std::uint64_t my_round = nb.round;
  if (++nb.arrived == expected) {
    nb.arrived = 0;
    ++nb.round;
    nb.trigger.notify_all();
  } else {
    while (nb.round == my_round) {
      co_await nb.trigger.wait();
    }
  }
  co_await engine().delay(kIntranodeBarrierHop);
  stats_.add("barriers_intranode");
}

sim::Task<> Conduit::barrier_init() {
  if (config().init_barrier_mode == BarrierMode::kGlobal) {
    co_await barrier_global();
  } else {
    co_await barrier_intranode();
  }
}

}  // namespace odcm::core
