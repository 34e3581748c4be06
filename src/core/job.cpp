// ConduitJob: owns the shared substrates and orchestrates per-PE programs.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/conduit.hpp"

namespace odcm::core {

ConduitJob::ConduitJob(sim::Engine& engine, JobConfig config)
    : engine_(engine), config_(config) {
  if (config_.ranks == 0 || config_.ranks_per_node == 0) {
    throw std::invalid_argument("ConduitJob: ranks and ranks_per_node > 0");
  }
  std::uint32_t nodes = (config_.ranks + config_.ranks_per_node - 1) /
                        config_.ranks_per_node;
  config_.fabric.nodes = nodes;

  fabric_ = std::make_unique<fabric::Fabric>(engine_, config_.fabric);
  pmi_ = std::make_unique<pmi::JobManager>(engine_, config_.ranks,
                                              config_.ranks_per_node);

  node_barriers_.reserve(nodes);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    node_barriers_.push_back(std::make_unique<NodeBarrier>(engine_));
  }

  conduits_.reserve(config_.ranks);
  for (RankId rank = 0; rank < config_.ranks; ++rank) {
    fabric_->hca(node_of(rank)).attach_pe(rank);
    conduits_.push_back(std::make_unique<Conduit>(*this, rank));
  }
}

NodeId ConduitJob::node_of(RankId rank) const {
  if (rank >= config_.ranks) {
    throw std::out_of_range("ConduitJob::node_of: bad rank");
  }
  return rank / config_.ranks_per_node;
}

std::uint32_t ConduitJob::ranks_on_node(NodeId node) const {
  std::uint32_t first = node * config_.ranks_per_node;
  if (first >= config_.ranks) {
    throw std::out_of_range("ConduitJob::ranks_on_node: bad node");
  }
  return std::min(config_.ranks_per_node, config_.ranks - first);
}

Conduit& ConduitJob::conduit(RankId rank) {
  if (rank >= conduits_.size()) {
    throw std::out_of_range("ConduitJob::conduit: bad rank");
  }
  return *conduits_[rank];
}

void ConduitJob::spawn_all(std::function<sim::Task<>(Conduit&)> body) {
  auto shared_body =
      std::make_shared<std::function<sim::Task<>(Conduit&)>>(std::move(body));
  auto join = std::make_shared<sim::JoinCounter>(engine_);
  join->add(config_.ranks);
  for (RankId rank = 0; rank < config_.ranks; ++rank) {
    engine_.spawn(
        [](ConduitJob& job, RankId r,
           std::shared_ptr<std::function<sim::Task<>(Conduit&)>> fn,
           std::shared_ptr<sim::JoinCounter> barrier) -> sim::Task<> {
          co_await (*fn)(job.conduit(r));
          barrier->finish();
          // Finalize only after every PE finished its program, so no one
          // tears down QPs a peer is still using.
          co_await barrier->wait();
          co_await job.conduit(r).finalize();
        }(*this, rank, shared_body, join));
  }
}

void ConduitJob::add_observer(ProtocolObserver* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void ConduitJob::remove_observer(ProtocolObserver* observer) {
  observers_.erase(
      std::remove(observers_.begin(), observers_.end(), observer),
      observers_.end());
}

sim::StatSet ConduitJob::aggregate_stats() const {
  sim::StatSet total;
  for (const auto& conduit : conduits_) {
    total.merge(conduit->stats_);
  }
  return total;
}

}  // namespace odcm::core
