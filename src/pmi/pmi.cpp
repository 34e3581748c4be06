#include "pmi/pmi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/stats.hpp"

namespace odcm::pmi {

namespace {

/// Report a counter to the (possibly absent) metrics sink.
void count(sim::MetricsSink* sink, std::string_view name,
           std::int64_t delta = 1) {
  if (sink != nullptr) sink->on_counter(name, delta);
}

}  // namespace

JobManager::JobManager(sim::Engine& engine, std::uint32_t ranks,
                       std::uint32_t ranks_per_node)
    : engine_(engine), ranks_(ranks), ranks_per_node_(ranks_per_node) {
  if (ranks_ == 0 || ranks_per_node_ == 0) {
    throw std::invalid_argument("JobManager: ranks and ranks_per_node > 0");
  }
  nodes_ = (ranks_ + ranks_per_node_ - 1) / ranks_per_node_;
  daemon_free_.assign(nodes_, 0);
  clients_.reserve(ranks_);
  for (RankId rank = 0; rank < ranks_; ++rank) {
    clients_.push_back(std::make_unique<PmiClient>(*this, rank));
  }
}

JobManager::~JobManager() = default;

NodeId JobManager::node_of(RankId rank) const {
  if (rank >= ranks_) {
    throw std::out_of_range("JobManager::node_of: bad rank");
  }
  return rank / ranks_per_node_;
}

PmiClient& JobManager::client(RankId rank) {
  if (rank >= clients_.size()) {
    throw std::out_of_range("JobManager::client: bad rank");
  }
  return *clients_[rank];
}

std::uint32_t JobManager::tree_depth() const {
  std::uint32_t depth = 1;
  std::uint64_t covered = kDaemonTreeFanout;
  while (covered < nodes_) {
    covered *= kDaemonTreeFanout;
    ++depth;
  }
  return depth;
}

sim::Time JobManager::reserve_daemon(NodeId node, sim::Time busy) {
  sim::Time start = std::max(engine_.now(), daemon_free_[node]);
  daemon_free_[node] = start + busy;
  return start + busy;
}

sim::Time JobManager::fence_cost(std::uint64_t bytes,
                                 std::uint64_t entries) const {
  std::uint32_t depth = tree_depth();
  // Gather up + broadcast down the tree; the root serializes `fanout`
  // copies of the full store on the way back down.
  auto wire = static_cast<sim::Time>(
      static_cast<double>(bytes) * kDaemonTreeFanout / kOobBytesPerNs);
  return 2 * depth * kOobLatency + wire + entries * kFencePerEntry;
}

sim::Time JobManager::allgather_cost(std::uint64_t bytes,
                                     std::uint64_t entries) const {
  std::uint32_t depth = tree_depth();
  auto wire = static_cast<sim::Time>(
      static_cast<double>(bytes) * kDaemonTreeFanout / kOobBytesPerNs);
  return 2 * depth * kOobLatency + wire + entries * kAllgatherPerEntry;
}

JobManager::Round& JobManager::fence_round(std::uint32_t index) {
  while (fence_rounds_.size() <= index) {
    fence_rounds_.push_back(std::make_unique<Round>(engine_));
  }
  return *fence_rounds_[index];
}

JobManager::Round& JobManager::ring_round(std::uint32_t index) {
  while (ring_rounds_.size() <= index) {
    auto round = std::make_unique<Round>(engine_);
    round->values.resize(ranks_);
    ring_rounds_.push_back(std::move(round));
  }
  return *ring_rounds_[index];
}

void JobManager::arrive_ring(std::uint32_t index, RankId rank,
                             std::string value) {
  Round& round = ring_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: ring round already completed");
  }
  round.values[rank] = std::move(value);
  if (++round.arrived < ranks_) {
    return;
  }
  // Constant per-rank data movement: the ring exchange costs one daemon
  // tree traversal plus per-hop neighbor delivery, independent of N.
  std::uint64_t bytes = 0;
  for (const auto& contribution : round.values) bytes += contribution.size();
  oob_bytes_moved_ += bytes;  // each value moves to exactly two neighbors
  count(metrics_, "pmi/oob_bytes", static_cast<std::int64_t>(bytes));
  sim::Time cost = 2 * tree_depth() * kOobLatency + 4 * kOobLatency;
  engine_.schedule_after(cost, [this, index] {
    Round& round = ring_round(index);
    round.completed = true;
    round.gate.open();
  });
}

JobManager::Round& JobManager::allgather_round(std::uint32_t index) {
  while (allgather_rounds_.size() <= index) {
    auto round = std::make_unique<Round>(engine_);
    round->values.resize(ranks_);
    allgather_rounds_.push_back(std::move(round));
  }
  return *allgather_rounds_[index];
}

void JobManager::arrive_fence(std::uint32_t index) {
  Round& round = fence_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: fence round already completed");
  }
  if (++round.arrived < ranks_) {
    return;
  }
  // Last arrival: snapshot the staged entries and run the dissemination.
  auto flushing = std::make_shared<std::map<std::string, std::string>>(
      std::move(staged_));
  staged_.clear();
  std::uint64_t bytes = staged_bytes_;
  staged_bytes_ = 0;
  std::uint64_t entries = flushing->size();
  oob_bytes_moved_ += bytes * 2 * tree_depth();
  count(metrics_, "pmi/oob_bytes",
        static_cast<std::int64_t>(bytes * 2 * tree_depth()));
  engine_.schedule_after(fence_cost(bytes, entries),
                         [this, index, flushing] {
                           for (auto& [key, value] : *flushing) {
                             visible_[key] = std::move(value);
                           }
                           Round& round = fence_round(index);
                           round.completed = true;
                           ++fences_completed_;
                           round.gate.open();
                         });
}

void JobManager::arrive_allgather(std::uint32_t index, RankId rank,
                                  std::string value) {
  Round& round = allgather_round(index);
  if (round.completed) {
    throw std::logic_error("JobManager: allgather round already completed");
  }
  round.values[rank] = std::move(value);
  if (++round.arrived < ranks_) {
    return;
  }
  std::uint64_t bytes = 0;
  for (const auto& contribution : round.values) bytes += contribution.size();
  round.bytes = bytes;
  round.table = std::make_shared<const std::vector<std::string>>(
      std::exchange(round.values, {}));
  oob_bytes_moved_ += bytes * 2 * tree_depth();
  count(metrics_, "pmi/oob_bytes",
        static_cast<std::int64_t>(bytes * 2 * tree_depth()));
  engine_.schedule_after(allgather_cost(bytes, ranks_),
                         [this, index] {
                           Round& round = allgather_round(index);
                           round.completed = true;
                           round.gate.open();
                         });
}

PmiClient::PmiClient(JobManager& manager, RankId rank)
    : manager_(manager), rank_(rank), node_(manager.node_of(rank)) {}

sim::Task<> PmiClient::put(std::string key, std::string value) {
  count(manager_.metrics_, "pmi/puts");
  count(manager_.metrics_, "pmi/put_bytes",
        static_cast<std::int64_t>(key.size() + value.size()));
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/put");
  auto busy = kPutOverhead +
              static_cast<sim::Time>(
                  static_cast<double>(key.size() + value.size()) /
                  kIpcBytesPerNs);
  sim::Time done = manager_.reserve_daemon(node_, busy);
  co_await manager_.engine().delay(done - manager_.engine().now());
  manager_.staged_bytes_ += key.size() + value.size();
  manager_.staged_[std::move(key)] = std::move(value);
}

sim::Task<std::optional<std::string>> PmiClient::get(std::string key) {
  count(manager_.metrics_, "pmi/gets");
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/get");
  // The reply size is not known until the lookup; charge for the key on the
  // request and for the value on the reply.
  sim::Time done = manager_.reserve_daemon(
      node_, kGetOverhead +
                 static_cast<sim::Time>(static_cast<double>(key.size()) /
                                        kIpcBytesPerNs));
  co_await manager_.engine().delay(done - manager_.engine().now());
  auto it = manager_.visible_.find(key);
  if (it == manager_.visible_.end()) {
    co_return std::nullopt;
  }
  std::string value = it->second;
  co_await manager_.engine().delay(static_cast<sim::Time>(
      static_cast<double>(value.size()) / kIpcBytesPerNs));
  co_return value;
}

sim::Task<> PmiClient::charge_gets(std::uint64_t count,
                                   std::uint64_t value_bytes) {
  auto per_get = kGetOverhead +
                 static_cast<sim::Time>(static_cast<double>(value_bytes) /
                                        kIpcBytesPerNs);
  sim::Time done = manager_.reserve_daemon(node_, count * per_get);
  co_await manager_.engine().delay(done - manager_.engine().now());
}

sim::Task<> PmiClient::fence() {
  std::uint32_t index = next_fence_++;
  count(manager_.metrics_, "pmi/fences_started");
  manager_.arrive_fence(index);
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_,
                       "pmi/fence_wait");
  co_await manager_.fence_round(index).gate.wait();
}

CollectiveTicket PmiClient::iallgather_start(std::string value) {
  std::uint32_t index = next_allgather_++;
  count(manager_.metrics_, "pmi/iallgathers_started");
  manager_.arrive_allgather(index, rank_, std::move(value));
  return CollectiveTicket{index};
}

sim::Task<std::pair<std::string, std::string>> PmiClient::ring(
    std::string value) {
  std::uint32_t index = next_ring_++;
  count(manager_.metrics_, "pmi/rings");
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/ring");
  manager_.arrive_ring(index, rank_, std::move(value));
  JobManager::Round& round = manager_.ring_round(index);
  co_await round.gate.wait();
  std::uint32_t n = manager_.ranks();
  RankId left = (rank_ + n - 1) % n;
  RankId right = (rank_ + 1) % n;
  std::uint64_t bytes = round.values[left].size() +
                        round.values[right].size();
  sim::Time done = manager_.reserve_daemon(
      node_, kGetOverhead +
                 static_cast<sim::Time>(static_cast<double>(bytes) /
                                        kIpcBytesPerNs));
  co_await manager_.engine().delay(done - manager_.engine().now());
  co_return std::make_pair(round.values[left], round.values[right]);
}

sim::Task<std::shared_ptr<const std::vector<std::string>>>
PmiClient::iallgather_wait(CollectiveTicket ticket) {
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_,
                       "pmi/iallgather_wait");
  JobManager::Round& round = manager_.allgather_round(ticket.round);
  co_await round.gate.wait();
  // Bulk delivery of the gathered table over local IPC, serialized on the
  // node daemon.
  sim::Time done = manager_.reserve_daemon(
      node_, kGetOverhead +
                 static_cast<sim::Time>(static_cast<double>(round.bytes) /
                                        kIpcBytesPerNs));
  co_await manager_.engine().delay(done - manager_.engine().now());
  co_return round.table;
}

}  // namespace odcm::pmi
