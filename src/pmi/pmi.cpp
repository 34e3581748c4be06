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

/// Client <-> daemon transfer time of `bytes` over local IPC.
sim::Time ipc_time(std::uint64_t bytes) {
  return static_cast<sim::Time>(static_cast<double>(bytes) / kIpcBytesPerNs);
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

JobManager::Round& JobManager::round_at(Collective kind,
                                       std::uint32_t index) {
  auto& rounds = rounds_[kind];
  while (rounds.size() <= index) {
    rounds.push_back(std::make_unique<Round>(engine_));
  }
  return *rounds[index];
}

bool JobManager::arrive(Collective kind, Round& round) {
  if (round.arrived == ranks_) {
    static constexpr const char* kName[] = {"fence", "allgather", "ring"};
    throw std::logic_error(std::string("JobManager: ") + kName[kind] +
                           " round already completed");
  }
  return ++round.arrived == ranks_;
}

void JobManager::arrive_fence(std::uint32_t index) {
  Round& round = round_at(kFence, index);
  if (!arrive(kFence, round)) {
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
                         [this, &round, flushing] {
                           for (auto& [key, value] : *flushing) {
                             visible_[key] = std::move(value);
                           }
                           ++fences_completed_;
                           round.gate.open();
                         });
}

void JobManager::arrive_gather(Collective kind, std::uint32_t index,
                               RankId rank, std::string value) {
  Round& round = round_at(kind, index);
  round.values.resize(ranks_);
  round.values[rank] = std::move(value);
  if (!arrive(kind, round)) {
    return;
  }
  std::uint64_t bytes = 0;
  for (const auto& contribution : round.values) bytes += contribution.size();
  round.bytes = bytes;
  round.table = std::make_shared<const std::vector<std::string>>(
      std::exchange(round.values, {}));
  // The ring moves each value to exactly its two neighbors: constant
  // per-rank data movement, one daemon tree traversal plus per-hop neighbor
  // delivery, independent of N. The allgather disseminates the whole table
  // through the tree.
  const bool ring = kind == kRing;
  const std::uint64_t moved = ring ? bytes : bytes * 2 * tree_depth();
  oob_bytes_moved_ += moved;
  count(metrics_, "pmi/oob_bytes", static_cast<std::int64_t>(moved));
  const sim::Time cost = ring ? (2 * tree_depth() + 4) * kOobLatency
                              : allgather_cost(bytes, ranks_);
  engine_.schedule_after(cost, [&round] { round.gate.open(); });
}

PmiClient::PmiClient(JobManager& manager, RankId rank)
    : manager_(manager), rank_(rank), node_(manager.node_of(rank)) {}

sim::Task<> PmiClient::on_daemon(sim::Time busy) {
  sim::Time done = manager_.reserve_daemon(node_, busy);
  co_await manager_.engine().delay(done - manager_.engine().now());
}

sim::Task<> PmiClient::put(std::string key, std::string value) {
  count(manager_.metrics_, "pmi/puts");
  count(manager_.metrics_, "pmi/put_bytes",
        static_cast<std::int64_t>(key.size() + value.size()));
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/put");
  co_await on_daemon(kPutOverhead + ipc_time(key.size() + value.size()));
  manager_.staged_bytes_ += key.size() + value.size();
  manager_.staged_[std::move(key)] = std::move(value);
}

sim::Task<std::optional<std::string>> PmiClient::get(std::string key) {
  count(manager_.metrics_, "pmi/gets");
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/get");
  // The reply size is not known until the lookup; charge for the key on the
  // request and for the value on the reply.
  co_await on_daemon(kGetOverhead + ipc_time(key.size()));
  auto it = manager_.visible_.find(key);
  if (it == manager_.visible_.end()) {
    co_return std::nullopt;
  }
  std::string value = it->second;
  co_await manager_.engine().delay(ipc_time(value.size()));
  co_return value;
}

sim::Task<> PmiClient::charge_gets(std::uint64_t count,
                                   std::uint64_t value_bytes) {
  co_await on_daemon(count * (kGetOverhead + ipc_time(value_bytes)));
}

sim::Task<> PmiClient::fence() {
  std::uint32_t index = next_fence_++;
  count(manager_.metrics_, "pmi/fences_started");
  manager_.arrive_fence(index);
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_,
                       "pmi/fence_wait");
  co_await manager_.round_at(JobManager::kFence, index).gate.wait();
}

CollectiveTicket PmiClient::iallgather_start(std::string value) {
  std::uint32_t index = next_allgather_++;
  count(manager_.metrics_, "pmi/iallgathers_started");
  manager_.arrive_gather(JobManager::kAllgather, index, rank_,
                         std::move(value));
  return CollectiveTicket{index};
}

sim::Task<SharedTable> PmiClient::ring(std::string value) {
  std::uint32_t index = next_ring_++;
  count(manager_.metrics_, "pmi/rings");
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_, "pmi/ring");
  manager_.arrive_gather(JobManager::kRing, index, rank_, std::move(value));
  JobManager::Round& round = manager_.round_at(JobManager::kRing, index);
  co_await round.gate.wait();
  // Delivery of the two neighbors' entries over local IPC.
  const std::vector<std::string>& values = *round.table;
  std::uint32_t n = manager_.ranks();
  co_await on_daemon(kGetOverhead +
                     ipc_time(values[(rank_ + n - 1) % n].size() +
                              values[(rank_ + 1) % n].size()));
  co_return round.table;
}

sim::Task<SharedTable> PmiClient::iallgather_wait(CollectiveTicket ticket) {
  sim::PhaseTimer span(manager_.engine(), manager_.metrics_,
                       "pmi/iallgather_wait");
  JobManager::Round& round =
      manager_.round_at(JobManager::kAllgather, ticket.round);
  co_await round.gate.wait();
  // Bulk delivery of the gathered table over local IPC, serialized on the
  // node daemon.
  co_await on_daemon(kGetOverhead + ipc_time(round.bytes));
  co_return round.table;
}

}  // namespace odcm::pmi
