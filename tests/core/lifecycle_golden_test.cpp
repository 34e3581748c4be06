// The connection lifecycle pinned as a golden protocol event log
// (`core::EventLog` CSV) of three conduit-level runs: the on-demand
// handshake under UD loss and duplication with eviction churn, the
// simulated static mesh, and the bulk-modeled mesh materialized on first
// use. Every PE sends one active message to every PE, itself included,
// then joins a global barrier.
//
// The golden file lives at tests/core/golden/lifecycle_runs.csv. On an
// intentional protocol change, the test writes the new log next to the
// test binary as lifecycle_runs_actual.csv; inspect the diff and copy it
// over the golden file.
//
// The golden runs also serve as the coverage record of the Fig. 4 phase
// machine: every edge of `core::kPhaseEdges` appears in them, except the
// few listed in EveryLegalEdgeIsReached, which that test reaches itself.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/conduit.hpp"
#include "core/observer.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

std::string lifecycle_log(const JobConfig& config) {
  JobEnv env(config);
  EventLog log;
  env.job.add_observer(&log);
  const std::uint32_t n = config.ranks;
  env.run([n](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    for (std::uint32_t d = 0; d < n; ++d) {
      co_await c.am_send((c.rank() + d) % n, 20, std::vector<std::byte>(8));
    }
    co_await c.barrier_global();
  });
  std::ostringstream csv;
  log.write_csv(csv);
  return csv.str();
}

std::string lifecycle_runs() {
  ConduitConfig on_demand = proposed_design();
  on_demand.max_active_connections = 2;
  JobConfig lossy = small_job(6, 2, on_demand);
  lossy.fabric.ud_drop_rate = 0.2;
  lossy.fabric.ud_duplicate_rate = 0.05;

  ConduitConfig bulk = current_design();
  bulk.bulk_connect_threshold = 2;

  return lifecycle_log(lossy) +
         lifecycle_log(small_job(4, 2, current_design())) +
         lifecycle_log(small_job(4, 2, bulk));
}

TEST(ConnectionLifecycle, GoldenEventLog) {
  const std::string log = lifecycle_runs();
  // The runs reach every lifecycle path the golden is meant to pin.
  for (const char* step : {"Connected->Draining", "collision", "retransmit",
                           "qp_unbound", "role=Static"}) {
    EXPECT_NE(log.find(step), std::string::npos) << "no " << step;
  }
  const std::string golden_path =
      std::string(ODCM_TEST_GOLDEN_DIR) + "/lifecycle_runs.csv";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (log != golden.str()) {
    const std::string actual_path = "lifecycle_runs_actual.csv";
    std::ofstream actual(actual_path);
    actual << log;
    FAIL() << "lifecycle event log diverged from the golden file.\n"
           << "  golden: " << golden_path << "\n"
           << "  actual: " << actual_path << " (written by this test)\n"
           << "If the change is intentional, inspect the diff and copy the "
              "actual file over the golden one.";
  }
}

using Edge = std::pair<PeerPhase, PeerPhase>;

template <typename Enum>
Enum named(const std::string& name, Enum last) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (name == to_string(static_cast<Enum>(i))) return static_cast<Enum>(i);
  }
  ADD_FAILURE() << "unknown name " << name;
  return last;
}

TEST(ConnectionLifecycle, EveryLegalEdgeIsReached) {
  // Every phase change in the golden runs is a legal edge.
  std::set<Edge> in_golden;
  std::ifstream golden(std::string(ODCM_TEST_GOLDEN_DIR) +
                       "/lifecycle_runs.csv");
  ASSERT_TRUE(golden);
  std::string line;
  while (std::getline(golden, line)) {
    // time_ns,self,peer,event; a phase change reads "From->To role=R".
    std::size_t start = 0;
    for (int i = 0; i < 3; ++i) start = line.find(',', start) + 1;
    const std::string event = line.substr(start);
    const std::size_t arrow = event.find("->");
    const std::size_t space = event.find(" role=");
    if (arrow == std::string::npos || space == std::string::npos) continue;
    const PeerPhase from = named(event.substr(0, arrow), PeerPhase::kDraining);
    const PeerPhase to =
        named(event.substr(arrow + 2, space - arrow - 2), PeerPhase::kDraining);
    const PeerRole role = named(event.substr(space + 6), PeerRole::kStatic);
    EXPECT_TRUE(legal_transition(from, to, role)) << line;
    in_golden.insert({from, to});
  }

  // Edges the golden runs do not reach. A client that exhausts its retry
  // budget (the job of Protocol.RetriesExceededSurfacesError) fails its
  // handshake: Requesting -> Idle.
  const std::set<Edge> not_in_golden = {
      {PeerPhase::kRequesting, PeerPhase::kIdle}};
  JobConfig config = small_job(2, 1);
  config.fabric.ud_drop_rate = 1.0;  // nothing ever arrives
  JobEnv env(config);
  EventLog log;
  env.job.add_observer(&log);
  env.job.spawn_all([](Conduit& c) -> sim::Task<> {
    c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
      co_return;
    });
    co_await c.init();
    if (c.rank() == 0) {
      co_await c.am_send(1, 20, std::vector<std::byte>(8));
    }
  });
  EXPECT_THROW(env.engine.run(), std::runtime_error);
  std::set<Edge> reached_here;
  for (const ProtocolEvent& event : log.events()) {
    if (event.kind != ProtocolEvent::Kind::kPhaseChange) continue;
    EXPECT_TRUE(legal_transition(event.from, event.to, event.role))
        << describe(event);
    reached_here.insert({event.from, event.to});
  }

  for (const PhaseEdge& edge : kPhaseEdges) {
    const Edge key{edge.from, edge.to};
    const std::string name =
        std::string(to_string(edge.from)) + "->" + to_string(edge.to);
    if (not_in_golden.contains(key)) {
      EXPECT_FALSE(in_golden.contains(key))
          << name << " is in the golden now; drop it from the list";
      EXPECT_TRUE(reached_here.contains(key)) << name << " never reached";
    } else {
      EXPECT_TRUE(in_golden.contains(key))
          << name << " (" << edge.why << ") is in no golden run";
    }
  }

  // The duplicate-suppression seam (test_skip_duplicate_suppression) must
  // trip the checker: a duplicate request never reopens a connected pair.
  for (PeerRole role : {PeerRole::kNone, PeerRole::kClient, PeerRole::kServer,
                        PeerRole::kStatic}) {
    EXPECT_FALSE(legal_transition(PeerPhase::kConnected,
                                  PeerPhase::kEstablishing, role));
  }
}

}  // namespace
}  // namespace odcm::core
