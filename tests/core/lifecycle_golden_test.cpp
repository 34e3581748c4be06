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
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
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

}  // namespace
}  // namespace odcm::core
