// Determinism regression for the intra-node shm transport: the same seed
// must produce a bit-identical protocol event log (`core::EventLog` CSV)
// and metrics snapshot with the shm transport enabled, and the 16-PE /
// 4-PPN hello run is pinned against a golden event log.
//
// The golden file lives at tests/shmem/golden/shm_hello_16pe_4ppn.csv. On
// an intentional cost-model or protocol change, the test writes the new
// trace next to the test binary as shm_hello_16pe_4ppn_actual.csv; inspect
// the diff and copy it over the golden file.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/hello.hpp"
#include "core/observer.hpp"
#include "shmem/job.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"

namespace odcm::shmem {
namespace {

using testutil::JobEnv;
using testutil::small_job;

struct RunOutput {
  std::string trace_csv;
  std::string metrics_json;
  std::int64_t segments_exported = 0;
};

RunOutput run_hello_shm() {
  core::ConduitConfig conduit = core::proposed_design();
  conduit.intranode_transport = IntranodeTransport::kShm;
  JobEnv env(small_job(16, 4, conduit));
  // Declared after `env`: ~Telemetry detaches from the job, so the session
  // must be destroyed first (the log outlives the run the same way).
  core::EventLog log;
  telemetry::Telemetry session;
  env.job.conduit_job().add_observer(&log);
  session.attach(env.job.conduit_job());
  env.run([](ShmemPe& pe) -> sim::Task<> {
    return apps::hello_pe(pe, apps::HelloParams{});
  });

  RunOutput out;
  std::ostringstream csv;
  log.write_csv(csv);
  out.trace_csv = csv.str();
  std::ostringstream metrics;
  session.metrics().to_json().write(metrics, 2);
  out.metrics_json = metrics.str();
  out.segments_exported = session.metrics().counter("shm_segment_exported");
  return out;
}

TEST(ShmDeterminism, RepeatedRunsAreBitIdentical) {
  RunOutput first = run_hello_shm();
  RunOutput second = run_hello_shm();
  EXPECT_FALSE(first.trace_csv.empty());
  EXPECT_EQ(first.trace_csv, second.trace_csv);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // The run must actually have exercised the shm transport: every PE
  // exported its heap segment to its node.
  EXPECT_EQ(first.segments_exported, 16);
}

TEST(ShmDeterminism, GoldenTrace16Pe4PpnHello) {
  RunOutput run = run_hello_shm();
  const std::string golden_path =
      std::string(ODCM_TEST_GOLDEN_DIR) + "/shm_hello_16pe_4ppn.csv";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (run.trace_csv != golden.str()) {
    const std::string actual_path = "shm_hello_16pe_4ppn_actual.csv";
    std::ofstream actual(actual_path);
    actual << run.trace_csv;
    FAIL() << "shm hello trace diverged from the golden file.\n"
           << "  golden: " << golden_path << "\n"
           << "  actual: " << actual_path << " (written by this test)\n"
           << "If the change is intentional, inspect the diff and copy the "
              "actual file over the golden one.";
  }
}

}  // namespace
}  // namespace odcm::shmem
