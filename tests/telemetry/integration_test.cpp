// End-to-end telemetry tests against real simulated jobs:
//
//  * determinism — two identically-seeded runs export byte-identical
//    BENCH-schema JSON and Chrome traces;
//  * zero-cost-off — a run with telemetry attached has bit-identical
//    virtual times to a bare run;
//  * the BENCH_*.json emitter and validator agree.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/hello.hpp"
#include "shmem/job.hpp"
#include "sim/engine.hpp"
#include "telemetry/bench_report.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"

namespace odcm::telemetry {
namespace {

constexpr std::uint32_t kPes = 16;

shmem::ShmemJobConfig hello_config(bool lossy = false) {
  shmem::ShmemJobConfig config;
  config.job.ranks = kPes;
  config.job.ranks_per_node = 8;
  config.job.conduit = core::proposed_design();
  config.shmem.heap_bytes = 64 << 10;
  if (lossy) {
    config.job.fabric.ud_drop_rate = 0.3;
    config.job.fabric.ud_jitter_max = 2 * sim::usec;
  }
  return config;
}

struct RunResult {
  sim::Time makespan = 0;
  std::vector<sim::Time> start_pes_times{};
  std::string bench_json{};
  std::string trace_json{};
};

/// Run a 16-PE hello-world, with a telemetry session attached or with
/// none at all.
RunResult run_hello(bool attached, bool lossy = false) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config(lossy));
  std::optional<Telemetry> tel;
  if (attached) {
    tel.emplace();
    tel->attach(job.conduit_job());
  }
  RunResult result;
  result.makespan = job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  for (std::uint32_t r = 0; r < kPes; ++r) {
    result.start_pes_times.push_back(
        job.pe(r).stats().phase_time("start_pes_total"));
  }
  if (attached) {
    tel->finish(engine.now());
    BenchReport report("hello", 1);
    report.set_config("pes", std::int64_t{kPes});
    report.set_metric("wall_s", sim::to_seconds(result.makespan));
    report.set_metrics_from(tel->metrics());
    std::ostringstream bench;
    report.write(bench);
    result.bench_json = bench.str();
    std::ostringstream trace;
    export_chrome_trace(trace, tel->timeline(), kPes);
    result.trace_json = trace.str();
  }
  return result;
}

TEST(TelemetryIntegration, RepeatRunsAreByteIdentical) {
  RunResult a = run_hello(true);
  RunResult b = run_hello(true);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_FALSE(a.bench_json.empty());
  EXPECT_EQ(a.bench_json, b.bench_json);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TelemetryIntegration, AttachedTelemetryDoesNotPerturbVirtualTime) {
  RunResult bare = run_hello(false);
  RunResult attached = run_hello(true);
  EXPECT_EQ(bare.makespan, attached.makespan);
  EXPECT_EQ(bare.start_pes_times, attached.start_pes_times);
}

TEST(TelemetryIntegration, LossyRunVirtualTimeAlsoUnperturbed) {
  RunResult bare = run_hello(false, /*lossy=*/true);
  RunResult attached = run_hello(true, /*lossy=*/true);
  EXPECT_EQ(bare.makespan, attached.makespan);
  EXPECT_EQ(bare.start_pes_times, attached.start_pes_times);
}

TEST(TelemetryIntegration, RegistryCapturesTheWholeJob) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config());
  Telemetry tel;
  tel.attach(job.conduit_job());
  job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  tel.finish(engine.now());
  const MetricsRegistry& m = tel.metrics();
  // Every PE's conduit stats fan into the one registry...
  EXPECT_EQ(m.counter("connections_established"),
            static_cast<std::int64_t>(tel.timeline().handshakes().size()));
  // ...the PMI layer reports OOB spans...
  EXPECT_GT(m.counter("pmi/oob_bytes"), 0);
  // ...and the protocol stream feeds the handshake histogram.
  ASSERT_NE(m.histogram("conn/handshake_time"), nullptr);
  EXPECT_EQ(m.histogram("conn/handshake_time")->count(),
            static_cast<std::uint64_t>(m.counter("conn/handshakes_completed")));
  for (const auto& hs : tel.timeline().handshakes()) {
    EXPECT_TRUE(hs.complete);
  }
}

TEST(TelemetryIntegration, LossyHandshakesCarryRetransmitAnnotations) {
  sim::Engine engine;
  shmem::ShmemJob job(engine, hello_config(/*lossy=*/true));
  Telemetry tel;
  tel.attach(job.conduit_job());
  job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await apps::hello_pe(pe, apps::HelloParams{});
  });
  tel.finish(engine.now());
  EXPECT_GT(tel.metrics().counter("conn/retransmits"), 0);
  std::ostringstream trace;
  export_chrome_trace(trace, tel.timeline(), kPes);
  EXPECT_NE(trace.str().find("\"retransmit\""), std::string::npos);
}

TEST(BenchReport, EmitterOutputValidates) {
  RunResult run = run_hello(true);
  JsonValue doc = JsonValue::parse(run.bench_json);
  std::string error;
  EXPECT_TRUE(BenchReport::validate(doc, &error)) << error;
}

TEST(BenchReport, ValidatorRejectsBrokenDocuments) {
  std::string error;
  auto invalid = [&error](const char* text) {
    return !BenchReport::validate(JsonValue::parse(text), &error);
  };
  EXPECT_TRUE(invalid("{}"));
  EXPECT_TRUE(invalid(R"({"schema":"other","schema_version":1,"bench":"b",)"
                      R"("config":{},"seed":1,"metrics":{},"series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":2,)"
                      R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                      R"("series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                      R"("bench":"b","config":{},"seed":1,)"
                      R"("metrics":{"m":"text"},"series":[]})"));
  EXPECT_TRUE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                      R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                      R"("series":[{"name":"s","values":{}}]})"));
  // And accepts a minimal valid one.
  EXPECT_FALSE(invalid(R"({"schema":"odcm-bench","schema_version":1,)"
                       R"("bench":"b","config":{},"seed":1,"metrics":{},)"
                       R"("series":[{"name":"s","x":1,"values":{"v":2}}]})"));
}

TEST(BenchReport, WriteTableRendersOneBlockPerSeries) {
  // Rows of two series interleave; each series becomes one block with the
  // union of its value columns, "-" where a row lacks one.
  BenchReport report("demo", 1);
  report.add_row("latency", 8, {{"static_us", 1.5}, {"ondemand_us", 1.25}},
                 "8B");
  report.add_row("peers", 0, {{"measured", 4.7}});
  report.add_row("latency", 1024, {{"static_us", 2.0}, {"diff_pct", -0.125}},
                 "1KiB");
  report.add_row("peers", 1, {{"measured", 1234567.5}});
  std::ostringstream out;
  report.write_table(out);
  EXPECT_EQ(out.str(),
            "latency\n"
            "     x  label  static_us  ondemand_us  diff_pct\n"
            "     8     8B        1.5         1.25         -\n"
            "  1024   1KiB          2            -    -0.125\n"
            "\n"
            "peers\n"
            "  x     measured\n"
            "  0          4.7\n"
            "  1  1.23457e+06\n"
            "\n");
}

}  // namespace
}  // namespace odcm::telemetry
