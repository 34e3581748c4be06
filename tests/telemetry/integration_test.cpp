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

TEST(TelemetryIntegration, RegAndBulkMarksMatchConduitCounters) {
  // On-demand registration with the size tiers on: every first touch of a
  // remote chunk sends an rkey fault, and every transfer above the
  // rendezvous threshold opens with an RTS. The timeline's point marks
  // must agree with the counters the conduits keep themselves.
  constexpr std::uint32_t kRanks = 4;
  shmem::ShmemJobConfig config = hello_config();
  config.job.ranks = kRanks;
  config.job.ranks_per_node = 1;
  config.job.conduit.eager_threshold = 512;
  config.job.conduit.rendezvous_threshold = 4096;
  config.job.conduit.bulk_chunk_bytes = 512;
  config.shmem.registration = shmem::RegistrationMode::kOnDemand;
  config.shmem.reg_chunk_bytes = 8192;
  sim::Engine engine;
  shmem::ShmemJob job(engine, config);
  Telemetry tel;
  tel.attach(job.conduit_job());
  job.run([](shmem::ShmemPe& pe) -> sim::Task<> {
    co_await pe.start_pes();
    const shmem::SymAddr dst = pe.heap().allocate(16 << 10);
    co_await pe.barrier_all();
    const fabric::RankId right = (pe.rank() + 1) % pe.n_pes();
    for (std::size_t len : {64u, 2048u, 16384u}) {
      co_await pe.put(right, dst, std::vector<std::byte>(len));
    }
    co_await pe.barrier_all();
  });
  tel.finish(engine.now());

  std::int64_t faults = 0;
  std::int64_t rts = 0;
  for (const auto& mark : tel.timeline().reg_marks()) {
    if (mark.kind == core::ProtocolEvent::Kind::kRegFault) ++faults;
  }
  for (const auto& mark : tel.timeline().bulk_marks()) {
    if (mark.kind == core::ProtocolEvent::Kind::kRtsIssued) ++rts;
  }
  const sim::StatSet totals = job.conduit_job().aggregate_stats();
  EXPECT_FALSE(tel.timeline().reg_marks().empty());
  EXPECT_FALSE(tel.timeline().bulk_marks().empty());
  EXPECT_GT(faults, 0);
  EXPECT_EQ(faults, totals.counter("reg_rkey_misses"));
  EXPECT_EQ(rts, kRanks);  // one rendezvous-sized put per PE
  EXPECT_EQ(rts, totals.counter("bulk_tier_rendezvous"));
  EXPECT_EQ(tel.metrics().counter("reg/faults"), faults);
  EXPECT_EQ(tel.metrics().counter("bulk/rts"), rts);
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
