// The stable machine-readable bench result schema ("odcm-bench", version 1).
//
// Every figure/table/ablation bench registered with `bench/run_all` emits
// one `BENCH_<name>.json` in this shape:
//
//   {
//     "schema": "odcm-bench",
//     "schema_version": 1,
//     "bench": "fig6_pt2pt",
//     "config": { "pes": 2, "mode": "quick", ... },
//     "seed": 1,
//     "metrics": { "<name>": <number>, ... },
//     "series": [
//       { "name": "put_latency", "x": 8, "label": "8B",
//         "values": { "static_us": 1.91, "ondemand_us": 1.93 } },
//       ...
//     ]
//   }
//
// Schema policy (DESIGN.md §7): additions bump nothing (consumers must
// ignore unknown keys); renames/removals/semantic changes bump
// `schema_version`. The emitter and the validator (`bench/schema_check`)
// live in the same tree precisely so they cannot drift apart.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace odcm::telemetry {

inline constexpr const char* kBenchSchemaName = "odcm-bench";
inline constexpr std::int64_t kBenchSchemaVersion = 1;

class BenchReport {
 public:
  BenchReport(std::string bench, std::uint64_t seed)
      : bench_(std::move(bench)), seed_(seed) {}

  /// Record one configuration key (job shape, mode, sizes...).
  void set_config(std::string key, JsonValue value) {
    config_.set(std::move(key), std::move(value));
  }

  /// Record one scalar result metric.
  void set_metric(std::string name, JsonValue value) {
    metrics_.set(std::move(name), std::move(value));
  }

  /// Flatten a registry into the metrics map under `prefix` (counters
  /// verbatim; histograms as <name>/{count,sum,p50,p95,p99,max}).
  void set_metrics_from(const MetricsRegistry& registry,
                        const std::string& prefix = "");

  /// Append one row to series `series`: an x coordinate plus named values.
  void add_row(const std::string& series, double x,
               std::vector<std::pair<std::string, double>> values,
               const std::string& label = "");

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }

  [[nodiscard]] JsonValue to_json() const;
  /// Pretty-printed JSON document with trailing newline (the on-disk form).
  void write(std::ostream& out) const;
  /// Human-readable form of the series: one block per series name (in
  /// order of first appearance), one line per row, columns x / label /
  /// values. The label column appears only when some row has a label; a
  /// value a row lacks prints as "-".
  void write_table(std::ostream& out) const;

  /// Validate a parsed document against the schema; on failure, `error`
  /// receives a description. Used by `bench/schema_check` and the tests.
  static bool validate(const JsonValue& doc, std::string* error);

 private:
  std::string bench_;
  std::uint64_t seed_;
  JsonValue config_ = JsonValue::object();
  JsonValue metrics_ = JsonValue::object();
  JsonValue series_ = JsonValue::array();
};

}  // namespace odcm::telemetry
