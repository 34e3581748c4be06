#include "telemetry/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace odcm::telemetry {

namespace {

/// Integers print exactly, everything else with six significant digits.
std::string table_cell(double value) {
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", value);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", value);
  }
  return buf;
}

}  // namespace

void BenchReport::set_metrics_from(const MetricsRegistry& registry,
                                   const std::string& prefix) {
  for (const auto& [name, value] : registry.counters()) {
    metrics_.set(prefix + name, value);
  }
  for (const auto& [name, value] : registry.gauges()) {
    metrics_.set(prefix + name, value);
  }
  for (const auto& [name, hist] : registry.histograms()) {
    metrics_.set(prefix + name + "/count", hist.count());
    metrics_.set(prefix + name + "/sum", hist.sum());
    metrics_.set(prefix + name + "/p50", hist.percentile(50));
    metrics_.set(prefix + name + "/p95", hist.percentile(95));
    metrics_.set(prefix + name + "/p99", hist.percentile(99));
    metrics_.set(prefix + name + "/max", hist.max());
  }
}

void BenchReport::add_row(const std::string& series, double x,
                          std::vector<std::pair<std::string, double>> values,
                          const std::string& label) {
  JsonValue row = JsonValue::object();
  row.set("name", series);
  row.set("x", x);
  if (!label.empty()) row.set("label", label);
  JsonValue vals = JsonValue::object();
  for (auto& [name, value] : values) vals.set(std::move(name), value);
  row.set("values", std::move(vals));
  series_.push(std::move(row));
}

JsonValue BenchReport::to_json() const {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kBenchSchemaName);
  doc.set("schema_version", kBenchSchemaVersion);
  doc.set("bench", bench_);
  doc.set("config", config_);
  doc.set("seed", seed_);
  doc.set("metrics", metrics_);
  doc.set("series", series_);
  return doc;
}

void BenchReport::write(std::ostream& out) const {
  to_json().write(out, 2);
  out << "\n";
}

void BenchReport::write_table(std::ostream& out) const {
  std::vector<std::string> names;
  for (const JsonValue& row : series_.items()) {
    const std::string& name = row.find("name")->as_string();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  for (const std::string& name : names) {
    std::vector<const JsonValue*> rows;
    std::vector<std::string> columns;
    bool labels = false;
    for (const JsonValue& row : series_.items()) {
      if (row.find("name")->as_string() != name) continue;
      rows.push_back(&row);
      labels = labels || row.find("label") != nullptr;
      for (const auto& [column, value] : row.find("values")->members()) {
        if (std::find(columns.begin(), columns.end(), column) ==
            columns.end()) {
          columns.push_back(column);
        }
      }
    }
    std::vector<std::vector<std::string>> cells(1, {"x"});
    if (labels) cells[0].push_back("label");
    cells[0].insert(cells[0].end(), columns.begin(), columns.end());
    for (const JsonValue* row : rows) {
      std::vector<std::string>& line = cells.emplace_back();
      line.push_back(table_cell(row->find("x")->as_double()));
      if (labels) {
        const JsonValue* label = row->find("label");
        line.push_back(label != nullptr ? label->as_string() : "");
      }
      const JsonValue& values = *row->find("values");
      for (const std::string& column : columns) {
        const JsonValue* value = values.find(column);
        line.push_back(value != nullptr ? table_cell(value->as_double())
                                        : "-");
      }
    }
    std::vector<std::size_t> widths(cells[0].size(), 0);
    for (const auto& line : cells) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        widths[c] = std::max(widths[c], line[c].size());
      }
    }
    out << name << "\n";
    for (const auto& line : cells) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        out << std::string(widths[c] - line[c].size() + 2, ' ') << line[c];
      }
      out << "\n";
    }
    out << "\n";
  }
}

bool BenchReport::validate(const JsonValue& doc, std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (doc.kind() != JsonValue::Kind::kObject) {
    return fail("document is not an object");
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->kind() != JsonValue::Kind::kString ||
      schema->as_string() != kBenchSchemaName) {
    return fail("missing or wrong \"schema\" (want \"" +
                std::string(kBenchSchemaName) + "\")");
  }
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr || version->kind() != JsonValue::Kind::kInt) {
    return fail("missing integer \"schema_version\"");
  }
  if (version->as_int() != kBenchSchemaVersion) {
    return fail("schema_version " + std::to_string(version->as_int()) +
                " != supported " + std::to_string(kBenchSchemaVersion));
  }
  const JsonValue* bench = doc.find("bench");
  if (bench == nullptr || bench->kind() != JsonValue::Kind::kString ||
      bench->as_string().empty()) {
    return fail("missing non-empty string \"bench\"");
  }
  const JsonValue* config = doc.find("config");
  if (config == nullptr || config->kind() != JsonValue::Kind::kObject) {
    return fail("missing object \"config\"");
  }
  const JsonValue* seed = doc.find("seed");
  if (seed == nullptr || seed->kind() != JsonValue::Kind::kInt) {
    return fail("missing integer \"seed\"");
  }
  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->kind() != JsonValue::Kind::kObject) {
    return fail("missing object \"metrics\"");
  }
  for (const auto& [name, value] : metrics->members()) {
    if (!value.is_number()) {
      return fail("metric \"" + name + "\" is not a number");
    }
  }
  const JsonValue* series = doc.find("series");
  if (series == nullptr || series->kind() != JsonValue::Kind::kArray) {
    return fail("missing array \"series\"");
  }
  for (std::size_t i = 0; i < series->items().size(); ++i) {
    const JsonValue& row = series->items()[i];
    std::string where = "series[" + std::to_string(i) + "]";
    if (row.kind() != JsonValue::Kind::kObject) {
      return fail(where + " is not an object");
    }
    const JsonValue* name = row.find("name");
    if (name == nullptr || name->kind() != JsonValue::Kind::kString ||
        name->as_string().empty()) {
      return fail(where + " missing non-empty string \"name\"");
    }
    const JsonValue* x = row.find("x");
    if (x == nullptr || !x->is_number()) {
      return fail(where + " missing numeric \"x\"");
    }
    const JsonValue* label = row.find("label");
    if (label != nullptr && label->kind() != JsonValue::Kind::kString) {
      return fail(where + " \"label\" is not a string");
    }
    const JsonValue* values = row.find("values");
    if (values == nullptr || values->kind() != JsonValue::Kind::kObject) {
      return fail(where + " missing object \"values\"");
    }
    for (const auto& [vname, value] : values->members()) {
      if (!value.is_number()) {
        return fail(where + " value \"" + vname + "\" is not a number");
      }
    }
  }
  return true;
}

}  // namespace odcm::telemetry
