// Lightweight instrumentation: named counters and phase timers.
//
// The startup benchmarks (Figs 1, 5) need per-PE breakdowns of where virtual
// time went (PMI exchange, connection setup, memory registration, ...), and
// the resource benchmarks (Fig 9, Table I) need event counts (QPs created,
// connections established, distinct peers). `StatSet` collects both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics_sink.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// A bag of named integer counters and named accumulated durations.
///
/// An optional `MetricsSink` (set by the telemetry subsystem when attached)
/// receives every observation as it happens; with no sink installed the
/// forwarding costs one branch. A StatSet is itself a `MetricsSink`, so a
/// `PhaseTimer` can record into it or into any other sink.
class StatSet final : public MetricsSink {
 public:
  /// Increment counter `name` by `delta`.
  void add(const std::string& name, std::int64_t delta = 1) {
    counters_[name] += delta;
    if (sink_ != nullptr) sink_->on_counter(name, delta);
  }

  /// Accumulate `dt` of virtual time into phase `name`.
  void add_time(const std::string& name, Time dt) {
    phases_[name] += dt;
    if (sink_ != nullptr) sink_->on_duration(name, dt);
  }

  void on_counter(std::string_view name, std::int64_t delta) override {
    add(std::string(name), delta);
  }
  void on_duration(std::string_view name, Time dt) override {
    add_time(std::string(name), dt);
  }

  /// Install (or clear, with nullptr) the live observation sink. The sink
  /// must outlive the stat set or be detached before destruction.
  void set_sink(MetricsSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] MetricsSink* sink() const noexcept { return sink_; }

  [[nodiscard]] std::int64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  [[nodiscard]] Time phase_time(const std::string& name) const {
    auto it = phases_.find(name);
    return it == phases_.end() ? 0 : it->second;
  }

  [[nodiscard]] const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Time>& phases() const {
    return phases_;
  }

  /// Merge another stat set into this one (for job-wide aggregation).
  void merge(const StatSet& other) {
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
    for (const auto& [name, value] : other.phases_) phases_[name] += value;
  }

  void clear() {
    counters_.clear();
    phases_.clear();
  }

 private:
  std::map<std::string, std::int64_t> counters_{};
  std::map<std::string, Time> phases_{};
  MetricsSink* sink_ = nullptr;
};

/// RAII phase timer against the virtual clock: the runtime's one span type.
///
///   {
///     PhaseTimer timer(engine, &stats, "pmi_exchange");
///     co_await client.fence();
///   }   // elapsed virtual time reported as one "pmi_exchange" duration
///
/// The elapsed time goes to `sink->on_duration` (a `StatSet` accumulates
/// it into the named phase; a metrics registry records one histogram
/// sample). A null sink makes the timer a no-op. `name` must outlive the
/// timer; every call site passes a string literal.
///
/// NOTE: with coroutines the destructor runs on the awaiting task's frame
/// destruction path as usual; the pattern works because the frame lives
/// across suspensions.
class PhaseTimer {
 public:
  PhaseTimer(Engine& engine, MetricsSink* sink, std::string_view name)
      : engine_(&engine), sink_(sink), name_(name), start_(engine.now()) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { stop(); }

  /// Stop early (idempotent).
  void stop() {
    if (sink_ != nullptr) {
      sink_->on_duration(name_, engine_->now() - start_);
      sink_ = nullptr;
    }
  }

 private:
  Engine* engine_;
  MetricsSink* sink_;
  std::string_view name_;
  Time start_;
};

}  // namespace odcm::sim
