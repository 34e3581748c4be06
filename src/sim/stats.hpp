// Lightweight instrumentation: named counters and phase timers.
//
// The startup benchmarks (Figs 1, 5) need per-PE breakdowns of where virtual
// time went (PMI exchange, connection setup, memory registration, ...), and
// the resource benchmarks (Fig 9, Table I) need event counts (QPs created,
// connections established, distinct peers). `StatSet` collects both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics_sink.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// Dense index of an interned stat name (see `stat_id`).
struct StatId {
  std::uint32_t index;
};

/// Intern `name` into the process-wide, append-only stat-name table and
/// return its id. Hot call sites hold the id in a file-scope constant:
///
///   const sim::StatId kShmemPut = sim::stat_id("shmem_put");
///   stats().add(kShmemPut);
StatId stat_id(std::string_view name);

/// The id of `name` if it was ever interned.
std::optional<StatId> find_stat_id(std::string_view name);

/// The name `id` was interned from; valid for the life of the process.
std::string_view stat_name(StatId id);

/// A bag of named integer counters and named accumulated durations.
///
/// Values live in vectors indexed by `StatId`, with a touched bit per
/// entry: an entry added with delta 0 still exists, exactly as with a
/// name-keyed map. `counters()` / `phases()` rebuild the name-sorted view.
///
/// An optional `MetricsSink` (set by the telemetry subsystem when attached)
/// receives every observation as it happens; with no sink installed the
/// forwarding costs one branch. A StatSet is itself a `MetricsSink`, so a
/// `PhaseTimer` can record into it or into any other sink.
class StatSet final : public MetricsSink {
 public:
  /// Increment counter `id` by `delta`.
  void add(StatId id, std::int64_t delta = 1) {
    counters_.add(id.index, delta);
    if (sink_ != nullptr) sink_->on_counter(stat_name(id), delta);
  }
  /// Increment counter `name` by `delta` (interns the name; cold paths).
  void add(std::string_view name, std::int64_t delta = 1) {
    add(stat_id(name), delta);
  }

  /// Accumulate `dt` of virtual time into phase `id`.
  void add_time(StatId id, Time dt) {
    phases_.add(id.index, dt);
    if (sink_ != nullptr) sink_->on_duration(stat_name(id), dt);
  }
  void add_time(std::string_view name, Time dt) {
    add_time(stat_id(name), dt);
  }

  void on_counter(std::string_view name, std::int64_t delta) override {
    add(name, delta);
  }
  void on_duration(std::string_view name, Time dt) override {
    add_time(name, dt);
  }

  /// Install (or clear, with nullptr) the live observation sink. The sink
  /// must outlive the stat set or be detached before destruction.
  void set_sink(MetricsSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] MetricsSink* sink() const noexcept { return sink_; }

  [[nodiscard]] std::int64_t counter(const std::string& name) const {
    auto id = find_stat_id(name);
    return id ? counters_.get(id->index) : 0;
  }

  [[nodiscard]] Time phase_time(const std::string& name) const {
    auto id = find_stat_id(name);
    return id ? phases_.get(id->index) : 0;
  }

  /// Every touched counter by name, sorted (built on demand).
  [[nodiscard]] std::map<std::string, std::int64_t> counters() const {
    return counters_.by_name();
  }
  /// Every touched phase by name, sorted (built on demand).
  [[nodiscard]] std::map<std::string, Time> phases() const {
    return phases_.by_name();
  }

  /// Merge another stat set into this one (for job-wide aggregation).
  void merge(const StatSet& other) {
    counters_.merge(other.counters_);
    phases_.merge(other.phases_);
  }

  void clear() {
    counters_ = {};
    phases_ = {};
  }

 private:
  /// Values indexed by stat id, plus which ids were ever added to.
  template <typename V>
  class Dense {
   public:
    void add(std::uint32_t index, V delta) {
      if (index >= values_.size()) {
        values_.resize(index + 1);
        touched_.resize(index / 64 + 1);
      }
      values_[index] += delta;
      touched_[index / 64] |= std::uint64_t{1} << (index % 64);
    }
    [[nodiscard]] V get(std::uint32_t index) const {
      return index < values_.size() ? values_[index] : V{};
    }
    [[nodiscard]] bool touched(std::uint32_t index) const {
      return index < values_.size() &&
             ((touched_[index / 64] >> (index % 64)) & 1U) != 0;
    }
    void merge(const Dense& other) {
      for (std::uint32_t i = 0; i < other.values_.size(); ++i) {
        if (other.touched(i)) add(i, other.values_[i]);
      }
    }
    [[nodiscard]] std::map<std::string, V> by_name() const {
      std::map<std::string, V> out;
      for (std::uint32_t i = 0; i < values_.size(); ++i) {
        if (touched(i)) out.emplace(stat_name(StatId{i}), values_[i]);
      }
      return out;
    }

   private:
    std::vector<V> values_{};
    std::vector<std::uint64_t> touched_{};
  };

  Dense<std::int64_t> counters_{};
  Dense<Time> phases_{};
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
