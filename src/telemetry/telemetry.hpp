// Telemetry session: one object wiring the whole observation pipeline to a
// running job.
//
//   sim::Engine engine;
//   core::ConduitJob job(engine, config);       // or shmem::ShmemJob's
//   telemetry::Telemetry tel;                    //   .conduit_job()
//   tel.attach(job);
//   ...run...
//   tel.finish(engine.now());
//   telemetry::export_chrome_trace(out, tel.timeline(), job.ranks());
//
// `attach` fans the three existing instrumentation surfaces into the
// session: every conduit's `sim::StatSet` gets the registry as its live
// sink, the PMI job manager reports out-of-band exchange spans, and the
// `ConnectionTimeline` joins the protocol observer list. All hooks are
// observation-only — no simulation event is ever scheduled on behalf of
// telemetry — so an attached run's virtual times are bit-identical to a
// detached one's. To run without telemetry, construct no session (e.g. keep
// it in a `std::optional`).
#pragma once

#include "core/conduit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeline.hpp"

namespace odcm::telemetry {

class Telemetry {
 public:
  Telemetry() : timeline_(&registry_) {}
  ~Telemetry() { detach(); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return registry_;
  }
  [[nodiscard]] ConnectionTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const ConnectionTimeline& timeline() const noexcept {
    return timeline_;
  }

  /// Hook every observation surface of `job` into this session (a second
  /// attach is a no-op). The session must outlive the job run (or be
  /// detached first).
  void attach(core::ConduitJob& job) {
    if (job_ != nullptr) return;
    job_ = &job;
    job.add_observer(&timeline_);
    for (core::RankId r = 0; r < job.ranks(); ++r) {
      job.conduit(r).stats().set_sink(&registry_);
    }
    job.pmi().set_metrics_sink(&registry_);
  }

  /// Undo attach(); safe to call repeatedly.
  void detach() {
    if (job_ == nullptr) return;
    job_->remove_observer(&timeline_);
    for (core::RankId r = 0; r < job_->ranks(); ++r) {
      job_->conduit(r).stats().set_sink(nullptr);
    }
    job_->pmi().set_metrics_sink(nullptr);
    job_ = nullptr;
  }

  /// Close still-open timeline intervals at virtual time `now` (call after
  /// the engine ran, before exporting).
  void finish(sim::Time now) { timeline_.finish(now); }

 private:
  MetricsRegistry registry_;
  ConnectionTimeline timeline_;
  core::ConduitJob* job_ = nullptr;
};

}  // namespace odcm::telemetry
