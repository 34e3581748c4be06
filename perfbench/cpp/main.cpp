// The repository benchmark.
//
//   perfbench --workload startup|collectives|rma_churn --seed N
//             --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 times set-up-only jobs, then repeats untraced jobs (at least one
// per instance of the workload) for S seconds and prints the end-to-end
// metrics; --trace 1 alternates traced and untraced jobs, runs the layer
// probes, and prints the per-layer metrics. Every run checks the jobs'
// outputs, checks that repeated (and traced) jobs reproduce the first job of
// their instance bit for bit, writes a detail file into DIR (default
// .bench_out), and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every check passed.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "telemetry/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using odcm::telemetry::JsonValue;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  (void)workload_instances(opt.workload);  // rejects unknown names early
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Median and tail of a latency sample set, in `scale` ns per unit.
struct Summary {
  double p50 = 0;
  double tail = 0;
  std::size_t n = 0;
};

Summary summarize(std::vector<Time> samples, double scale) {
  Summary s;
  s.n = samples.size();
  if (s.n == 0) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = static_cast<double>(percentile(samples, 50)) / scale;
  s.tail = static_cast<double>(percentile(samples, tail_percentile(s.n))) /
           scale;
  return s;
}

/// "(p99 of 4096 PEs)": which percentile a tail metric reports.
std::string tail_note(std::size_t n, const char* what,
                      const char* prefix = "") {
  char text[96];
  std::snprintf(text, sizeof text, "(%sp%g of %zu %s)", prefix,
                tail_percentile(n), n, what);
  return text;
}

/// Each PE's mean latency over its pooled calls, in ns: the per-rank
/// average latency that OSU-style benchmarks report.
std::vector<double> pe_mean_latency(const JobResult& r) {
  std::vector<double> means;
  for (std::size_t pe = 0; pe < r.pe_pooled_calls.size(); ++pe) {
    if (r.pe_pooled_calls[pe] == 0) continue;
    means.push_back(static_cast<double>(r.pe_pooled_ns[pe]) /
                    r.pe_pooled_calls[pe]);
  }
  return means;
}

/// Mean of the sorted samples from the nearest-rank percentile `p` up.
/// Unlike the percentile itself, it does not stick to one exact value when
/// many samples share it (PE means over four first-contact puts do).
double mean_from(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto first = static_cast<std::size_t>(std::clamp<double>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())), 1,
      static_cast<double>(sorted.size())));
  double total = 0;
  for (std::size_t i = first - 1; i < sorted.size(); ++i) total += sorted[i];
  return total / static_cast<double>(sorted.size() - first + 1);
}

/// Every deterministic value of a job: two jobs of one seed must agree on
/// all of them, traced or not.
std::map<std::string, double> fingerprint(const JobResult& r) {
  std::map<std::string, double> f = r.layer;
  const Summary sp = summarize(r.start_pes, 1e6);
  std::vector<double> means = pe_mean_latency(r);
  std::sort(means.begin(), means.end());
  f["start_pes_p50_ms"] = sp.p50;
  f["start_pes_tail_ms"] = sp.tail;
  f["op_p50_us"] = percentile(means, 50) / 1e3;
  f["op_tail_us"] = mean_from(means, tail_percentile(means.size())) / 1e3;
  f["op_pes"] = static_cast<double>(means.size());
  f["makespan_ms"] = static_cast<double>(r.makespan) / 1e6;
  f["endpoints_per_pe"] = r.endpoints_per_pe;
  f["attempted"] = static_cast<double>(r.attempted);
  f["failed"] = static_cast<double>(r.failed);
  f["steady_ops"] = static_cast<double>(r.steady_ops);
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    const Summary s = summarize(r.latency[k], 1e3);
    const std::string name = op_name(static_cast<Op>(k));
    f["latency." + name + ".p50_us"] = s.p50;
    f["latency." + name + ".tail_us"] = s.tail;
    f["latency." + name + ".n"] = static_cast<double>(s.n);
  }
  return f;
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "1/s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},       {"start_pes_p50_ms", "ms"},
    {"start_pes_tail_ms", "ms"},  {"op_p50_us", "us"},
    {"op_tail_us", "us"},         {"makespan_ms", "ms"},
    {"endpoints_per_pe", "count"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_op", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.probe_resume_ns", "ns"},
    {"pmi.exchange_ms", "ms"},
    {"fabric.rc_qps", "count"},
    {"fabric.ud_qps", "count"},
    {"fabric.probe_rc_write_ns", "ns"},
    {"fabric.reg.misses", "count"},
    {"fabric.reg.evictions", "count"},
    {"fabric.reg.fault_p50_us", "us"},
    {"fabric.reg.pinned_hw_frac", "ratio"},
    {"core.handshakes", "count"},
    {"core.handshake_p50_us", "us"},
    {"core.handshake_tail_us", "us"},
    {"core.retransmits", "count"},
    {"core.collisions", "count"},
    {"core.evictions", "count"},
    {"core.peers_per_pe", "count"},
    {"core.am_per_op", "count"},
    {"core.tier_eager", "count"},
    {"core.tier_pipelined", "count"},
    {"core.tier_rendezvous", "count"},
    {"core.credit_stalls", "count"},
    {"core.credit_stall_us", "us"},
    {"core.rdv_retries", "count"},
    {"core.probe_am_ns", "ns"},
    {"shmem.start_pes.shared_memory_setup_ms", "ms"},
    {"shmem.start_pes.memory_registration_ms", "ms"},
    {"shmem.start_pes.connection_setup_ms", "ms"},
    {"shmem.start_pes.segment_exchange_ms", "ms"},
    {"shmem.start_pes.init_barrier_ms", "ms"},
    {"shmem.start_pes.init_other_ms", "ms"},
    {"shmem.put_p50_us", "us"},
    {"shmem.put_tail_us", "us"},
    {"shmem.get_p50_us", "us"},
    {"shmem.get_tail_us", "us"},
    {"shmem.amo_p50_us", "us"},
    {"shmem.amo_tail_us", "us"},
    {"shmem.fcollect_p50_us", "us"},
    {"shmem.fcollect_tail_us", "us"},
    {"shmem.reduce_p50_us", "us"},
    {"shmem.reduce_tail_us", "us"},
    {"shmem.barrier_p50_us", "us"},
    {"shmem.barrier_tail_us", "us"},
    {"shmem.self_us", "us"},
    {"shmem.probe_put_ns", "ns"},
    {"mpi.allreduce_p50_us", "us"},
    {"mpi.allreduce_tail_us", "us"},
    {"mpi.probe_send_ns", "ns"},
    {"host.wall_s", "s"},
    {"host.rss_kb_per_pe", "KiB"},
    {"host.trace_overhead_pct", "%"},
};

/// Accumulates checks across jobs and builds the result documents.
class Report {
 public:
  explicit Report(const Options& opt)
      : opt_(opt), detail_(JsonValue::object()) {}

  /// Counts a job's calls and failures; a job must reproduce the virtual
  /// results of the first job of the same instance bit for bit.
  void add_job(const JobResult& r, const char* label, std::uint32_t instance) {
    attempted_ += r.attempted;
    failed_ += r.failed;
    for (const auto& f : r.failures) {
      failures_.push_back(std::string(label) + ": " + f);
    }
    const auto f = fingerprint(r);
    auto [it, first] = reference_.try_emplace(instance, f);
    if (!first && f != it->second) {
      ++attempted_;
      ++failed_;
      failures_.push_back(std::string(label) +
                          ": virtual results differ from the first job");
    }
  }

  /// The virtual results of each instance, in instance order.
  [[nodiscard]] std::vector<std::map<std::string, double>> instances() const {
    std::vector<std::map<std::string, double>> out;
    for (const auto& [instance, f] : reference_) out.push_back(f);
    return out;
  }

  void set(const char* name, const char* unit, std::optional<double> value,
           std::string note = {}) {
    const bool applicable = value.has_value();
    const double v = value.value_or(0);
    JsonValue m = JsonValue::object();
    m.set("value", v);
    m.set("unit", unit);
    metrics_.set(name, std::move(m));
    std::printf("  %-42s %16.6f %-6s%s%s\n", name, v, unit,
                applicable ? "" : "  n/a for this workload",
                note.empty() ? "" : ("  " + note).c_str());
    if (!applicable) not_applicable_.push(name);
  }

  JsonValue& detail() { return detail_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Writes the detail file and prints the final result line.
  int finish() {
    std::printf("  %-42s %16llu / %llu\n", "failed / attempted",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const auto& f : failures_) std::printf("  FAILURE %s\n", f.c_str());

    JsonValue failures = JsonValue::array();
    for (const auto& f : failures_) failures.push(f);
    const double fail_frac =
        attempted_ == 0 ? 0.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    detail_.set("fail_frac", fail_frac);
    detail_.set("failures", std::move(failures));
    detail_.set("not_applicable", not_applicable_);
    detail_.set("metrics", metrics_);
    std::filesystem::create_directories(opt_.out_dir);
    const std::string path = opt_.out_dir + "/" + opt_.workload + "_seed" +
                             std::to_string(opt_.seed) + "_trace" +
                             (opt_.trace ? "1" : "0") + ".json";
    std::ofstream(path) << detail_.dump(2) << "\n";
    std::printf("  detail: %s\n", path.c_str());

    JsonValue line = JsonValue::object();
    line.set("correct", correct());
    line.set("attempted", attempted_);
    line.set("failed", failed_);
    line.set("metrics", metrics_);
    std::printf("%s\n", line.dump().c_str());
    return correct() ? 0 : 1;
  }

 private:
  const Options& opt_;
  JsonValue detail_;
  JsonValue metrics_ = JsonValue::object();
  JsonValue not_applicable_ = JsonValue::array();
  std::map<std::uint32_t, std::map<std::string, double>> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

JsonValue to_json(const std::map<std::string, double>& values) {
  JsonValue out = JsonValue::object();
  for (const auto& [k, v] : values) out.set(k, v);
  return out;
}

JsonValue to_json(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (double v : values) out.push(v);
  return out;
}

JsonValue run_info(const Options& opt) {
  JsonValue info = JsonValue::object();
  info.set("workload", opt.workload);
  info.set("seed", opt.seed);
  info.set("seconds", opt.seconds);
  info.set("trace", opt.trace);
  info.set("build_type", PERFBENCH_BUILD_TYPE);
  info.set("compiler", PERFBENCH_COMPILER);
  info.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  JsonValue knobs = JsonValue::array();
  for (const auto& k : workload_knobs(opt.workload)) knobs.push(k);
  info.set("non_default_knobs", std::move(knobs));
  return info;
}

/// One discarded set-up, so the timed jobs find the allocator's pages
/// already faulted in rather than paying that once, in the first job.
void warm_up(const Options& opt) {
  (void)run_job(opt.workload, opt.seed, false, true);
}

/// Set-up-only jobs for a fifth of `seconds` (at least three), then full
/// untraced jobs for the rest (at least one per instance); then the
/// end-to-end metrics. Set-up time comes from the set-up-only jobs alone:
/// in a full job, PEs that finish start_pes early already run the workload
/// while the last ones are still initializing.
int run_end_to_end(const Options& opt) {
  constexpr std::size_t kMinSetups = 3;
  const double setup_seconds = opt.seconds / 5;
  const std::uint32_t instances = workload_instances(opt.workload);
  Report report(opt);
  warm_up(opt);
  const double started = wall_seconds();
  std::vector<double> setups;
  while (setups.size() < kMinSetups ||
         wall_seconds() - started < setup_seconds) {
    setups.push_back(run_job(opt.workload, opt.seed, false, true).setup_s);
  }
  std::vector<double> rates;
  std::vector<double> walls;
  std::uint32_t pes = 0;
  for (std::uint32_t i = 0;
       i < instances || wall_seconds() - started < opt.seconds; ++i) {
    const std::uint32_t instance = i % instances;
    const JobResult r = run_job(opt.workload,
                                instance_seed(opt.seed, instance), false);
    report.add_job(r, "job", instance);
    rates.insert(rates.end(), r.segment_rates.begin(), r.segment_rates.end());
    walls.push_back(r.wall_s);
    pes = r.pes;
  }

  // Virtual metrics: the median over the instances.
  const auto virt = report.instances();
  auto across = [&virt](const std::string& key) {
    std::vector<double> v;
    for (const auto& f : virt) v.push_back(f.at(key));
    return median(v);
  };
  std::printf("%s, seed %llu: %zu jobs of %u PEs (%u instances), %zu "
              "setups\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              rates.size(), pes, instances, setups.size());
  std::map<std::string, double> values = {
      // The run's best sample: on a shared host interference only slows a
      // job, and the same fixed CPU loop varies by up to 1.8x between
      // seconds, so the best of many short samples is the steadier figure.
      {"ops_per_s", *std::max_element(rates.begin(), rates.end())},
      {"setup_s", *std::min_element(setups.begin(), setups.end())},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024},
  };
  for (const char* key :
       {"start_pes_p50_ms", "start_pes_tail_ms", "op_p50_us", "op_tail_us",
        "makespan_ms", "endpoints_per_pe"}) {
    values[key] = across(key);
  }
  // Every instance makes the same number of calls, so one note fits all.
  std::map<std::string, std::string> notes = {
      {"start_pes_tail_ms", tail_note(pes, "PEs")},
      {"op_tail_us",
       tail_note(static_cast<std::size_t>(across("op_pes")), "PE means",
                 "mean from ")},
  };
  for (const Metric& m : kEndToEnd) {
    report.set(m.name, m.unit, values.at(m.name), notes[m.name]);
  }

  JsonValue& d = report.detail();
  d.set("run", run_info(opt));
  JsonValue host = JsonValue::object();
  host.set("setup_s", to_json(setups));
  host.set("ops_per_s", to_json(rates));
  host.set("wall_s", to_json(walls));
  d.set("host", std::move(host));
  JsonValue per_instance = JsonValue::array();
  for (const auto& f : virt) per_instance.push(to_json(f));
  d.set("virtual_instances", std::move(per_instance));
  JsonValue tails = JsonValue::object();
  for (const auto& [k, v] : notes) tails.set(k, v);
  d.set("tail_percentiles", std::move(tails));
  d.set("virtual", to_json(virt.front()));
  return report.finish();
}

/// Alternating untraced and traced jobs for `seconds`, the layer probes,
/// then the per-layer metrics.
int run_traced(const Options& opt) {
  Report report(opt);
  warm_up(opt);
  const double started = wall_seconds();
  std::optional<JobResult> traced;
  std::vector<double> plain_cpu;
  std::vector<double> traced_cpu;
  std::vector<double> ns_per_event;
  std::vector<double> walls;
  do {
    JobResult plain = run_job(opt.workload, opt.seed, false);
    report.add_job(plain, "untraced job", 0);
    plain_cpu.push_back(plain.total_cpu_s);
    walls.push_back(plain.wall_s);
    ns_per_event.push_back(plain.total_cpu_s * 1e9 /
                           static_cast<double>(plain.events));
    JobResult t = run_job(opt.workload, opt.seed, true);
    report.add_job(t, "traced job", 0);
    traced_cpu.push_back(t.total_cpu_s);
    if (!traced) traced = std::move(t);
  } while (wall_seconds() - started < opt.seconds);
  const std::map<std::string, double> probes = run_probes(5);

  const JobResult& r = *traced;
  std::filesystem::create_directories(opt.out_dir);
  const std::string trace_path = opt.out_dir + "/" + opt.workload + "_seed" +
                                 std::to_string(opt.seed) + ".trace.json";
  write_chrome_trace(trace_path, r);

  std::map<std::string, std::optional<double>> values;
  for (const auto& [k, v] : r.layer) values[k] = v;
  for (const auto& [k, v] : r.traced_layer) values[k] = v;
  for (const auto& [k, v] : probes) values[k] = v;
  values["sim.ns_per_event"] = median(ns_per_event);
  values["host.wall_s"] = median(walls);
  values["host.rss_kb_per_pe"] =
      static_cast<double>(peak_rss_kb()) / static_cast<double>(r.pes);
  values["host.trace_overhead_pct"] =
      100.0 * (median(traced_cpu) / median(plain_cpu) - 1.0);
  std::map<std::string, std::string> notes;
  auto latency = [&](const char* layer, Op op) {
    const Summary s = summarize(r.latency[static_cast<std::size_t>(op)], 1e3);
    const std::string base = std::string(layer) + "." + op_name(op);
    if (s.n == 0) return;
    values[base + "_p50_us"] = s.p50;
    values[base + "_tail_us"] = s.tail;
    notes[base + "_tail_us"] = tail_note(s.n, "calls");
  };
  for (Op op : {Op::kPut, Op::kGet, Op::kAmo, Op::kFcollect, Op::kReduce,
                Op::kBarrier}) {
    latency("shmem", op);
  }
  latency("mpi", Op::kAllreduce);

  std::printf("%s, seed %llu, traced: %zu traced + %zu untraced jobs of %u "
              "PEs, %zu spans\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              traced_cpu.size(), plain_cpu.size(), r.pes, r.spans.size());
  for (const Metric& m : kPerLayer) {
    auto it = values.find(m.name);
    report.set(m.name, m.unit,
               it == values.end() ? std::nullopt : it->second,
               notes.count(m.name) ? notes[m.name] : std::string{});
  }

  JsonValue& d = report.detail();
  d.set("run", run_info(opt));
  d.set("chrome_trace", trace_path);
  std::map<std::string, double> all;
  for (const auto& [k, v] : values) {
    if (v) all[k] = *v;
  }
  d.set("layers", to_json(all));
  JsonValue host = JsonValue::object();
  host.set("untraced_cpu_s", to_json(plain_cpu));
  host.set("traced_cpu_s", to_json(traced_cpu));
  d.set("host", std::move(host));
  d.set("virtual", to_json(fingerprint(r)));
  return report.finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed job memory in the process heap. Otherwise glibc's adaptive
  // mmap threshold decides, job by job, whether a job's heaps and tables
  // are fresh pages to fault in or the previous job's memory, and set-up
  // time jumps between the two.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  try {
    const perfbench::Options opt = perfbench::parse(argc, argv);
    return opt.trace ? perfbench::run_traced(opt)
                     : perfbench::run_end_to_end(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
