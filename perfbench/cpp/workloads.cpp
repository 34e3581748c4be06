// The three workloads and the job harness that runs them.
//
// Every workload runs one complete simulated job: construct, launch every PE
// with a seeded skew, start_pes, the workload's program, finalize. Each PE
// makes its calls back to back, each blocking until it completes (closed
// loop). Each call into shmem or mpi goes through `Ctx::timed`, which records
// its virtual latency (and, in a traced job, a span) and counts a throw as a
// failure. Output checks count as failures too.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "fabric/reg/registration_cache.hpp"
#include "mpi/mpi.hpp"
#include "shmem/job.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

using odcm::mpi::MpiComm;
using odcm::shmem::ReduceOp;
using odcm::shmem::ShmemJob;
using odcm::shmem::ShmemPe;
using odcm::shmem::SymAddr;
using odcm::sim::Task;
namespace sim = odcm::sim;

/// Stateless 64-bit hash of up to four values: each value is folded into
/// the SplitMix64 finalizer of the previous ones, so no two seeds merely
/// permute the values of the others.
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
                  std::uint64_t d = 0) {
  std::uint64_t z = 0;
  for (std::uint64_t v : {a, b, c, d}) {
    z = (z ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return z;
}

/// Processes of a real job reach start_pes at different times; every
/// workload launches PE r after a seeded delay in [0, kLaunchSkew).
constexpr Time kLaunchSkew = 1 * sim::msec;

/// Host CPU time and event count at the moments the first and the last PE
/// reached a point.
struct Mark {
  std::uint32_t arrived = 0;
  double first_cpu = 0;
  std::uint64_t first_events = 0;
  double cpu = 0;
  std::uint64_t events = 0;
};

/// One stretch of the steady phase: the workloads split it into segments
/// of equal work, and each gives one host-rate sample.
struct Segment {
  Mark begin;
  Mark end;
  std::uint64_t ops = 0;  ///< Pooled calls made inside it.
};

/// Per-job context shared by all PE programs.
class Ctx {
 public:
  Ctx(sim::Engine& engine, ShmemJob& job, JobResult& result, bool traced,
      std::vector<std::unique_ptr<MpiComm>>& comms)
      : engine(engine),
        job(job),
        result(result),
        traced(traced),
        comms(comms),
        steady_(job.n_pes()) {}

  sim::Engine& engine;
  ShmemJob& job;
  JobResult& result;
  bool traced;
  std::vector<std::unique_ptr<MpiComm>>& comms;
  Mark setup{};
  std::vector<Segment> segments;

  [[nodiscard]] std::uint32_t pes() const { return job.n_pes(); }

  /// Awaits `call`, records it as one call of kind `op` (latency sample
  /// when `measured`, span when tracing) and counts a throw as a failure.
  Task<bool> timed(Op op, RankId pe, RankId peer, bool measured, Task<> call) {
    const Time start = engine.now();
    bool ok = true;
    try {
      co_await std::move(call);
    } catch (const std::exception& e) {
      ok = false;
      fail(std::string(op_name(op)) + " on PE " + std::to_string(pe) +
           " threw: " + e.what());
    }
    record(op, pe, peer, start, measured);
    co_return ok;
  }

  /// Same for a call returning a value; nullopt when it threw.
  template <typename T>
  Task<std::optional<T>> timed_value(Op op, RankId pe, RankId peer,
                                     bool measured, Task<T> call) {
    const Time start = engine.now();
    std::optional<T> value;
    try {
      value = co_await std::move(call);
    } catch (const std::exception& e) {
      fail(std::string(op_name(op)) + " on PE " + std::to_string(pe) +
           " threw: " + e.what());
    }
    record(op, pe, peer, start, measured);
    co_return value;
  }

  void fail(std::string what) {
    ++result.failed;
    if (result.failures.size() < 8) result.failures.push_back(std::move(what));
  }

  /// Count an output check; a mismatch is a failure.
  void check(bool ok, const char* what, RankId pe) {
    if (!ok) fail(std::string(what) + " wrong on PE " + std::to_string(pe));
  }

  void arrive(Mark& mark) {
    if (mark.arrived++ == 0) {
      mark.first_cpu = cpu_seconds();
      mark.first_events = engine.events_executed();
    }
    if (mark.arrived == pes()) {
      mark.cpu = cpu_seconds();
      mark.events = engine.events_executed();
    }
  }

  /// PE `pe` enters / leaves segment `seg` of the steady phase: host marks
  /// plus per-PE counter snapshots (first entry to last exit) for the
  /// per-op layer ratios.
  void steady_begin(ShmemPe& pe, std::size_t seg = 0) {
    if (segments.size() <= seg) segments.resize(seg + 1);
    arrive(segments[seg].begin);
    steady_[pe.rank()].segment = seg;
    if (seg == 0) steady_[pe.rank()].am_begin = pe.stats().counter("am_sent");
  }
  void steady_end(ShmemPe& pe, std::size_t seg = 0) {
    arrive(segments[seg].end);
    steady_[pe.rank()].am_end = pe.stats().counter("am_sent");
    steady_[pe.rank()].pmi_end = pmi_time(pe);
  }

  [[nodiscard]] double steady_am_sent() const {
    double total = 0;
    for (const auto& s : steady_) {
      total += static_cast<double>(s.am_end - s.am_begin);
    }
    return total;
  }
  /// PMI time accrued after each PE's first measured call returned (the
  /// first call may still wait for the PMIX_Iallgather of set-up).
  [[nodiscard]] Time pmi_time_after_first_call() const {
    Time total = 0;
    for (const auto& s : steady_) total += s.pmi_end - s.pmi_first;
    return total;
  }

  static Time pmi_time(ShmemPe& pe) {
    return pe.stats().phase_time("pmi_exchange") +
           pe.stats().phase_time("pmi_wait");
  }

 private:
  void record(Op op, RankId pe, RankId peer, Time start, bool measured) {
    ++result.attempted;
    const Time now = engine.now();
    if (measured) {
      result.latency[static_cast<std::size_t>(op)].push_back(now - start);
      if (std::find(result.pooled_ops.begin(), result.pooled_ops.end(), op) !=
          result.pooled_ops.end()) {
        result.pooled.push_back(now - start);
        result.pe_pooled_ns[pe] += now - start;
        ++result.pe_pooled_calls[pe];
        ++result.steady_ops;
        SteadySnapshot& s = steady_[pe];
        ++segments[s.segment].ops;
        if (!s.first_call_done) {
          s.first_call_done = true;
          s.pmi_first = pmi_time(job.pe(pe));
        }
      }
    }
    if (traced) {
      result.spans.push_back(
          Span{op_layer(op), op_name(op), pe, peer, next_op_id_++, start, now});
    }
  }

  struct SteadySnapshot {
    std::size_t segment = 0;
    std::int64_t am_begin = 0;
    std::int64_t am_end = 0;
    bool first_call_done = false;
    Time pmi_first = 0;
    Time pmi_end = 0;
  };
  std::vector<SteadySnapshot> steady_;
  std::uint64_t next_op_id_ = 0;
};

/// A workload's per-PE program plus its post-run output checks.
class Program {
 public:
  virtual ~Program() = default;
  /// Runs between start_pes and finalize on every PE.
  virtual Task<> run(Ctx& ctx, ShmemPe& pe) = 0;
  /// Checks the final heap contents once the job has ended.
  virtual void check(Ctx& /*ctx*/) {}
};

std::span<const std::byte> bytes_of(const std::vector<std::uint64_t>& v) {
  return std::as_bytes(std::span<const std::uint64_t>(v));
}

// ---------------------------------------------------------------- startup

/// Fig 5's scale: every PE makes four first-contact 8-byte puts to seeded
/// PEs on other nodes, so each put pays an on-demand handshake.
class Startup final : public Program {
 public:
  static constexpr std::uint32_t kPuts = 4;

  Startup(std::uint64_t seed, std::uint32_t pes, std::uint32_t ppn)
      : seed_(seed), targets_(pes) {
    for (RankId s = 0; s < pes; ++s) {
      sim::Rng rng(mix(seed, 0x57a7, s));
      auto& mine = targets_[s];
      while (mine.size() < kPuts) {
        const auto t = static_cast<RankId>(rng.next_below(pes));
        if (t / ppn != s / ppn &&
            std::find(mine.begin(), mine.end(), t) == mine.end()) {
          mine.push_back(t);
        }
      }
    }
  }

  Task<> run(Ctx& ctx, ShmemPe& pe) override {
    const RankId me = pe.rank();
    slots_ = pe.heap().allocate(std::uint64_t{ctx.pes()} * 8);
    ctx.steady_begin(pe);
    for (RankId t : targets_[me]) {
      co_await ctx.timed(Op::kPut, me, t, true,
                         pe.put_value<std::uint64_t>(t, slots_ + 8ULL * me,
                                                     value(me, t)));
    }
    co_await ctx.timed(Op::kBarrier, me, me, true, pe.barrier_all());
    ctx.steady_end(pe);
  }

  /// Every put landed in its slot, and no other slot was written.
  void check(Ctx& ctx) override {
    const std::uint32_t n = ctx.pes();
    std::vector<std::vector<RankId>> sources(n);
    for (RankId s = 0; s < n; ++s) {
      for (RankId t : targets_[s]) sources[t].push_back(s);
    }
    std::vector<std::uint64_t> expect(n);
    for (RankId t = 0; t < n; ++t) {
      std::fill(expect.begin(), expect.end(), 0);
      for (RankId s : sources[t]) expect[s] = value(s, t);
      auto window = ctx.job.pe(t).local_window(slots_, 8ULL * n);
      ctx.check(std::memcmp(window.data(), expect.data(), window.size()) == 0,
                "put slots", t);
    }
  }

 private:
  [[nodiscard]] std::uint64_t value(RankId s, RankId t) const {
    return mix(seed_, s, t) | 1;
  }

  std::uint64_t seed_;
  std::vector<std::vector<RankId>> targets_;
  SymAddr slots_ = 0;
};

// ------------------------------------------------------------ collectives

/// Fig 7's shape: rounds of fcollect, reduce, barrier and MPI allreduce
/// over one shared conduit, every result checked.
class Collectives final : public Program {
 public:
  static constexpr std::uint32_t kBlockWords = 64;    // 512 B fcollect blocks
  static constexpr std::uint32_t kReduceElems = 512;  // 4 KiB int64 reductions
  static constexpr std::uint32_t kRounds = 4;         // measured, after warm-up

  explicit Collectives(std::uint64_t seed) : seed_(seed) {}

  Task<> run(Ctx& ctx, ShmemPe& pe) override {
    const RankId me = pe.rank();
    const std::uint32_t n = ctx.pes();
    const std::uint32_t block = kBlockWords * 8;
    const SymAddr src = pe.heap().allocate(block);
    const SymAddr dest = pe.heap().allocate(std::uint64_t{block} * n);
    const SymAddr rsrc = pe.heap().allocate(kReduceElems * 8);
    const SymAddr rdst = pe.heap().allocate(kReduceElems * 8);
    MpiComm& comm = *ctx.comms[me];
    std::vector<std::uint64_t> words(kBlockWords);
    std::vector<std::int64_t> values(kReduceElems);

    for (std::uint32_t round = 0; round <= kRounds; ++round) {
      const bool measured = round > 0;
      if (measured) ctx.steady_begin(pe, round - 1);
      const Expected& want = expected(round, n);

      for (std::uint32_t w = 0; w < kBlockWords; ++w) {
        words[w] = block_word(me, round, w);
      }
      std::memcpy(pe.local_window(src, block).data(), words.data(), block);
      co_await ctx.timed(Op::kFcollect, me, me, measured,
                         pe.fcollect(dest, src, block));
      ctx.check(std::memcmp(pe.local_window(dest, want.fcollect.size() * 8)
                                .data(),
                            want.fcollect.data(), want.fcollect.size() * 8) ==
                    0,
                "fcollect", me);

      for (std::uint32_t e = 0; e < kReduceElems; ++e) {
        values[e] = element(0x5eed, me, round, e);
      }
      std::memcpy(pe.local_window(rsrc, kReduceElems * 8).data(),
                  values.data(), kReduceElems * 8);
      co_await ctx.timed(Op::kReduce, me, me, measured,
                         pe.reduce<std::int64_t>(rdst, rsrc, kReduceElems,
                                                 ReduceOp::kSum));
      ctx.check(std::memcmp(pe.local_window(rdst, kReduceElems * 8).data(),
                            want.reduce.data(), kReduceElems * 8) == 0,
                "reduce", me);

      co_await ctx.timed(Op::kBarrier, me, me, measured, pe.barrier_all());

      for (std::uint32_t e = 0; e < kReduceElems; ++e) {
        values[e] = element(0x3b1, me, round, e);
      }
      co_await ctx.timed(Op::kAllreduce, me, me, measured,
                         comm.allreduce<std::int64_t>(values, ReduceOp::kSum));
      ctx.check(values == want.allreduce, "allreduce", me);
      if (measured) ctx.steady_end(pe, round - 1);
    }
  }

 private:
  struct Expected {
    std::vector<std::uint64_t> fcollect;
    std::vector<std::int64_t> reduce;
    std::vector<std::int64_t> allreduce;
  };

  [[nodiscard]] std::uint64_t block_word(RankId pe, std::uint32_t round,
                                         std::uint32_t w) const {
    return mix(seed_, pe, round, w);
  }
  [[nodiscard]] std::int64_t element(std::uint64_t salt, RankId pe,
                                     std::uint32_t round,
                                     std::uint32_t e) const {
    return static_cast<std::int64_t>(mix(seed_ ^ salt, pe, round, e) >> 24);
  }

  /// The correct results of `round`, computed once per job.
  const Expected& expected(std::uint32_t round, std::uint32_t n) {
    auto it = expected_.find(round);
    if (it != expected_.end()) return it->second;
    Expected want;
    want.fcollect.resize(std::uint64_t{n} * kBlockWords);
    want.reduce.assign(kReduceElems, 0);
    want.allreduce.assign(kReduceElems, 0);
    for (RankId q = 0; q < n; ++q) {
      for (std::uint32_t w = 0; w < kBlockWords; ++w) {
        want.fcollect[std::uint64_t{q} * kBlockWords + w] =
            block_word(q, round, w);
      }
      for (std::uint32_t e = 0; e < kReduceElems; ++e) {
        want.reduce[e] += element(0x5eed, q, round, e);
        want.allreduce[e] += element(0x3b1, q, round, e);
      }
    }
    return expected_.emplace(round, std::move(want)).first->second;
  }

  std::uint64_t seed_;
  std::map<std::uint32_t, Expected> expected_;
};

// -------------------------------------------------------------- rma_churn

/// A seeded stream of blocking RMA under a connection cap, on-demand
/// registration and protocol tiers: eviction, re-handshake, registration
/// faults, pipelined and rendezvous transfers and credit flow stay busy.
class RmaChurn final : public Program {
 public:
  static constexpr std::uint32_t kRounds = 12;
  static constexpr std::uint32_t kOpsPerRound = 32;
  static constexpr std::uint32_t kHotPeers = 16;
  static constexpr std::uint64_t kCounterSlots = 1024;
  static constexpr std::uint64_t kRegionBytes = 384 << 10;
  static constexpr std::uint64_t kHotBytes = 32 << 10;
  static constexpr std::uint32_t kReduceElems = 4;

  RmaChurn(std::uint64_t seed, std::uint32_t pes)
      : seed_(seed), puts_to_(pes), amos_to_(pes) {}

  Task<> run(Ctx& ctx, ShmemPe& pe) override {
    const RankId me = pe.rank();
    const std::uint32_t n = ctx.pes();
    counters_ = pe.heap().allocate(kCounterSlots * 8);
    put_region_ = pe.heap().allocate(kRegionBytes, 64);
    get_region_ = pe.heap().allocate(kRegionBytes, 64);
    const SymAddr rsrc = pe.heap().allocate(kReduceElems * 8);
    const SymAddr rdst = pe.heap().allocate(kReduceElems * 8);

    // The get region holds a pattern every reader can recompute.
    auto region = pe.local_window(get_region_, kRegionBytes);
    for (std::uint64_t o = 0; o < kRegionBytes; o += 8) {
      const std::uint64_t word = get_word(me, o);
      std::memcpy(region.data() + o, &word, 8);
    }

    // Hot sets form a fixed circulant graph, like an application's static
    // communication pattern: PE r's hot peers are r + 1 + j(n-1)/16 (mod
    // n), so every PE is also the hot peer of exactly 16 others. The seed
    // varies the op stream, not the pattern.
    std::vector<RankId> hot;
    for (std::uint32_t j = 0; j < kHotPeers; ++j) {
      hot.push_back(
          static_cast<RankId>((me + 1 + j * (n - 1) / kHotPeers) % n));
    }
    sim::Rng rng(mix(seed_, 0xc4a3, me));

    co_await ctx.timed(Op::kBarrier, me, me, false, pe.barrier_all());
    ctx.steady_begin(pe);
    std::vector<std::uint64_t> data;
    std::vector<std::byte> buffer;
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      for (std::uint32_t i = 0; i < kOpsPerRound; ++i) {
        RankId target = hot[rng.next_below(kHotPeers)];
        if (rng.chance(0.1)) {
          do {
            target = static_cast<RankId>(rng.next_below(n));
          } while (target == me);
        }
        const std::uint64_t kind = rng.next_below(4);  // 0-1 amo, 2 put, 3 get
        if (kind < 2) {
          const std::uint64_t slot = rng.next_below(kCounterSlots);
          const std::uint64_t add = 1 + rng.next_below(1000);
          auto old = co_await ctx.timed_value(
              Op::kAmo, me, target, true,
              pe.atomic_fetch_add(target, counters_ + 8 * slot, add));
          if (old) amos_to_[target].push_back({slot, *old, add});
          continue;
        }
        const double u = rng.next_double();
        const std::uint64_t len =
            u < 0.85 ? 64 : (u < 0.95 ? 16 << 10 : 64 << 10);
        // Small transfers stay in a hot head of the region; large ones
        // stream over all of it, so registration misses come mostly from
        // the bulk traffic, as with real metadata/bulk mixes.
        const std::uint64_t span = len == 64 ? kHotBytes : kRegionBytes;
        const std::uint64_t off = rng.next_below((span - len) / 64 + 1) * 64;
        if (kind == 2) {
          data.resize(len / 8);
          for (std::uint64_t w = 0; w < len / 8; ++w) {
            data[w] = put_word(target, off + 8 * w);
          }
          co_await ctx.timed(Op::kPut, me, target, true,
                             pe.put(target, put_region_ + off, bytes_of(data)));
          puts_to_[target].push_back({off, len});
        } else {
          buffer.assign(len, std::byte{0});
          const bool ok = co_await ctx.timed(
              Op::kGet, me, target, true,
              pe.get(target, get_region_ + off, buffer));
          if (ok) ctx.check(holds_get_pattern(buffer, target, off), "get", me);
        }
      }
      const std::int64_t contrib[kReduceElems] = {1, me, round, 7};
      std::memcpy(pe.local_window(rsrc, sizeof contrib).data(), contrib,
                  sizeof contrib);
      co_await ctx.timed(Op::kReduce, me, me, true,
                         pe.reduce<std::int64_t>(rdst, rsrc, kReduceElems,
                                                 ReduceOp::kSum));
      const std::int64_t pes = n;
      const std::int64_t want[kReduceElems] = {pes, pes * (pes - 1) / 2,
                                               pes * round, pes * 7};
      ctx.check(std::memcmp(pe.local_window(rdst, sizeof want).data(), want,
                            sizeof want) == 0,
                "reduce", me);
    }
    ctx.steady_end(pe);
    co_await ctx.timed(Op::kBarrier, me, me, true, pe.barrier_all());
  }

  /// Counters add up: on every slot the fetched old values chain from 0 by
  /// the adds, and the final value is the chain's end. Put ranges hold the
  /// target's pattern; bytes no put covered are still zero.
  void check(Ctx& ctx) override {
    const std::uint32_t n = ctx.pes();
    for (RankId t = 0; t < n; ++t) {
      ShmemPe& pe = ctx.job.pe(t);
      auto& amos = amos_to_[t];
      std::sort(amos.begin(), amos.end(), [](const Amo& a, const Amo& b) {
        return a.slot != b.slot ? a.slot < b.slot : a.old < b.old;
      });
      std::vector<std::uint64_t> sum(kCounterSlots, 0);
      for (const Amo& a : amos) {
        ctx.check(a.old == sum[a.slot], "atomic_fetch_add", t);
        sum[a.slot] = a.old + a.add;
      }
      auto counters = pe.local_window(counters_, kCounterSlots * 8);
      ctx.check(std::memcmp(counters.data(), sum.data(), counters.size()) == 0,
                "counter totals", t);

      auto region = pe.local_window(put_region_, kRegionBytes);
      std::vector<bool> covered(kRegionBytes / 8, false);
      for (const auto& [off, len] : puts_to_[t]) {
        bool ok = true;
        for (std::uint64_t o = off; o < off + len; o += 8) {
          std::uint64_t word = 0;
          std::memcpy(&word, region.data() + o, 8);
          ok = ok && word == put_word(t, o);
          covered[o / 8] = true;
        }
        ctx.check(ok, "put", t);
      }
      bool untouched = true;
      for (std::uint64_t o = 0; o < kRegionBytes; o += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, region.data() + o, 8);
        untouched = untouched && (covered[o / 8] || word == 0);
      }
      ctx.check(untouched, "bytes outside every put", t);
    }
  }

 private:
  struct Amo {
    std::uint64_t slot;
    std::uint64_t old;
    std::uint64_t add;
  };

  // Cheap position-dependent patterns: a misplaced or misdirected byte
  // range reads back as a different word.
  [[nodiscard]] std::uint64_t put_word(RankId pe, std::uint64_t off) const {
    return (((seed_ + pe) * 0x9e3779b97f4a7c15ULL) ^
            ((off + 1) * 0xd6e8feb86659fd93ULL)) |
           1;
  }
  [[nodiscard]] std::uint64_t get_word(RankId pe, std::uint64_t off) const {
    return ((seed_ ^ pe) * 0xbf58476d1ce4e5b9ULL) ^
           ((off + 1) * 0x94d049bb133111ebULL);
  }
  [[nodiscard]] bool holds_get_pattern(const std::vector<std::byte>& buffer,
                                       RankId target,
                                       std::uint64_t off) const {
    for (std::uint64_t o = 0; o < buffer.size(); o += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, buffer.data() + o, 8);
      if (word != get_word(target, off + o)) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> puts_to_;
  std::vector<std::vector<Amo>> amos_to_;
  SymAddr counters_ = 0;
  SymAddr put_region_ = 0;
  SymAddr get_region_ = 0;
};

// -------------------------------------------------------------- registry

struct Definition {
  odcm::shmem::ShmemJobConfig config;
  /// Every setting this benchmark makes, as `name=value`, recorded where
  /// it is made; everything else keeps its default.
  std::vector<std::string> knobs;
  bool with_mpi = false;
  std::uint32_t instances = 1;
  std::vector<Op> pooled_ops;
  std::unique_ptr<Program> program;
};

Definition define(const std::string& name, std::uint64_t seed) {
  Definition def;
  auto& cfg = def.config;
#define PERFBENCH_SET(field, value) \
  (cfg.field = (value), def.knobs.push_back(#field "=" #value))
  PERFBENCH_SET(job.conduit, odcm::core::proposed_design());
  if (name == "startup") {
    // As `paper_job`: 16 PEs per node, 256 MiB modeled heap.
    PERFBENCH_SET(job.ranks, 4096);
    PERFBENCH_SET(job.ranks_per_node, 16);
    PERFBENCH_SET(shmem.heap_bytes, 64 << 10);
    PERFBENCH_SET(shmem.modeled_heap_bytes, 256ULL << 20);
    def.pooled_ops = {Op::kPut};
    def.program = std::make_unique<Startup>(seed, cfg.job.ranks,
                                            cfg.job.ranks_per_node);
  } else if (name == "collectives") {
    PERFBENCH_SET(job.ranks, 512);
    PERFBENCH_SET(job.ranks_per_node, 8);
    PERFBENCH_SET(shmem.heap_bytes, 320 << 10);
    PERFBENCH_SET(shmem.modeled_heap_bytes, 256ULL << 20);
    def.with_mpi = true;
    def.pooled_ops = {Op::kFcollect, Op::kReduce, Op::kBarrier,
                      Op::kAllreduce};
    def.program = std::make_unique<Collectives>(seed);
  } else if (name == "rma_churn") {
    PERFBENCH_SET(job.ranks, 256);
    PERFBENCH_SET(job.ranks_per_node, 8);
    PERFBENCH_SET(job.conduit.max_active_connections, 64);
    PERFBENCH_SET(job.conduit.eager_threshold, 8 << 10);
    PERFBENCH_SET(job.conduit.rendezvous_threshold, 32 << 10);
    PERFBENCH_SET(job.conduit.bulk_chunk_bytes, 16 << 10);
    PERFBENCH_SET(job.conduit.qp_credits, 4);
    PERFBENCH_SET(shmem.registration,
                  odcm::shmem::RegistrationMode::kOnDemand);
    PERFBENCH_SET(shmem.reg_chunk_bytes, 64 << 10);
    PERFBENCH_SET(shmem.reg_pinned_max_bytes, 512 << 10);
    def.pooled_ops = {Op::kAmo, Op::kPut, Op::kGet};
    def.instances = 7;
    def.program = std::make_unique<RmaChurn>(seed, cfg.job.ranks);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
#undef PERFBENCH_SET
  return def;
}

// ----------------------------------------------------- per-layer results

double sum_counter(ShmemJob& job, const std::string& name) {
  double total = 0;
  for (RankId r = 0; r < job.n_pes(); ++r) {
    total += static_cast<double>(job.pe(r).stats().counter(name));
  }
  return total;
}

double mean_phase_ms(ShmemJob& job, const std::string& phase) {
  double total = 0;
  for (RankId r = 0; r < job.n_pes(); ++r) {
    total += static_cast<double>(job.pe(r).stats().phase_time(phase));
  }
  return total / 1e6 / job.n_pes();
}

void fill_layers(JobResult& result, ShmemJob& job, const Ctx& ctx,
                 const std::vector<std::uint64_t>& peers) {
  auto& L = result.layer;
  const double n = job.n_pes();
  const double ops =
      std::max<double>(1, static_cast<double>(result.steady_ops));

  L["sim.events"] = static_cast<double>(result.events);
  L["sim.events_per_op"] = static_cast<double>(result.steady_events) / ops;

  L["pmi.exchange_ms"] =
      mean_phase_ms(job, "pmi_exchange") + mean_phase_ms(job, "pmi_wait");
  L["pmi.after_first_call_ms"] =
      static_cast<double>(ctx.pmi_time_after_first_call()) / 1e6 / n;

  L["fabric.rc_qps"] = sum_counter(job, "qp_created_rc");
  L["fabric.ud_qps"] = sum_counter(job, "qp_created_ud");
  L["fabric.reg.misses"] = sum_counter(job, "reg_chunk_misses");
  L["fabric.reg.evictions"] = sum_counter(job, "reg_evictions");
  double pinned_frac = 0;
  for (RankId r = 0; r < job.n_pes(); ++r) {
    if (auto* cache = job.pe(r).registration_cache()) {
      pinned_frac += static_cast<double>(cache->pinned_highwater()) /
                     static_cast<double>(job.shmem_config().heap_bytes);
    }
  }
  L["fabric.reg.pinned_hw_frac"] = pinned_frac / n;

  L["core.retransmits"] = sum_counter(job, "conn_retransmits");
  L["core.collisions"] = sum_counter(job, "conn_collisions");
  L["core.evictions"] = sum_counter(job, "conn_evictions") +
                        sum_counter(job, "conn_evictions_passive");
  double peer_total = 0;
  for (std::uint64_t p : peers) peer_total += static_cast<double>(p);
  L["core.peers_per_pe"] = peer_total / n;
  L["core.am_per_op"] = ctx.steady_am_sent() / ops;
  L["core.tier_eager"] = sum_counter(job, "bulk_tier_eager");
  L["core.tier_pipelined"] = sum_counter(job, "bulk_tier_pipelined");
  L["core.tier_rendezvous"] = sum_counter(job, "bulk_tier_rendezvous");
  L["core.credit_stalls"] = sum_counter(job, "credit_stalls");
  L["core.credit_stall_us"] = mean_phase_ms(job, "credit_stall_time") * 1e3 * n;
  L["core.rdv_retries"] = sum_counter(job, "rendezvous_retries");

  for (const char* phase :
       {"shared_memory_setup", "memory_registration", "connection_setup",
        "segment_exchange", "init_barrier", "init_other"}) {
    L[std::string("shmem.start_pes.") + phase + "_ms"] =
        mean_phase_ms(job, phase);
  }
}

/// Child spans from the conduit's event stream, on the initiating PE's
/// track: client handshakes, eviction drains, registration faults,
/// RTS→CTS exchanges and credit stalls.
void add_child_spans(JobResult& result,
                     const odcm::telemetry::ConnectionTimeline& timeline) {
  using Kind = odcm::core::ProtocolEvent::Kind;
  auto& spans = result.spans;
  std::vector<Time> handshakes;
  for (const auto& hs : timeline.handshakes()) {
    if (!hs.complete) continue;
    handshakes.push_back(hs.established - hs.start);
    if (hs.role == odcm::core::PeerRole::kClient) {
      spans.push_back(Span{"core", "handshake", hs.self, hs.peer, 0, hs.start,
                           hs.established});
    }
  }
  for (const auto& iv : timeline.intervals()) {
    if (iv.phase == odcm::core::PeerPhase::kDraining) {
      spans.push_back(Span{"core", "eviction_drain", iv.self, iv.peer, 0,
                           iv.start, iv.end});
    }
  }
  std::map<std::tuple<RankId, RankId, std::uint32_t>, Time> faults;
  std::vector<Time> fault_times;
  for (const auto& m : timeline.reg_marks()) {
    const auto key = std::make_tuple(m.self, m.peer, m.chunk);
    if (m.kind == Kind::kRegFault) {
      faults[key] = m.time;
    } else if (m.kind == Kind::kRegFaultServed) {
      auto it = faults.find(key);
      if (it == faults.end()) continue;
      spans.push_back(Span{"fabric", "reg_fault", m.self, m.peer, m.chunk,
                           it->second, m.time});
      fault_times.push_back(m.time - it->second);
      faults.erase(it);
    }
  }
  std::map<std::pair<RankId, std::uint32_t>, std::pair<RankId, Time>> rts;
  for (const auto& m : timeline.bulk_marks()) {
    if (m.kind == Kind::kRtsIssued) {
      rts[{m.self, m.attempt}] = {m.peer, m.time};
    } else if (m.kind == Kind::kCtsIssued) {
      auto it = rts.find({m.peer, m.attempt});
      if (it == rts.end()) continue;
      spans.push_back(Span{"core", "rts_cts", m.peer, m.self, m.attempt,
                           it->second.second, m.time});
      rts.erase(it);
    } else if (m.kind == Kind::kCreditStall) {
      spans.push_back(Span{"core", "credit_stall", m.self, m.peer, 0,
                           m.time - static_cast<Time>(m.detail), m.time});
    }
  }

  auto& T = result.traced_layer;
  std::sort(handshakes.begin(), handshakes.end());
  std::sort(fault_times.begin(), fault_times.end());
  T["core.handshakes"] = static_cast<double>(handshakes.size());
  if (!handshakes.empty()) {
    T["core.handshake_p50_us"] = percentile(handshakes, 50) / 1e3;
    T["core.handshake_tail_us"] =
        percentile(handshakes, tail_percentile(handshakes.size())) / 1e3;
  }
  if (!fault_times.empty()) {
    T["fabric.reg.fault_p50_us"] = percentile(fault_times, 50) / 1e3;
  }
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kStartPes: return "start_pes";
    case Op::kPut: return "put";
    case Op::kGet: return "get";
    case Op::kAmo: return "amo";
    case Op::kFcollect: return "fcollect";
    case Op::kReduce: return "reduce";
    case Op::kBarrier: return "barrier";
    case Op::kAllreduce: return "allreduce";
    case Op::kFinalize: return "finalize";
  }
  return "?";
}

const char* op_layer(Op op) {
  return op == Op::kAllreduce ? "mpi" : "shmem";
}

double tail_percentile(std::size_t n) {
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

std::vector<std::string> workload_knobs(const std::string& name) {
  return define(name, 0).knobs;
}

std::uint32_t workload_instances(const std::string& name) {
  return define(name, 0).instances;
}

JobResult run_job(const std::string& workload, std::uint64_t seed,
                  bool traced, bool setup_only) {
  Definition def = define(workload, seed);
  JobResult result;
  result.pooled_ops = def.pooled_ops;

  const double cpu0 = cpu_seconds();
  const double wall0 = wall_seconds();
  sim::Engine engine;
  // Events due at the same virtual time fire in a seeded order, as their
  // real counterparts race. In insertion order every collectives round
  // would run identically for every seed.
  engine.set_schedule_policy(
      {sim::SchedulePolicy::TieBreak::kSeededShuffle, mix(seed, 0x71e), 0});
  ShmemJob job(engine, def.config);
  const std::uint32_t n = job.n_pes();
  std::vector<std::unique_ptr<MpiComm>> comms;
  if (def.with_mpi) {
    for (RankId r = 0; r < n; ++r) {
      comms.push_back(std::make_unique<MpiComm>(job.conduit_job().conduit(r)));
    }
  }
  std::optional<odcm::telemetry::Telemetry> telemetry;
  if (traced) {
    telemetry.emplace();
    telemetry->attach(job.conduit_job());
  }
  Ctx ctx(engine, job, result, traced, comms);
  result.pes = n;
  result.start_pes.assign(n, 0);
  result.pe_pooled_ns.assign(n, 0);
  result.pe_pooled_calls.assign(n, 0);
  std::vector<std::uint64_t> peers(n, 0);
  Program& program = *def.program;

  job.spawn_all([&](ShmemPe& pe) -> Task<> {
    const RankId me = pe.rank();
    co_await engine.delay(static_cast<Time>(mix(seed, me) % kLaunchSkew));
    const Time t0 = engine.now();
    co_await ctx.timed(Op::kStartPes, me, me, true, pe.start_pes());
    result.start_pes[me] = engine.now() - t0;
    ctx.arrive(ctx.setup);
    if (!setup_only) co_await program.run(ctx, pe);
    peers[me] = pe.communicating_peers();
    co_await ctx.timed(Op::kFinalize, me, me, true, pe.finalize());
  });
  try {
    engine.run();
  } catch (const std::exception& e) {
    ctx.fail(std::string("simulation aborted: ") + e.what());
  }

  result.total_cpu_s = cpu_seconds() - cpu0;
  result.wall_s = wall_seconds() - wall0;
  result.setup_s = ctx.setup.cpu - cpu0;
  // Each window runs from the first PE's entry to the last PE's exit, so
  // it holds all the work of every call counted in it.
  for (const Segment& s : ctx.segments) {
    result.segment_rates.push_back(static_cast<double>(s.ops) /
                                   (s.end.cpu - s.begin.first_cpu));
  }
  if (!ctx.segments.empty()) {
    result.steady_events = ctx.segments.back().end.events -
                           ctx.segments.front().begin.first_events;
  }
  result.makespan = engine.now();
  result.events = engine.events_executed();
  double endpoints = 0;
  for (RankId r = 0; r < n; ++r) {
    endpoints += static_cast<double>(job.pe(r).endpoints_created());
  }
  result.endpoints_per_pe = endpoints / n;
  if (setup_only) return result;

  program.check(ctx);
  fill_layers(result, job, ctx, peers);
  if (traced) {
    telemetry->finish(engine.now());
    add_child_spans(result, telemetry->timeline());
    derive_traced_layers(result);
    telemetry->detach();
  }
  return result;
}

}  // namespace perfbench
