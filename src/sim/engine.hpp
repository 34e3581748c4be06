// Deterministic discrete-event engine.
//
// The engine owns a priority queue of (time, tie) events and a virtual
// clock. By default events scheduled for the same time fire in insertion
// order, which makes every simulation run bit-for-bit reproducible.
// Coroutine tasks suspend by scheduling their own resumption as events (see
// `delay`, `sync.hpp`). An event is a small trivially copyable record: most
// carry the coroutine handle to resume; the few real callbacks live in a
// free-listed closure slab and the event names their slot. The queue is a
// flat 4-ary min-heap of these 24-byte records.
//
// Schedule perturbation: a `SchedulePolicy` with the seeded-shuffle tie-break
// dispatches same-time events in a deterministically permuted order instead,
// and can add bounded deterministic latency jitter to future events. One
// insertion-order run explores exactly one interleaving of the simulated
// protocols; sweeping tie-break seeds turns the same workload into a
// concurrency explorer (see `check::torture`). Every permutation is a pure
// function of `(policy.seed, event sequence number)`, so a failing schedule
// replays bit-identically from the same policy.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// How the engine orders events that share a virtual timestamp, and whether
/// it perturbs event latency. The default reproduces the historical
/// insertion-order dispatch bit-for-bit.
struct SchedulePolicy {
  enum class TieBreak : std::uint8_t {
    /// Same-time events fire in insertion order (the historical behavior).
    kInsertion = 0,
    /// Same-time events fire in an order permuted by a stateless hash of
    /// `(seed, sequence number)` — deterministic and fully replayable, but a
    /// different interleaving per seed.
    kSeededShuffle = 1,
  };
  TieBreak tie_break = TieBreak::kInsertion;
  std::uint64_t seed = 1;
  /// Upper bound (inclusive) on deterministic extra latency added to events
  /// scheduled strictly in the future (t > now); events at the current time
  /// — task spawns, gate wakeups — are never delayed, only permuted. 0
  /// disables jitter. Applies in either tie-break mode.
  Time jitter_max = 0;

  [[nodiscard]] bool perturbs() const noexcept {
    return tie_break != TieBreak::kInsertion || jitter_max != 0;
  }
};

/// Single-threaded discrete-event scheduler with a virtual clock.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Install the tie-break/jitter policy. Applies to events scheduled from
  /// now on (already-queued events keep their keys); install before running
  /// for a coherent, replayable schedule.
  void set_schedule_policy(const SchedulePolicy& policy) noexcept {
    policy_ = policy;
  }
  [[nodiscard]] const SchedulePolicy& schedule_policy() const noexcept {
    return policy_;
  }

  /// Schedule `fn` to run at absolute virtual time `t` (>= now()).
  void schedule_at(Time t, std::function<void()> fn);

  /// Schedule `handle` to be resumed at absolute virtual time `t`
  /// (>= now()). Keyed exactly like `schedule_at`, without a closure.
  void schedule_resume(Time t, std::coroutine_handle<> handle) {
    Event event = stamp(t);
    event.target = reinterpret_cast<std::uintptr_t>(handle.address());
    push(event);
  }

  /// Schedule `fn` to run `dt` nanoseconds from now.
  void schedule_after(Time dt, std::function<void()> fn) {
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Awaitable that suspends the calling task for `dt` virtual nanoseconds.
  ///
  ///   co_await engine.delay(5 * usec);
  [[nodiscard]] auto delay(Time dt) {
    struct Awaiter {
      Engine& engine;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        engine.schedule_resume(engine.now() + dt, handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, dt};
  }

  /// Launch a detached root task. The engine assumes ownership of the
  /// coroutine frame; the task starts when the event queue reaches the
  /// current time. `run()` returns only after all root tasks finish.
  void spawn(Task<> task);

  /// Run until the event queue drains. Rethrows the first exception that
  /// escaped a root task. Throws `std::runtime_error` if root tasks remain
  /// unfinished when the queue empties (deadlock in the simulated system).
  void run();

  /// Run until the event queue drains, without the root-task completion
  /// check. Useful for tests that intentionally leave tasks blocked.
  void drain();

  /// Number of root tasks spawned and not yet finished.
  [[nodiscard]] std::size_t live_root_tasks() const noexcept {
    return live_roots_;
  }

  /// Total events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

  /// Closures scheduled and not yet run (diagnostic).
  [[nodiscard]] std::size_t closures_pending() const noexcept {
    return closures_.size() - free_slots_.size();
  }

 private:
  friend void detail::finish_root(Engine&, std::exception_ptr) noexcept;

  /// One queued event. `target` is the address of the coroutine frame to
  /// resume, or `(slot << 1) | 1` for the closure in `closures_[slot]`
  /// (frames are at least 2-aligned, so the low bit is free).
  ///
  /// `(time, tie)` is unique, so it alone fixes the dispatch order and no
  /// sequence number is stored: in insertion mode `tie` is the sequence
  /// number itself, and in shuffle mode it is `mix_seeded(seed, seq)`, a
  /// bijection of the sequence number (see engine.cpp). Jitter moves
  /// `time` only.
  struct Event {
    Time time;
    std::uint64_t tie;
    std::uintptr_t target;

    [[nodiscard]] bool before(const Event& other) const noexcept {
      return time != other.time ? time < other.time : tie < other.tie;
    }
  };
  static_assert(sizeof(Event) == 24);

  /// Validate `t`, consume one sequence number and apply the policy's
  /// tie-break and jitter: the key of a new event, closure or resume.
  Event stamp(Time t);
  void push(const Event& event);
  Event pop();
  void run_loop();

  /// 4-ary min-heap on `Event::before`: the children of `i` are
  /// `4i + 1 … 4i + 4`.
  std::vector<Event> heap_{};
  std::vector<std::function<void()>> closures_{};
  std::vector<std::uint32_t> free_slots_{};
  SchedulePolicy policy_{};
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::size_t live_roots_ = 0;
  std::exception_ptr root_exception_{};
};

/// Spawn a value-returning task as a detached root, discarding its result.
/// Useful for fire-and-forget operations (e.g. non-blocking puts) whose
/// completion the engine must still wait for.
template <typename T>
void spawn_discard(Engine& engine, Task<T> task) {
  engine.spawn([](Task<T> inner) -> Task<> {
    (void)co_await std::move(inner);
  }(std::move(task)));
}

}  // namespace odcm::sim
