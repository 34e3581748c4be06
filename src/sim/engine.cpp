#include "sim/engine.hpp"

#include <utility>

namespace odcm::sim {

namespace {

// Stateless SplitMix64-style finalizer over (seed, seq): the permutation and
// jitter of every event are pure functions of the policy and the event's
// sequence number, so a perturbed schedule replays bit-identically and is
// independent of queue contents at scheduling time.
std::uint64_t mix_seeded(std::uint64_t seed, std::uint64_t seq) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (seq + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Distinct stream for the latency jitter so tie order and jitter are
// independent draws.
constexpr std::uint64_t kJitterSalt = 0x6a09e667f3bcc909ULL;

}  // namespace

Engine::Event Engine::stamp(Time t) {
  if (t < now_) {
    throw std::logic_error("Engine::schedule_at: time is in the past");
  }
  const std::uint64_t seq = next_seq_++;
  std::uint64_t tie = seq;
  if (policy_.tie_break == SchedulePolicy::TieBreak::kSeededShuffle) {
    tie = mix_seeded(policy_.seed, seq);
  }
  if (policy_.jitter_max > 0 && t > now_) {
    // Bounded extra latency on future events only: same-time wakeups (gate
    // opens, task spawns) keep their timestamp so zero-latency semantics
    // survive; they are still permuted by the tie-break.
    t += static_cast<Time>(
        mix_seeded(policy_.seed ^ kJitterSalt, seq) %
        (static_cast<std::uint64_t>(policy_.jitter_max) + 1));
  }
  return Event{t, tie, seq, nullptr, 0};
}

void Engine::schedule_at(Time t, std::function<void()> fn) {
  Event event = stamp(t);  // throws before a slot is claimed
  if (free_slots_.empty()) {
    event.slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    event.slot = free_slots_.back();
    free_slots_.pop_back();
    closures_[event.slot] = std::move(fn);
  }
  queue_.push(event);
}

void Engine::spawn(Task<> task) {
  if (!task.valid()) {
    throw std::logic_error("Engine::spawn: empty task");
  }
  auto handle = task.release();
  handle.promise().detached_engine = this;
  ++live_roots_;
  schedule_resume(now_, handle);
}

void Engine::run_loop() {
  while (!queue_.empty()) {
    const Event event = queue_.top();
    queue_.pop();
    now_ = event.time;
    ++events_executed_;
    if (event.handle) {
      event.handle.resume();
    } else {
      // Move the callable out and free its slot first: it may schedule
      // further closures, which can then reuse the slot.
      std::function<void()> fn = std::move(closures_[event.slot]);
      free_slots_.push_back(event.slot);
      fn();
    }
    if (root_exception_) {
      std::exception_ptr exception = std::exchange(root_exception_, nullptr);
      std::rethrow_exception(exception);
    }
  }
}

void Engine::run() {
  run_loop();
  if (live_roots_ != 0) {
    throw std::runtime_error(
        "Engine::run: event queue drained with root tasks still blocked "
        "(simulated deadlock)");
  }
}

void Engine::drain() { run_loop(); }

namespace detail {

void finish_root(Engine& engine, std::exception_ptr exception) noexcept {
  --engine.live_roots_;
  if (exception && !engine.root_exception_) {
    engine.root_exception_ = exception;
  }
}

}  // namespace detail

}  // namespace odcm::sim
