#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace odcm::sim {

namespace {

// Stateless SplitMix64-style finalizer over (seed, seq): the permutation and
// jitter of every event are pure functions of the policy and the event's
// sequence number, so a perturbed schedule replays bit-identically and is
// independent of queue contents at scheduling time. For a fixed seed it is a
// bijection of `seq`: an affine step with an odd multiplier, then
// xorshift and odd-multiply rounds, each invertible mod 2^64. Distinct
// sequence numbers therefore never share a tie.
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
  return Event{t, tie, 0};
}

void Engine::push(const Event& event) {
  std::size_t i = heap_.size();
  heap_.push_back(event);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!event.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = event;
}

Engine::Event Engine::pop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t least = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_[c].before(heap_[least])) least = c;
    }
    if (!heap_[least].before(last)) break;
    heap_[i] = heap_[least];
    i = least;
  }
  if (n > 0) heap_[i] = last;
  return top;
}

void Engine::schedule_at(Time t, std::function<void()> fn) {
  Event event = stamp(t);  // throws before a slot is claimed
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    closures_[slot] = std::move(fn);
  }
  event.target = (std::uintptr_t{slot} << 1) | 1;
  push(event);
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
  while (!heap_.empty()) {
    const Event event = pop();
    now_ = event.time;
    ++events_executed_;
    if ((event.target & 1) == 0) {
      std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(event.target))
          .resume();
    } else {
      // Move the callable out and free its slot first: it may schedule
      // further closures, which can then reuse the slot.
      const auto slot = static_cast<std::uint32_t>(event.target >> 1);
      std::function<void()> fn = std::move(closures_[slot]);
      free_slots_.push_back(slot);
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
