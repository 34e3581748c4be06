// Coroutine synchronization primitives for the discrete-event engine.
//
// All primitives resume waiters through the engine's event queue (never
// inline), so wakeup order is deterministic and independent of which task
// performed the notify.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace odcm::sim {

/// One-shot event. Once opened it stays open; `wait()` after `open()`
/// completes immediately.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  [[nodiscard]] bool is_open() const noexcept { return open_; }

  /// Open the gate and schedule every live waiter for resumption, in the
  /// order they started waiting.
  void open() {
    if (open_) return;
    open_ = true;
    for (const Waiter& waiter : waiters_) {
      if (waiter.timed != nullptr) {
        if (waiter.timed->fired) continue;
        waiter.timed->fired = true;
      }
      engine_->schedule_resume(engine_->now(), waiter.handle);
    }
    waiters_.clear();
    timed_waiters_ = 0;
  }

  /// Awaitable: suspend until the gate opens (no-op if already open).
  [[nodiscard]] auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> handle) {
        gate.add_waiter(Waiter{handle, nullptr});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable: suspend until the gate opens or `timeout` elapses.
  /// `co_await` yields true if the gate opened, false on timeout.
  [[nodiscard]] auto wait_for(Time timeout) {
    struct Awaiter {
      Gate& gate;
      Time timeout;
      std::shared_ptr<TimedState> timed{};
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> handle) {
        // Shared with the timeout event, which may outlive the gate.
        timed = std::make_shared<TimedState>();
        gate.add_waiter(Waiter{handle, timed});
        gate.engine_->schedule_after(timeout, [timed = timed, handle] {
          if (!timed->fired) {
            timed->fired = true;
            timed->timed_out = true;
            handle.resume();
          }
        });
      }
      bool await_resume() const noexcept {
        return timed == nullptr || !timed->timed_out;
      }
    };
    return Awaiter{*this, timeout};
  }

  /// Waiter records held (diagnostic). Timed-out records are dropped when
  /// the next waiter arrives, so a closed gate retried with `wait_for`
  /// holds at most one stale record.
  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  struct TimedState {
    bool fired = false;
    bool timed_out = false;
  };
  /// `timed` is null for a plain `wait()`.
  struct Waiter {
    std::coroutine_handle<> handle;
    std::shared_ptr<TimedState> timed;
  };

  void add_waiter(Waiter waiter) {
    if (timed_waiters_ != 0) {
      timed_waiters_ -= static_cast<std::uint32_t>(
          std::erase_if(waiters_, [](const Waiter& w) {
            return w.timed != nullptr && w.timed->fired;
          }));
    }
    if (waiter.timed != nullptr) ++timed_waiters_;
    waiters_.push_back(std::move(waiter));
  }

  Engine* engine_;
  std::vector<Waiter> waiters_{};
  bool open_ = false;
  /// Records in `waiters_` with `timed` set; shares the padding after
  /// `open_`, so a Gate is no larger than before.
  std::uint32_t timed_waiters_ = 0;
};

/// Multi-shot condition: `notify_all()` wakes every task currently waiting;
/// tasks that wait afterwards block until the next notification.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  void notify_all() {
    std::vector<std::coroutine_handle<>> waiters;
    waiters.swap(waiters_);
    for (auto handle : waiters) {
      engine_->schedule_resume(engine_->now(), handle);
    }
  }

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Trigger& trigger;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        trigger.waiters_.push_back(handle);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_{};
};

/// Unbounded FIFO channel. `pop()` suspends while empty; `push()` wakes the
/// oldest waiter. Used for completion queues, receive queues and daemons.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void push(T item) {
    if (closed_) {
      throw std::logic_error("Mailbox::push: mailbox is closed");
    }
    items_.push_back(std::move(item));
    wake_one();
  }

  /// Close the mailbox: pending and future `pop_or_closed` calls return
  /// nullopt once the queue drains. Used to shut down listener loops.
  void close() {
    closed_ = true;
    while (!waiters_.empty()) wake_one();
  }

  [[nodiscard]] bool closed() const noexcept { return closed_; }

  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  /// Non-blocking pop; returns nullopt if empty.
  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Awaitable pop: suspends until an item is available.
  [[nodiscard]] Task<T> pop() {
    while (items_.empty()) {
      co_await NonEmptyAwaiter{*this};
    }
    T item = std::move(items_.front());
    items_.pop_front();
    co_return item;
  }

  /// Awaitable pop that also wakes on close(): returns nullopt when the
  /// mailbox is closed and drained.
  [[nodiscard]] Task<std::optional<T>> pop_or_closed() {
    while (items_.empty() && !closed_) {
      co_await NonEmptyAwaiter{*this};
    }
    if (items_.empty()) {
      co_return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    co_return item;
  }

 private:
  struct NonEmptyAwaiter {
    Mailbox& mailbox;
    bool await_ready() const noexcept {
      return !mailbox.items_.empty() || mailbox.closed_;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      mailbox.waiters_.push_back(handle);
    }
    void await_resume() const noexcept {}
  };

  void wake_one() {
    if (waiters_.empty()) return;
    auto handle = waiters_.front();
    waiters_.pop_front();
    engine_->schedule_resume(engine_->now(), handle);
  }

  Engine* engine_;
  bool closed_ = false;
  std::deque<T> items_{};
  std::deque<std::coroutine_handle<>> waiters_{};
};

/// Two-sided matching by key. A delivery goes to the oldest receive posted
/// for its key, or waits in the key's unexpected FIFO; a receive takes the
/// oldest unexpected item, or is posted. Matching is fixed at that moment,
/// in order, so two receives for one key never race for an item. A key's
/// entry is erased once both FIFOs drain: O(in-flight) keys are held.
template <typename Key, typename T>
class MatchTable {
 public:
  /// One posted receive: the delivery that matches it moves its item into
  /// `item` and opens `done`.
  struct Receive {
    explicit Receive(Engine& engine) : done(engine) {}
    Gate done;
    T item{};
  };

  explicit MatchTable(Engine& engine) : engine_(&engine) {}

  /// Keys with a posted receive or an unexpected item.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  void deliver(const Key& key, T item) {
    auto it = entries_.try_emplace(key).first;
    if (it->second.posted.empty()) {
      it->second.unexpected.push_back(std::move(item));
      return;
    }
    std::shared_ptr<Receive> receive = std::move(it->second.posted.front());
    it->second.posted.pop_front();
    if (it->second.posted.empty()) entries_.erase(it);
    receive->item = std::move(item);
    receive->done.open();
  }

  /// Complete `receive` with the oldest unexpected item for `key`, or post
  /// it for the next delivery.
  void post(const Key& key, std::shared_ptr<Receive> receive) {
    auto it = entries_.try_emplace(key).first;
    if (it->second.unexpected.empty()) {
      it->second.posted.push_back(std::move(receive));
      return;
    }
    receive->item = std::move(it->second.unexpected.front());
    it->second.unexpected.pop_front();
    if (it->second.unexpected.empty()) entries_.erase(it);
    receive->done.open();
  }

  /// Awaitable receive: post, then suspend until matched (not at all if an
  /// unexpected item is waiting).
  [[nodiscard]] Task<T> receive(Key key) {
    auto receive = std::make_shared<Receive>(*engine_);
    post(key, receive);
    co_await receive->done.wait();
    co_return std::move(receive->item);
  }

 private:
  /// Lists, not deques: an entry often lives for one item, and an empty
  /// list allocates nothing.
  struct Entry {
    std::list<std::shared_ptr<Receive>> posted;
    std::list<T> unexpected;
  };

  Engine* engine_;
  std::map<Key, Entry> entries_{};
};

/// Join helper: counts down as spawned children finish; `wait()` resumes
/// when all registered children completed. Children must not outlive it.
class JoinCounter {
 public:
  explicit JoinCounter(Engine& engine) : gate_(engine) {}

  /// Register one more child.
  void add(std::size_t n = 1) {
    if (done_) throw std::logic_error("JoinCounter: add after completion");
    pending_ += n;
  }

  /// Mark one child finished.
  void finish() {
    if (pending_ == 0) throw std::logic_error("JoinCounter: finish underflow");
    if (--pending_ == 0) {
      done_ = true;
      gate_.open();
    }
  }

  [[nodiscard]] auto wait() {
    if (pending_ == 0) {
      done_ = true;
      gate_.open();
    }
    return gate_.wait();
  }

 private:
  Gate gate_;
  std::size_t pending_ = 0;
  bool done_ = false;
};

}  // namespace odcm::sim
