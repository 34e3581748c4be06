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
    if (first_) {
      engine_->schedule_resume(engine_->now(), std::exchange(first_, {}));
    }
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
    return waiters_.size() + (first_ ? 1 : 0);
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
    if (waiter.timed == nullptr && !first_ && waiters_.empty()) {
      first_ = waiter.handle;  // the common lone waiter allocates nothing
      return;
    }
    if (waiter.timed != nullptr) ++timed_waiters_;
    waiters_.push_back(std::move(waiter));
  }

  Engine* engine_;
  /// The first waiter, when it is a plain `wait()` and nothing waits yet.
  /// It is the oldest waiter whenever it is set, so it resumes first.
  std::coroutine_handle<> first_{};
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

  /// Close the mailbox: pending and future `ready()` waits complete, and a
  /// consumer stops once the queue drains. Used to shut down listener
  /// loops.
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

  /// Awaitable: suspend until an item is queued or the mailbox is closed
  /// (no suspension if either holds already). It takes no coroutine frame.
  /// A lone consumer pairs it with `try_pop`, which then finds nothing only
  /// once the mailbox is closed and drained.
  [[nodiscard]] auto ready() { return NonEmptyAwaiter{*this}; }

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
///
/// In steady state matching allocates nothing: posted receives are linked
/// through themselves, and drained entries and item nodes are kept for
/// reuse (at most the peak number in flight).
template <typename Key, typename T>
class MatchTable {
 public:
  /// One posted receive: the delivery that matches it moves its item into
  /// `item` and opens `done`.
  struct Receive {
    explicit Receive(Engine& engine) : done(engine) {}
    Gate done;
    T item{};

   private:
    friend class MatchTable;
    Receive* next = nullptr;  ///< the key's posted FIFO
    /// Set while a shared receive is posted: the table owns it until the
    /// match, as a posting that drops its handle still matches.
    std::shared_ptr<Receive> hold{};
  };

  explicit MatchTable(Engine& engine) : engine_(&engine) {}
  MatchTable(const MatchTable&) = delete;
  MatchTable& operator=(const MatchTable&) = delete;
  ~MatchTable() {
    for (auto& kv : entries_) {
      for (Receive* r = kv.second.posted_head; r != nullptr;) {
        Receive* next = r->next;
        r->hold.reset();  // may free r
        r = next;
      }
    }
  }

  /// Keys with a posted receive or an unexpected item.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  void deliver(const Key& key, T item) {
    auto it = entry(key);
    Entry& e = it->second;
    if (e.posted_head == nullptr) {
      if (spare_items_.empty()) {
        e.unexpected.push_back(std::move(item));
      } else {
        e.unexpected.splice(e.unexpected.end(), spare_items_,
                            spare_items_.begin());
        e.unexpected.back() = std::move(item);
      }
      return;
    }
    Receive* receive = e.posted_head;
    e.posted_head = receive->next;
    if (e.posted_head == nullptr) release(it);
    const std::shared_ptr<Receive> hold = std::move(receive->hold);
    receive->item = std::move(item);
    receive->done.open();
  }

  /// Complete `receive` with the oldest unexpected item for `key`, or post
  /// it for the next delivery.
  void post(const Key& key, std::shared_ptr<Receive> receive) {
    Receive& r = *receive;
    r.hold = std::move(receive);
    post(key, r);
    if (r.done.is_open()) r.hold.reset();
  }

  /// Awaitable receive: post, then suspend until matched (not at all if an
  /// unexpected item is waiting). The receive lives in the awaiting frame,
  /// so that frame must not be destroyed while the receive is posted.
  [[nodiscard]] auto receive(Key key) {
    struct Awaiter {
      MatchTable& table;
      Key key;
      Receive receive;
      bool await_ready() {
        table.post(key, receive);
        return receive.done.is_open();
      }
      void await_suspend(std::coroutine_handle<> handle) {
        receive.done.wait().await_suspend(handle);
      }
      T await_resume() { return std::move(receive.item); }
    };
    return Awaiter{*this, std::move(key), Receive(*engine_)};
  }

 private:
  /// An empty item list allocates nothing.
  struct Entry {
    Receive* posted_head = nullptr;
    Receive* posted_tail = nullptr;
    std::list<T> unexpected;
  };
  using Entries = std::map<Key, Entry>;

  void post(const Key& key, Receive& receive) {
    auto it = entry(key);
    Entry& e = it->second;
    if (e.unexpected.empty()) {
      receive.next = nullptr;
      if (e.posted_head == nullptr) {
        e.posted_head = &receive;
      } else {
        e.posted_tail->next = &receive;
      }
      e.posted_tail = &receive;
      return;
    }
    receive.item = std::move(e.unexpected.front());
    spare_items_.splice(spare_items_.end(), e.unexpected,
                        e.unexpected.begin());
    if (e.unexpected.empty()) release(it);
    receive.done.open();
  }

  /// The entry of `key`, reusing a drained entry's node when there is one.
  typename Entries::iterator entry(const Key& key) {
    auto it = entries_.lower_bound(key);
    if (it != entries_.end() && !(key < it->first)) return it;
    if (spare_entries_.empty()) return entries_.emplace_hint(it, key, Entry{});
    typename Entries::node_type node = std::move(spare_entries_.back());
    spare_entries_.pop_back();
    node.key() = key;
    return entries_.insert(it, std::move(node));
  }

  /// Erase a drained entry, keeping its node for the next new key.
  void release(typename Entries::iterator it) {
    spare_entries_.push_back(entries_.extract(it));
  }

  Engine* engine_;
  Entries entries_{};
  std::vector<typename Entries::node_type> spare_entries_{};
  std::list<T> spare_items_{};
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
