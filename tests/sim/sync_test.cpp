// Unit tests for Gate, Trigger, Mailbox, MatchTable and JoinCounter.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace odcm::sim {
namespace {

TEST(Gate, WaitAfterOpenCompletesImmediately) {
  Engine engine;
  Gate gate(engine);
  gate.open();
  bool done = false;
  engine.spawn([](Gate& g, bool& flag) -> Task<> {
    co_await g.wait();
    flag = true;
  }(gate, done));
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(engine.now(), 0u);
}

TEST(Gate, OpenWakesAllWaiters) {
  Engine engine;
  Gate gate(engine);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    engine.spawn([](Gate& g, int& counter) -> Task<> {
      co_await g.wait();
      ++counter;
    }(gate, woken));
  }
  engine.schedule_at(100, [&] { gate.open(); });
  engine.run();
  EXPECT_EQ(woken, 5);
  EXPECT_EQ(engine.now(), 100u);
}

TEST(Gate, OpenIsIdempotent) {
  Engine engine;
  Gate gate(engine);
  gate.open();
  gate.open();
  EXPECT_TRUE(gate.is_open());
}

TEST(Gate, WaitForReturnsTrueWhenOpenedBeforeTimeout) {
  Engine engine;
  Gate gate(engine);
  bool result = false;
  engine.spawn([](Gate& g, bool& out) -> Task<> {
    out = co_await g.wait_for(1000);
  }(gate, result));
  engine.schedule_at(500, [&] { gate.open(); });
  engine.run();
  EXPECT_TRUE(result);
}

TEST(Gate, WaitForReturnsFalseOnTimeout) {
  Engine engine;
  Gate gate(engine);
  bool result = true;
  Time finished = 0;
  engine.spawn([](Engine& eng, Gate& g, bool& out, Time& at) -> Task<> {
    out = co_await g.wait_for(1000);
    at = eng.now();
  }(engine, gate, result, finished));
  engine.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(finished, 1000u);
}

TEST(Gate, LateOpenDoesNotDoubleResumeTimedWaiter) {
  Engine engine;
  Gate gate(engine);
  int resumed = 0;
  engine.spawn([](Gate& g, int& counter) -> Task<> {
    (void)co_await g.wait_for(10);
    ++counter;
    // Block again on a fresh wait; the stale open() must not touch us.
    co_await g.wait();
    ++counter;
  }(gate, resumed));
  engine.schedule_at(50, [&] { gate.open(); });
  engine.run();
  EXPECT_EQ(resumed, 2);
}

TEST(Gate, TimedOutWaitersDoNotAccumulate) {
  // A handshake retransmit loop re-arms wait_for on the same closed gate
  // every round; the timed-out records must not pile up until open().
  Engine engine;
  Gate gate(engine);
  std::vector<std::string> woken;
  auto live = [](Gate& g, std::vector<std::string>& log,
                 std::string name) -> Task<> {
    co_await g.wait();
    log.push_back(name);
  };
  engine.spawn(live(gate, woken, "first"));
  engine.spawn([](Gate& g, std::vector<std::string>& log) -> Task<> {
    for (int round = 0; round < 100; ++round) {
      EXPECT_FALSE(co_await g.wait_for(10));
      // The live waiter plus at most the one record that just fired.
      EXPECT_LE(g.waiter_count(), 2u);
    }
    EXPECT_TRUE(co_await g.wait_for(1'000'000));
    log.push_back("retrier");
  }(gate, woken));
  engine.schedule_at(2000, [&] {
    EXPECT_EQ(gate.waiter_count(), 2u);  // "first" and the armed retrier
    engine.spawn(live(gate, woken, "last"));
  });
  engine.schedule_at(3000, [&] {
    EXPECT_EQ(gate.waiter_count(), 3u);
    gate.open();
    EXPECT_EQ(gate.waiter_count(), 0u);
  });
  engine.run();
  EXPECT_EQ(woken,
            (std::vector<std::string>{"first", "retrier", "last"}));
}

TEST(Gate, InlineFirstWaiterThenTimedAndPlainResumeInArrivalOrder) {
  // The first plain waiter is held inline, later ones in the waiter list;
  // open() must still resume everyone in the order they arrived.
  Engine engine;
  Gate gate(engine);
  std::vector<std::string> woken;
  auto plain = [](Gate& g, std::vector<std::string>& log,
                  std::string name) -> Task<> {
    co_await g.wait();
    log.push_back(name);
  };
  auto timed = [](Gate& g, std::vector<std::string>& log,
                  std::string name) -> Task<> {
    EXPECT_TRUE(co_await g.wait_for(1'000));
    log.push_back(name);
  };
  engine.spawn(plain(gate, woken, "inline"));
  engine.spawn(timed(gate, woken, "timed1"));
  engine.spawn(plain(gate, woken, "plain2"));
  engine.spawn(timed(gate, woken, "timed2"));
  engine.spawn(plain(gate, woken, "plain3"));
  engine.schedule_at(10, [&] {
    EXPECT_EQ(gate.waiter_count(), 5u);
    gate.open();
    EXPECT_EQ(gate.waiter_count(), 0u);
  });
  engine.run();
  EXPECT_EQ(woken, (std::vector<std::string>{"inline", "timed1", "plain2",
                                             "timed2", "plain3"}));
}

TEST(Gate, TimedFirstWaiterKeepsItsPlaceAheadOfPlainOnes) {
  // A plain waiter that arrives after a timed one must not jump ahead of
  // it into the inline slot.
  Engine engine;
  Gate gate(engine);
  std::vector<std::string> woken;
  engine.spawn([](Gate& g, std::vector<std::string>& log) -> Task<> {
    EXPECT_TRUE(co_await g.wait_for(1'000));
    log.push_back("timed");
  }(gate, woken));
  engine.spawn([](Gate& g, std::vector<std::string>& log) -> Task<> {
    co_await g.wait();
    log.push_back("plain");
  }(gate, woken));
  engine.schedule_at(10, [&] {
    EXPECT_EQ(gate.waiter_count(), 2u);
    gate.open();
  });
  engine.run();
  EXPECT_EQ(woken, (std::vector<std::string>{"timed", "plain"}));
}

TEST(Trigger, NotifyAllWakesOnlyCurrentWaiters) {
  Engine engine;
  Trigger trigger(engine);
  std::vector<int> wakeups;
  engine.spawn([](Trigger& t, std::vector<int>& log) -> Task<> {
    co_await t.wait();
    log.push_back(1);
    co_await t.wait();
    log.push_back(2);
  }(trigger, wakeups));
  engine.schedule_at(10, [&] { trigger.notify_all(); });
  engine.schedule_at(20, [&] { trigger.notify_all(); });
  engine.run();
  EXPECT_EQ(wakeups, (std::vector<int>{1, 2}));
}

TEST(Mailbox, PopBlocksUntilPush) {
  Engine engine;
  Mailbox<int> mailbox(engine);
  int got = 0;
  Time at = 0;
  engine.spawn([](Engine& eng, Mailbox<int>& mb, int& out, Time& t) -> Task<> {
    out = co_await mb.pop();
    t = eng.now();
  }(engine, mailbox, got, at));
  engine.schedule_at(42, [&] { mailbox.push(7); });
  engine.run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(at, 42u);
}

TEST(Mailbox, PreservesFifoOrder) {
  Engine engine;
  Mailbox<int> mailbox(engine);
  for (int i = 0; i < 10; ++i) mailbox.push(i);
  std::vector<int> received;
  engine.spawn([](Mailbox<int>& mb, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 10; ++i) out.push_back(co_await mb.pop());
  }(mailbox, received));
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(received[i], i);
}

TEST(Mailbox, TryPopNonBlocking) {
  Engine engine;
  Mailbox<std::string> mailbox(engine);
  EXPECT_FALSE(mailbox.try_pop().has_value());
  mailbox.push("hello");
  auto item = mailbox.try_pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, "hello");
  EXPECT_TRUE(mailbox.empty());
}

TEST(Mailbox, MultipleConsumersEachGetOneItem) {
  Engine engine;
  Mailbox<int> mailbox(engine);
  std::vector<int> received;
  for (int i = 0; i < 3; ++i) {
    engine.spawn([](Mailbox<int>& mb, std::vector<int>& out) -> Task<> {
      out.push_back(co_await mb.pop());
    }(mailbox, received));
  }
  engine.schedule_at(5, [&] {
    mailbox.push(100);
    mailbox.push(200);
    mailbox.push(300);
  });
  engine.run();
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0] + received[1] + received[2], 600);
}

TEST(MatchTable, MatchesInPostingOrderAndErasesDrainedKeys) {
  Engine engine;
  MatchTable<int, int> table(engine);
  using Receive = MatchTable<int, int>::Receive;
  std::vector<std::shared_ptr<Receive>> posted;
  for (int i = 0; i < 3; ++i) {
    posted.push_back(std::make_shared<Receive>(engine));
    table.post(1, posted.back());
  }
  table.deliver(2, 20);  // unexpected: no receive posted for key 2
  table.deliver(2, 21);
  EXPECT_EQ(table.size(), 2u);
  for (int v = 10; v < 13; ++v) table.deliver(1, v);
  EXPECT_EQ(table.size(), 1u);  // key 1 drained and erased
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(posted[i]->done.is_open());
    EXPECT_EQ(posted[i]->item, 10 + i);
  }
  std::vector<int> received;
  engine.spawn([](MatchTable<int, int>& t, std::vector<int>& out) -> Task<> {
    out.push_back(co_await t.receive(2));  // oldest unexpected first
    out.push_back(co_await t.receive(2));
    out.push_back(co_await t.receive(3));  // posted; matched at t=5
  }(table, received));
  engine.schedule_at(5, [&] { table.deliver(3, 30); });
  engine.run();
  EXPECT_EQ(received, (std::vector<int>{20, 21, 30}));
  EXPECT_EQ(table.size(), 0u);
}

TEST(JoinCounter, WaitsForAllChildren) {
  Engine engine;
  JoinCounter join(engine);
  int finished = 0;
  join.add(3);
  for (int i = 1; i <= 3; ++i) {
    engine.spawn([](Engine& eng, JoinCounter& jc, int delay, int& n) -> Task<> {
      co_await eng.delay(static_cast<Time>(delay * 10));
      ++n;
      jc.finish();
    }(engine, join, i, finished));
  }
  Time done_at = 0;
  engine.spawn([](Engine& eng, JoinCounter& jc, Time& at) -> Task<> {
    co_await jc.wait();
    at = eng.now();
  }(engine, join, done_at));
  engine.run();
  EXPECT_EQ(finished, 3);
  EXPECT_EQ(done_at, 30u);
}

TEST(JoinCounter, ZeroChildrenCompletesImmediately) {
  Engine engine;
  JoinCounter join(engine);
  bool done = false;
  engine.spawn([](JoinCounter& jc, bool& flag) -> Task<> {
    co_await jc.wait();
    flag = true;
  }(join, done));
  engine.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace odcm::sim
