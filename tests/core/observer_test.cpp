// Tests for the protocol observer list, the shared event formatter and
// `EventLog`, the CSV view over the conduit's event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/conduit.hpp"
#include "core/observer.hpp"
#include "test_util.hpp"

namespace odcm::core {
namespace {

using testutil::JobEnv;
using testutil::small_job;

/// Rank 0 sends one active message to rank 1, which needs a handshake.
sim::Task<> one_message(Conduit& c) {
  c.register_handler(20, [](RankId, std::vector<std::byte>) -> sim::Task<> {
    co_return;
  });
  co_await c.init();
  if (c.rank() == 0) {
    co_await c.am_send(1, 20, std::vector<std::byte>(8));
  }
  co_await c.barrier_global();
}

bool is_phase(const ProtocolEvent& e, PeerPhase from, PeerPhase to) {
  return e.kind == ProtocolEvent::Kind::kPhaseChange && e.from == from &&
         e.to == to;
}

/// Appends its id to a shared sequence on every event.
struct OrderProbe : ProtocolObserver {
  OrderProbe(int id, std::vector<int>& order) : id(id), order(order) {}
  void on_event(const ProtocolEvent&) override { order.push_back(id); }
  int id;
  std::vector<int>& order;
};

/// Throws on the first event it sees, remembering that event.
struct ThrowingObserver : ProtocolObserver {
  void on_event(const ProtocolEvent& event) override {
    thrown = event;
    throw std::runtime_error("observer rejected the event");
  }
  ProtocolEvent thrown{};
};

TEST(TraceIntegration, HandshakeEmitsProtocolEvents) {
  JobEnv env(small_job(2, 1));
  EventLog log;
  env.job.add_observer(&log);
  env.run(one_message);
  const auto& events = log.events();
  auto requesting = std::find_if(events.begin(), events.end(), [](auto& e) {
    return is_phase(e, PeerPhase::kIdle, PeerPhase::kRequesting);
  });
  auto connected = std::find_if(events.begin(), events.end(), [](auto& e) {
    return e.kind == ProtocolEvent::Kind::kPhaseChange &&
           e.to == PeerPhase::kConnected;
  });
  ASSERT_NE(requesting, events.end());
  ASSERT_NE(connected, events.end());
  EXPECT_LT(requesting->time, connected->time);
  // Client and server side both reach Connected.
  EXPECT_GE(std::count_if(events.begin(), events.end(),
                          [](auto& e) {
                            return e.kind ==
                                       ProtocolEvent::Kind::kPhaseChange &&
                                   e.to == PeerPhase::kConnected;
                          }),
            2);
}

TEST(TraceIntegration, LossyRunShowsRetransmits) {
  JobConfig config = small_job(2, 1);
  config.fabric.ud_drop_rate = 0.7;
  config.fabric.seed = 99;
  JobEnv env(config);
  EventLog log;
  env.job.add_observer(&log);
  env.run(one_message);
  EXPECT_GE(std::count_if(log.events().begin(), log.events().end(),
                          [](auto& e) {
                            return e.kind == ProtocolEvent::Kind::kRetransmit;
                          }),
            1);
}

TEST(TraceIntegration, TraceIsDeterministic) {
  auto run_once = [] {
    JobEnv env(small_job(4, 2));
    EventLog log;
    env.job.add_observer(&log);
    env.run([](Conduit& c) -> sim::Task<> {
      c.register_handler(20,
                         [](RankId, std::vector<std::byte>) -> sim::Task<> {
                           co_return;
                         });
      co_await c.init();
      co_await c.am_send((c.rank() + 1) % 4, 20, std::vector<std::byte>(8));
      co_await c.barrier_global();
    });
    std::ostringstream out;
    log.write_csv(out);
    return out.str();
  };
  const std::string first = run_once();
  EXPECT_NE(first.find("Idle->Requesting"), std::string::npos);
  EXPECT_EQ(first, run_once());
}

TEST(ProtocolObservers, NotifiedInAttachmentOrder) {
  JobEnv env(small_job(2, 1));
  std::vector<int> order;
  OrderProbe first(1, order);
  OrderProbe second(2, order);
  env.job.add_observer(&first);
  env.job.add_observer(&second);
  env.run(one_message);
  ASSERT_FALSE(order.empty());
  ASSERT_EQ(order.size() % 2, 0u);
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 1) << i;
    EXPECT_EQ(order[i + 1], 2) << i;
  }
}

TEST(ProtocolObservers, DuplicateAddIsIgnored) {
  JobEnv env(small_job(2, 1));
  std::vector<int> order;
  OrderProbe probe(1, order);
  EventLog log;
  env.job.add_observer(&probe);
  env.job.add_observer(&log);
  env.job.add_observer(&probe);
  env.job.add_observer(nullptr);
  env.run(one_message);
  ASSERT_FALSE(log.events().empty());
  EXPECT_EQ(order.size(), log.events().size());
}

TEST(ProtocolObservers, RemoveStopsDelivery) {
  JobEnv env(small_job(2, 1));
  EventLog removed;
  EventLog kept;
  env.job.add_observer(&removed);
  env.job.add_observer(&kept);
  env.job.remove_observer(&removed);
  env.run(one_message);
  EXPECT_TRUE(removed.events().empty());
  EXPECT_FALSE(kept.events().empty());
}

TEST(ProtocolObservers, ThrowingObserverSurfacesFromRunAndStopsFanOut) {
  JobEnv env(small_job(2, 1));
  ThrowingObserver thrower;
  EventLog log;
  env.job.add_observer(&thrower);
  env.job.add_observer(&log);
  env.job.spawn_all(one_message);
  EXPECT_THROW(env.engine.run(), std::runtime_error);
  const ProtocolEvent& t = thrower.thrown;
  for (const ProtocolEvent& seen : log.events()) {
    EXPECT_FALSE(seen.kind == t.kind && seen.self == t.self &&
                 seen.peer == t.peer && seen.time == t.time)
        << describe(seen);
  }
}

TEST(EventLog, DescribeAndCsvExactText) {
  using Kind = ProtocolEvent::Kind;
  const std::vector<ProtocolEvent> events = {
      {.kind = Kind::kPhaseChange,
       .self = 0,
       .peer = 1,
       .from = PeerPhase::kIdle,
       .to = PeerPhase::kRequesting,
       .role = PeerRole::kClient,
       .time = 100},
      {.kind = Kind::kRetransmit, .self = 0, .peer = 1, .attempt = 2,
       .time = 250},
      {.kind = Kind::kRegFaultServed, .self = 2, .peer = 3, .attempt = 4,
       .detail = 17, .time = 300},
      {.kind = Kind::kBulkFragmentSent, .self = 1, .peer = 0, .attempt = 5,
       .detail = 9, .time = 400},
  };
  EventLog log;
  for (const ProtocolEvent& e : events) log.on_event(e);

  EXPECT_EQ(describe(events[0]), "pe0 peer=1 Idle->Requesting role=Client");
  EXPECT_EQ(describe(events[1]), "pe0 peer=1 retransmit attempt=2");
  EXPECT_EQ(describe(events[2]),
            "pe2 peer=3 reg_fault_served chunk=4 rkey=17");
  EXPECT_EQ(describe(events[3]), "pe1 peer=0 frag_sent seq=9 idx=5");

  std::ostringstream csv;
  log.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "time_ns,self,peer,event\n"
            "100,0,1,Idle->Requesting role=Client\n"
            "250,0,1,retransmit attempt=2\n"
            "300,2,3,reg_fault_served chunk=4 rkey=17\n"
            "400,1,0,frag_sent seq=9 idx=5\n");
}

}  // namespace
}  // namespace odcm::core
