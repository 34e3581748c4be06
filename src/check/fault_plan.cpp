#include "check/fault_plan.hpp"

#include <sstream>

namespace odcm::check {

const char* to_string(PacketClass klass) noexcept {
  switch (klass) {
    case PacketClass::kAny: return "any";
    case PacketClass::kConnectRequest: return "request";
    case PacketClass::kConnectReply: return "reply";
  }
  return "?";
}

std::string FaultRule::describe() const {
  std::ostringstream out;
  out << to_string(klass);
  if (src) out << " src=" << *src;
  if (dst) out << " dst=" << *dst;
  if (skip > 0) out << " skip=" << skip;
  out << " count=" << count << " ->";
  if (drop) out << " drop";
  if (duplicates > 0) out << " dup=" << duplicates;
  if (extra_delay > 0) out << " delay=" << extra_delay << "ns";
  if (kill_dst_qp) out << " kill-dst-qp";
  return out.str();
}

void FaultPlan::set_background(double drop_rate, double duplicate_rate,
                               sim::Time jitter_max) {
  background_drop_ = drop_rate;
  background_duplicate_ = duplicate_rate;
  background_jitter_ = jitter_max;
}

void FaultPlan::add_rule(FaultRule rule) {
  rules_.push_back(RuleState{rule, 0});
}

void FaultPlan::add_blackout(Blackout window) {
  blackouts_.push_back(window);
}

void FaultPlan::install(fabric::Fabric& fabric) {
  fabric.set_ud_fault_hook(
      [this](const fabric::UdSendContext& ctx) { return decide(ctx); });
}

PacketClass FaultPlan::classify(const fabric::UdSendContext& ctx) {
  if (ctx.payload.empty()) {
    return PacketClass::kAny;
  }
  switch (static_cast<std::uint8_t>(ctx.payload[0])) {
    case 1: return PacketClass::kConnectRequest;
    case 2: return PacketClass::kConnectReply;
    default: return PacketClass::kAny;
  }
}

fabric::UdFault FaultPlan::decide(const fabric::UdSendContext& ctx) {
  ++decisions_;
  fabric::UdFault fault;

  for (const Blackout& window : blackouts_) {
    if (ctx.now < window.begin || ctx.now >= window.end) continue;
    if (window.rank && *window.rank != ctx.src_rank &&
        *window.rank != ctx.dst_rank) {
      continue;
    }
    fault.drop = true;
    return fault;
  }

  PacketClass klass = classify(ctx);
  for (RuleState& state : rules_) {
    const FaultRule& rule = state.rule;
    if (rule.klass != PacketClass::kAny && rule.klass != klass) continue;
    if (rule.src && *rule.src != ctx.src_rank) continue;
    if (rule.dst && *rule.dst != ctx.dst_rank) continue;
    std::uint32_t ordinal = state.matched++;
    if (ordinal < rule.skip) return fault;  // window not open yet
    if (ordinal >= rule.skip + rule.count) continue;  // window exhausted
    fault.drop = rule.drop;
    fault.duplicates = rule.duplicates;
    fault.extra_delay = rule.extra_delay;
    fault.kill_dst_qp = rule.kill_dst_qp;
    return fault;
  }

  // Background noise from the plan's own stream.
  if (background_drop_ > 0.0 && rng_.chance(background_drop_)) {
    fault.drop = true;
  }
  if (background_duplicate_ > 0.0 && rng_.chance(background_duplicate_)) {
    fault.duplicates = 1;
  }
  if (background_jitter_ > 0) {
    fault.extra_delay = static_cast<sim::Time>(
        rng_.next_below(static_cast<std::uint64_t>(background_jitter_) + 1));
  }
  return fault;
}

std::string FaultPlan::describe() const {
  std::ostringstream out;
  out << "FaultPlan{seed=" << seed_;
  if (!recipe_label_.empty()) out << " recipe=" << recipe_label_;
  out << " bg(drop=" << background_drop_ << " dup=" << background_duplicate_
      << " jitter=" << background_jitter_ << "ns)";
  for (const RuleState& state : rules_) {
    out << " [" << state.rule.describe() << "]";
  }
  for (const Blackout& window : blackouts_) {
    out << " [blackout " << window.begin << ".." << window.end;
    if (window.rank) out << " rank=" << *window.rank;
    out << "]";
  }
  out << "}";
  return out.str();
}

const char* FaultPlan::recipe_name(std::uint32_t recipe) noexcept {
  switch (recipe) {
    case 0: return "clean";
    case 1: return "light_loss";
    case 2: return "heavy_loss";
    case 3: return "dup_storm";
    case 4: return "chaos_mix";
    case 5: return "first_request_drop";
    case 6: return "reply_drop";
    case 7: return "blackout";
    default: return "unknown";
  }
}

FaultPlan FaultPlan::from_recipe(std::uint32_t recipe, std::uint64_t seed,
                                 std::uint32_t ranks) {
  FaultPlan plan(seed);
  plan.recipe_label_ = recipe_name(recipe);
  // Parameter stream: derived from the seed but independent of the decision
  // stream so adding a parameter draw never shifts per-datagram decisions.
  sim::Rng params = sim::Rng(seed ^ 0x0ddfau).fork();
  auto random_rank = [&params, ranks]() -> fabric::RankId {
    return static_cast<fabric::RankId>(params.next_below(ranks));
  };
  switch (recipe) {
    case 0:  // clean: no faults at all — the control run.
      break;
    case 1:  // light loss with mild jitter.
      plan.set_background(0.15, 0.0, 2 * sim::usec);
      break;
    case 2:  // heavy loss: every datagram a coin toss.
      plan.set_background(0.55, 0.0, 0);
      break;
    case 3: {  // duplicate storm plus a burst aimed at one request.
      plan.set_background(0.0, 0.8, 0);
      FaultRule burst;
      burst.klass = PacketClass::kConnectRequest;
      burst.src = random_rank();
      burst.count = 2;
      burst.duplicates = 3;
      plan.add_rule(burst);
      break;
    }
    case 4:  // everything at once, moderately.
      plan.set_background(0.3, 0.3, 8 * sim::usec);
      break;
    case 5: {  // drop the first requests of one targeted pair.
      FaultRule rule;
      rule.klass = PacketClass::kConnectRequest;
      rule.src = random_rank();
      rule.dst = random_rank();
      rule.count = 1 + static_cast<std::uint32_t>(params.next_below(4));
      rule.drop = true;
      plan.add_rule(rule);
      plan.set_background(0.1, 0.0, 0);
      break;
    }
    case 6: {  // drop the first replies from one server.
      FaultRule rule;
      rule.klass = PacketClass::kConnectReply;
      rule.src = random_rank();
      rule.count = 1 + static_cast<std::uint32_t>(params.next_below(3));
      rule.drop = true;
      plan.add_rule(rule);
      plan.set_background(0.05, 0.0, 0);
      break;
    }
    case 7: {  // a blackout window early in the run.
      // Keep windows (under 1.5 ms, ending before 2 ms) well under the
      // retry budget: kConnMaxRetries backed-off retransmissions starting at
      // kConnRto span about half a second with the default `conn_rto_max`,
      // so the client always outlasts the outage.
      Blackout window;
      window.begin = static_cast<sim::Time>(params.next_below(500 * sim::usec));
      window.end = window.begin + 200 * sim::usec +
                   static_cast<sim::Time>(params.next_below(1300 * sim::usec));
      if (params.chance(0.5)) {
        window.rank = random_rank();
      }
      plan.add_blackout(window);
      plan.set_background(0.1, 0.0, 0);
      break;
    }
    default:
      break;
  }
  return plan;
}

}  // namespace odcm::check
