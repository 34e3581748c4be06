#include "fabric/reg/registration_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace odcm::fabric::reg {

namespace {
// Counter and phase ids of this file (sim::stat_id).
const sim::StatId kRegChunkHits = sim::stat_id("reg_chunk_hits");
const sim::StatId kRegChunkMisses = sim::stat_id("reg_chunk_misses");
}  // namespace

RegistrationCache::RegistrationCache(Hca& hca, AddressSpace& space,
                                     RegCacheConfig config,
                                     sim::StatSet& stats)
    : hca_(hca), space_(space), config_(config), stats_(stats) {
  if (config_.chunk_bytes == 0 || config_.chunk_bytes % 8 != 0) {
    throw std::invalid_argument(
        "RegistrationCache: chunk_bytes must be a non-zero multiple of 8");
  }
  if (config_.pinned_max_bytes != 0 &&
      config_.pinned_max_bytes < std::min<std::uint64_t>(config_.chunk_bytes,
                                                         space.size())) {
    throw std::invalid_argument(
        "RegistrationCache: pinned_max_bytes smaller than one chunk");
  }
  std::uint64_t count =
      (space.size() + config_.chunk_bytes - 1) / config_.chunk_bytes;
  chunks_.resize(static_cast<std::size_t>(count));
}

std::uint64_t RegistrationCache::chunk_len(std::uint32_t chunk) const noexcept {
  std::uint64_t offset = std::uint64_t{chunk} * config_.chunk_bytes;
  return std::min<std::uint64_t>(config_.chunk_bytes, space_.size() - offset);
}

std::uint64_t RegistrationCache::modeled_chunk_len(std::uint32_t chunk) const {
  if (config_.modeled_bytes == 0 || config_.modeled_bytes == space_.size()) {
    return chunk_len(chunk);
  }
  // Proportional share, so pinning the whole heap charges the same pages
  // as one eager registration of the modeled heap.
  return chunk_len(chunk) * config_.modeled_bytes / space_.size();
}

sim::Trigger& RegistrationCache::settled(std::uint32_t chunk) {
  auto& slot = chunks_[chunk].settled;
  if (slot == nullptr) {
    slot = std::make_unique<sim::Trigger>(hca_.fabric().engine());
  }
  return *slot;
}

sim::Trigger& RegistrationCache::any_settled() {
  if (any_settled_ == nullptr) {
    any_settled_ = std::make_unique<sim::Trigger>(hca_.fabric().engine());
  }
  return *any_settled_;
}

void RegistrationCache::emit(RegEvent event, std::uint32_t chunk, RKey rkey,
                             RankId peer) {
  if (event_fn_) event_fn_(event, chunk, rkey, peer);
}

sim::Task<MemoryRegion> RegistrationCache::acquire(std::uint32_t chunk,
                                                   RankId requester) {
  if (chunk >= chunk_count()) {
    throw std::out_of_range("RegistrationCache::acquire: bad chunk index");
  }
  for (;;) {
    Chunk& c = chunks_[chunk];
    switch (c.phase) {
      case ChunkPhase::kPinned:
        touch(chunk);
        add_sharer(chunk, requester);
        stats_.add(kRegChunkHits);
        co_return c.region;
      case ChunkPhase::kRegistering:
      case ChunkPhase::kDraining:
        // Another fault is registering it, or it is mid-eviction; wait for
        // the phase to settle and re-evaluate.
        co_await settled(chunk).wait();
        continue;
      case ChunkPhase::kCold:
        break;
    }
    c.phase = ChunkPhase::kRegistering;
    stats_.add(kRegChunkMisses);
    sim::Time t0 = hca_.fabric().engine().now();
    // Reserve the budget before the (time-consuming) registration so that
    // concurrent faults cannot oversubscribe the pin cap.
    std::uint64_t len = chunk_len(chunk);
    while (config_.pinned_max_bytes != 0 &&
           pinned_bytes_ + len > config_.pinned_max_bytes) {
      co_await evict_one(chunk);
    }
    pinned_bytes_ += len;
    // Track the high-water mark as a monotone counter: adding only the
    // increments makes the counter's final value the high-water itself,
    // which survives the additive stats aggregation.
    if (pinned_bytes_ > pinned_highwater_) {
      stats_.add("reg_pinned_highwater_bytes",
                 static_cast<std::int64_t>(pinned_bytes_ - pinned_highwater_));
      pinned_highwater_ = pinned_bytes_;
    }
    MemoryRegion region = co_await hca_.register_memory(
        space_, chunk_base(chunk), len, modeled_chunk_len(chunk));
    stats_.add_time("lazy_registration", hca_.fabric().engine().now() - t0);
    Chunk& pinned = chunks_[chunk];  // re-fetch: vector never resizes, but
                                     // keep the access pattern obvious
    pinned.phase = ChunkPhase::kPinned;
    pinned.region = region;
    pinned.sharers.clear();
    add_sharer(chunk, requester);
    touch(chunk);
    emit(RegEvent::kPinned, chunk, region.rkey, requester);
    if (pinned.settled != nullptr) pinned.settled->notify_all();
    // A freshly-pinned chunk is a new eviction candidate: cap waiters
    // parked with nothing evictable must re-run their victim scan.
    if (any_settled_ != nullptr) any_settled_->notify_all();
    co_return region;
  }
}

void RegistrationCache::add_sharer(std::uint32_t chunk, RankId peer) {
  Chunk& c = chunks_.at(chunk);
  if (std::find(c.sharers.begin(), c.sharers.end(), peer) ==
      c.sharers.end()) {
    c.sharers.push_back(peer);
  }
}

sim::Task<> RegistrationCache::evict_one(std::uint32_t self) {
  // Deterministic LRU: the pinned chunk with the oldest acquire tick (ties
  // broken by index, though ticks are unique).
  std::uint32_t victim = chunk_count();
  for (std::uint32_t i = 0; i < chunk_count(); ++i) {
    if (chunks_[i].phase != ChunkPhase::kPinned) continue;
    if (victim == chunk_count() ||
        chunks_[i].last_used < chunks_[victim].last_used) {
      victim = i;
    }
  }
  if (victim == chunk_count()) {
    // Nothing is evictable right now: the budget is held by in-flight
    // drains and other registrations. Park on the cache-wide trigger and
    // let the caller re-check — waiting on a specific chunk's trigger
    // here can deadlock (the first busy chunk may be `self`, or another
    // cap-waiter symmetrically parked on ours).
    bool others_busy = false;
    for (std::uint32_t i = 0; i < chunk_count(); ++i) {
      if (i == self) continue;
      if (chunks_[i].phase == ChunkPhase::kDraining ||
          chunks_[i].phase == ChunkPhase::kRegistering) {
        others_busy = true;
        break;
      }
    }
    if (!others_busy) {
      throw std::logic_error(
          "RegistrationCache: pin cap exhausted with nothing to evict");
    }
    co_await any_settled().wait();
    co_return;
  }
  Chunk& c = chunks_[victim];
  c.phase = ChunkPhase::kDraining;
  stats_.add("reg_evictions");
  RKey rkey = c.region.rkey;
  emit(RegEvent::kEvicted, victim, rkey, space_.owner());
  std::vector<RankId> sharers = c.sharers;
  c.pending_acks = sharers.size();
  if (c.pending_acks == 0) {
    // Nobody ever received this rkey (cap-driven pin that was never handed
    // out, or all sharers already re-faulted): deregister immediately.
    complete_drain(victim);
    co_return;
  }
  if (!invalidate_fn_) {
    throw std::logic_error(
        "RegistrationCache: eviction with sharers but no invalidate hook");
  }
  co_await invalidate_fn_(victim, rkey, std::move(sharers));
  // Acks arrive through on_invalidate_ack; wait until the drain settles.
  while (chunks_[victim].phase == ChunkPhase::kDraining &&
         chunks_[victim].region.rkey == rkey) {
    co_await settled(victim).wait();
  }
}

void RegistrationCache::on_invalidate_ack(std::uint32_t chunk, RKey rkey,
                                          RankId from) {
  (void)from;
  Chunk& c = chunks_.at(chunk);
  if (c.phase != ChunkPhase::kDraining || c.region.rkey != rkey) {
    // Epoch guard: the ack refers to an earlier incarnation of the chunk
    // (rkeys are never reused, so a mismatch is always staleness).
    stats_.add("reg_stale_acks");
    return;
  }
  if (c.pending_acks == 0) {
    throw std::logic_error(
        "RegistrationCache: invalidation ack with none outstanding");
  }
  if (--c.pending_acks == 0) {
    complete_drain(chunk);
  }
}

void RegistrationCache::complete_drain(std::uint32_t chunk) {
  Chunk& c = chunks_[chunk];
  RKey rkey = c.region.rkey;
  hca_.deregister_memory(rkey);
  pinned_bytes_ -= chunk_len(chunk);
  c.phase = ChunkPhase::kCold;
  c.region = MemoryRegion{};
  c.sharers.clear();
  c.pending_acks = 0;
  stats_.add("reg_deregistrations");
  emit(RegEvent::kDeregistered, chunk, rkey, space_.owner());
  if (c.settled != nullptr) c.settled->notify_all();
  if (any_settled_ != nullptr) any_settled_->notify_all();
}

sim::Task<> RegistrationCache::quiesce() {
  for (;;) {
    bool busy = false;
    for (std::uint32_t i = 0; i < chunk_count(); ++i) {
      if (chunks_[i].phase == ChunkPhase::kRegistering ||
          chunks_[i].phase == ChunkPhase::kDraining) {
        busy = true;
        co_await settled(i).wait();
        break;
      }
    }
    if (!busy) co_return;
  }
}

}  // namespace odcm::fabric::reg
