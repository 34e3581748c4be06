// Initiator-side rkey cache for the on-demand registration protocol.
//
// Mirrors `RegistrationCache` from the other side of the wire: for every
// `(peer, chunk)` a PE has faulted on (or received in a handshake
// piggyback), the table remembers the granted rkey until an invalidation
// notice revokes it. Two pieces of coordination live here:
//
//  * Fault coalescing — concurrent RMAs against the same cold remote chunk
//    must produce exactly one rkey-fault message; latecomers park on a
//    per-entry gate until the reply installs the rkey.
//  * Lease draining — an invalidation notice must not be acked while an
//    RMA that resolved the dying rkey is still in flight. RMAs hold a
//    lease across issue..completion; the invalidation handler waits for
//    the lease count to reach zero before acking, and RC's in-order
//    delivery then guarantees the target deregisters strictly after every
//    outstanding RMA has landed (DESIGN.md §5.15).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fabric/types.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace odcm::fabric::reg {

class RkeyTable {
 public:
  explicit RkeyTable(sim::Engine& engine) : engine_(engine) {}
  RkeyTable(const RkeyTable&) = delete;
  RkeyTable& operator=(const RkeyTable&) = delete;

  /// Cached rkey for `peer`'s `chunk`, or 0 if unknown/invalidated.
  [[nodiscard]] RKey rkey(RankId peer, std::uint32_t chunk) const {
    auto it = entries_.find(key(peer, chunk));
    return it == entries_.end() ? 0 : it->second.rkey;
  }

  /// Install a granted rkey (fault reply or handshake piggyback) and wake
  /// any RMAs parked on the fault gate. Returns false — and installs
  /// nothing — if an invalidation notice for this rkey already arrived
  /// (the grant raced the notice: e.g. a handshake piggyback delivered
  /// over lossy UD after the target evicted the chunk). Waking the gate
  /// regardless lets parked RMAs observe the miss and re-fault.
  bool install(RankId peer, std::uint32_t chunk, RKey rkey) {
    Entry& e = entries_[key(peer, chunk)];
    bool dead = invalidated_.count({peer, rkey}) != 0;
    if (!dead) e.rkey = rkey;
    if (e.fault_gate != nullptr) e.fault_gate->open();
    return !dead;
  }

  /// Drop the cached rkey if it matches the notice (epoch guard: a
  /// mismatch means the entry was already re-faulted under a newer rkey).
  /// The rkey is tombstoned either way — rkeys are never reused, so a
  /// later grant of the same value is always stale. Returns whether the
  /// notice matched a cached entry.
  bool invalidate(RankId peer, std::uint32_t chunk, RKey rkey) {
    invalidated_.insert({peer, rkey});
    auto it = entries_.find(key(peer, chunk));
    if (it == entries_.end() || it->second.rkey != rkey) return false;
    it->second.rkey = 0;
    return true;
  }

  // ---- fault coalescing -----------------------------------------------

  [[nodiscard]] bool fault_in_flight(RankId peer, std::uint32_t chunk) const {
    auto it = entries_.find(key(peer, chunk));
    return it != entries_.end() && it->second.fault_gate != nullptr &&
           !it->second.fault_gate->is_open();
  }

  /// Mark a fault as in flight. Replaces any previously-opened gate with a
  /// fresh closed one (an open gate has no waiters by construction).
  void begin_fault(RankId peer, std::uint32_t chunk) {
    Entry& e = entries_[key(peer, chunk)];
    e.fault_gate = std::make_unique<sim::Gate>(engine_);
  }

  /// Abort an in-flight fault (send failure): wake waiters so they can
  /// retry or observe the error themselves.
  void abort_fault(RankId peer, std::uint32_t chunk) {
    auto it = entries_.find(key(peer, chunk));
    if (it != entries_.end() && it->second.fault_gate != nullptr) {
      it->second.fault_gate->open();
    }
  }

  /// Wait for the in-flight fault on (`peer`, `chunk`) to settle.
  [[nodiscard]] sim::Task<> wait_fault(RankId peer, std::uint32_t chunk) {
    // The gate lives in a unique_ptr that is only ever replaced by
    // begin_fault when open, so awaiting through the reference is safe.
    Entry& e = entries_[key(peer, chunk)];
    if (e.fault_gate == nullptr) co_return;
    co_await e.fault_gate->wait();
  }

  // ---- lease draining -------------------------------------------------

  void lease(RankId peer, std::uint32_t chunk) {
    ++entries_[key(peer, chunk)].leases;
  }

  void unlease(RankId peer, std::uint32_t chunk) {
    Entry& e = entries_.at(key(peer, chunk));
    if (e.leases == 0) {
      throw std::logic_error("RkeyTable::unlease: no lease held");
    }
    if (--e.leases == 0 && e.lease_drained != nullptr) {
      e.lease_drained->notify_all();
    }
  }

  /// Wait until no RMA holds a lease on (`peer`, `chunk`). Called by the
  /// invalidation handler before acking the notice.
  [[nodiscard]] sim::Task<> wait_unleased(RankId peer, std::uint32_t chunk) {
    Entry& e = entries_[key(peer, chunk)];
    while (e.leases != 0) {
      if (e.lease_drained == nullptr) {
        e.lease_drained = std::make_unique<sim::Trigger>(engine_);
      }
      co_await e.lease_drained->wait();
    }
  }

  [[nodiscard]] std::uint32_t leases(RankId peer, std::uint32_t chunk) const {
    auto it = entries_.find(key(peer, chunk));
    return it == entries_.end() ? 0 : it->second.leases;
  }

 private:
  struct Entry {
    RKey rkey = 0;
    std::uint32_t leases = 0;
    std::unique_ptr<sim::Gate> fault_gate{};
    std::unique_ptr<sim::Trigger> lease_drained{};
  };

  struct PeerRkeyHash {
    std::size_t operator()(const std::pair<RankId, RKey>& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.second * 0x9e3779b97f4a7c15ULL ^
                                        k.first);
    }
  };

  static std::uint64_t key(RankId peer, std::uint32_t chunk) noexcept {
    return (static_cast<std::uint64_t>(peer) << 32) | chunk;
  }

  sim::Engine& engine_;
  /// Keyed on `peer << 32 | chunk`. Node-based on purpose: `wait_fault` and
  /// `wait_unleased` hold an `Entry&` across `co_await`.
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Tombstones of revoked rkeys, keyed by peer (rkeys are only unique
  /// per target HCA). Bounded by the number of invalidations in the run.
  std::unordered_set<std::pair<RankId, RKey>, PeerRkeyHash> invalidated_;
};

/// RAII lease over one `(peer, chunk)` entry, safe to hold across
/// `co_await` (released on coroutine-frame destruction).
class [[nodiscard]] RkeyLease {
 public:
  RkeyLease() = default;
  RkeyLease(RkeyTable& table, RankId peer, std::uint32_t chunk)
      : table_(&table), peer_(peer), chunk_(chunk) {
    table.lease(peer, chunk);
  }
  RkeyLease(RkeyLease&& other) noexcept
      : table_(std::exchange(other.table_, nullptr)),
        peer_(other.peer_),
        chunk_(other.chunk_) {}
  RkeyLease& operator=(RkeyLease&& other) noexcept {
    if (this != &other) {
      release();
      table_ = std::exchange(other.table_, nullptr);
      peer_ = other.peer_;
      chunk_ = other.chunk_;
    }
    return *this;
  }
  RkeyLease(const RkeyLease&) = delete;
  RkeyLease& operator=(const RkeyLease&) = delete;
  ~RkeyLease() { release(); }

  void release() {
    if (table_ != nullptr) {
      std::exchange(table_, nullptr)->unlease(peer_, chunk_);
    }
  }

  /// True while this lease pins an entry.
  [[nodiscard]] bool held() const noexcept { return table_ != nullptr; }
  [[nodiscard]] std::uint32_t chunk() const noexcept { return chunk_; }

  /// Whether the leased entry still maps to `rkey`. False once an
  /// invalidation notice landed while the holder was suspended; an empty
  /// lease pins nothing and is always current.
  [[nodiscard]] bool current(RKey rkey) const {
    return table_ == nullptr || table_->rkey(peer_, chunk_) == rkey;
  }

 private:
  RkeyTable* table_ = nullptr;
  RankId peer_ = 0;
  std::uint32_t chunk_ = 0;
};

}  // namespace odcm::fabric::reg
