// Retransmission backoff for the UD connection handshake.
//
// A fixed timeout makes lossy-startup clients retransmit in lockstep:
// every client whose request was dropped at time t retransmits at exactly
// t + rto, so the same burst re-collides at the server's UD queue on every
// attempt. The schedule here doubles the timeout per attempt (capped at
// `conn_rto_max`) and adds jitter derived from the (src, dst, attempt)
// triple alone. The jitter is a pure hash — independent of the fabric's
// RNG seed — so a job's retransmission schedule is bit-reproducible across
// seed sweeps while distinct (src, dst) pairs still spread out in time.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "fabric/types.hpp"
#include "sim/time.hpp"

namespace odcm::core {

/// SplitMix64 finalizer over the (src, dst, attempt) triple.
[[nodiscard]] constexpr std::uint64_t backoff_hash(
    fabric::RankId src, fabric::RankId dst, std::uint32_t attempt) noexcept {
  std::uint64_t z = (static_cast<std::uint64_t>(src) << 32) | dst;
  z += 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(attempt) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Timeout armed after transmission number `attempt` (0-based: the wait
/// following the first send uses attempt 0).
///
///   base   = min(kConnRto * 2^attempt, max(conn_rto_max, kConnRto))
///   jitter = backoff_hash(src, dst, attempt) % (base / 4)
///
/// The result is base + jitter, i.e. within [base, 1.25 * base).
[[nodiscard]] constexpr sim::Time backoff_rto(const ConduitConfig& config,
                                              fabric::RankId src,
                                              fabric::RankId dst,
                                              std::uint32_t attempt) noexcept {
  sim::Time cap = config.conn_rto_max;
  if (cap < kConnRto) cap = kConnRto;
  sim::Time base = kConnRto;
  for (std::uint32_t k = 0; k < attempt && base < cap; ++k) {
    base = (base > cap / 2) ? cap : base * 2;
  }
  sim::Time span = base / 4;
  sim::Time jitter =
      span == 0 ? 0 : static_cast<sim::Time>(backoff_hash(src, dst, attempt) %
                                             static_cast<std::uint64_t>(span));
  return base + jitter;
}

}  // namespace odcm::core
