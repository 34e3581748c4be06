// Shared OpenSHMEM-layer types.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/wire.hpp"
#include "fabric/types.hpp"

namespace odcm::shmem {

using RankId = fabric::RankId;

/// A symmetric address: byte offset into the symmetric heap. The same
/// offset denotes the "same" object on every PE (OpenSHMEM semantics).
using SymAddr = std::uint64_t;

/// The `<address, size, rkey>` triplet each PE must learn about a peer's
/// symmetric heap before it can issue RDMA to it (paper §IV-B).
struct SegmentInfo {
  fabric::VirtAddr addr = 0;
  std::uint64_t size = 0;
  fabric::RKey rkey = 0;

  static constexpr std::size_t kWireBytes = 24;

  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;

  [[nodiscard]] std::vector<std::byte> serialize() const {
    std::vector<std::byte> out;
    out.reserve(kWireBytes);
    core::wire::put_int<std::uint64_t>(out, addr);
    core::wire::put_int<std::uint64_t>(out, size);
    core::wire::put_int<std::uint64_t>(out, rkey);
    return out;
  }

  /// Read a triplet off the front of `reader`; throws on a short buffer.
  static SegmentInfo read(core::wire::Reader& reader) {
    SegmentInfo info;
    info.addr = reader.read_int<std::uint64_t>();
    info.size = reader.read_int<std::uint64_t>();
    info.rkey = reader.read_int<std::uint64_t>();
    return info;
  }

  /// Decode exactly one triplet; throws unless `data` is `kWireBytes` long.
  static SegmentInfo deserialize(std::span<const std::byte> data) {
    core::wire::Reader reader(data);
    SegmentInfo info = read(reader);
    reader.expect_end();
    return info;
  }
};

/// Connection-handshake payload under on-demand registration: the segment
/// triplet (rkey 0: "fault for it") followed by the target's hot-chunk
/// rkeys, so warmed peers skip the fault round trip.
struct RegHandshakePayload {
  SegmentInfo segment{};
  std::vector<std::pair<std::uint32_t, fabric::RKey>> hot_chunks{};

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out = segment.serialize();
    core::wire::put_int<std::uint32_t>(
        out, static_cast<std::uint32_t>(hot_chunks.size()));
    for (const auto& [chunk, rkey] : hot_chunks) {
      core::wire::put_int<std::uint32_t>(out, chunk);
      core::wire::put_int<std::uint64_t>(out, rkey);
    }
    return out;
  }

  /// Throws on truncation (including a count the bytes do not back) and on
  /// trailing bytes.
  static RegHandshakePayload decode(std::span<const std::byte> data) {
    core::wire::Reader reader(data);
    RegHandshakePayload payload;
    payload.segment = SegmentInfo::read(reader);
    const auto count = reader.read_int<std::uint32_t>();
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto chunk = reader.read_int<std::uint32_t>();
      payload.hot_chunks.emplace_back(chunk,
                                      reader.read_int<std::uint64_t>());
    }
    reader.expect_end();
    return payload;
  }
};

/// Reduction operators (shmem_..._to_all flavours).
enum class ReduceOp : std::uint8_t { kSum, kMin, kMax, kProd };

/// The one element-wise combiner of OpenSHMEM and MPI-lite reductions:
/// folds the T's of `in` into those of `acc`, in index order. The bytes
/// need not be aligned for T.
template <typename T>
void combine_span(std::span<std::byte> acc, std::span<const std::byte> in,
                  ReduceOp op) {
  for (std::size_t off = 0; off + sizeof(T) <= acc.size(); off += sizeof(T)) {
    T a, b;
    std::memcpy(&a, acc.data() + off, sizeof(T));
    std::memcpy(&b, in.data() + off, sizeof(T));
    switch (op) {
      case ReduceOp::kSum: a = a + b; break;
      case ReduceOp::kMin: a = b < a ? b : a; break;
      case ReduceOp::kMax: a = a < b ? b : a; break;
      case ReduceOp::kProd: a = a * b; break;
    }
    std::memcpy(acc.data() + off, &a, sizeof(T));
  }
}

/// Comparison operators for shmem_wait_until.
enum class WaitCmp : std::uint8_t { kEq, kNe, kGt, kGe, kLt, kLe };

}  // namespace odcm::shmem
