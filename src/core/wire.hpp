// Wire formats for the conduit's control and active-message traffic.
//
// Connection packets follow Fig. 4 of the paper: the request and reply each
// carry the sender's rank and the `<lid, qpn>` of its freshly created RC
// endpoint, plus an opaque upper-layer payload (OpenSHMEM appends the
// symmetric-heap `<address, size, rkey>` triplets here — §IV-C).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/types.hpp"

namespace odcm::core {

namespace wire {

inline void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

template <typename T>
void put_int(std::vector<std::byte>& out, T v) {
  static_assert(std::is_integral_v<T>);
  std::size_t offset = out.size();
  out.resize(offset + sizeof(T));
  std::memcpy(out.data() + offset, &v, sizeof(T));
}

inline void put_bytes(std::vector<std::byte>& out,
                      std::span<const std::byte> data) {
  out.insert(out.end(), data.begin(), data.end());
}

/// Sequential reader with bounds checking.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  T read_int() {
    static_assert(std::is_integral_v<T>);
    T v{};
    require(sizeof(T));
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::vector<std::byte> read_bytes(std::size_t n) {
    require(n);
    std::vector<std::byte> out(data_.begin() + pos_, data_.begin() + pos_ + n);
    pos_ += n;
    return out;
  }

  std::vector<std::byte> read_rest() { return read_bytes(data_.size() - pos_); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  /// Reject trailing garbage: decoders of fixed-layout packets call this
  /// after the last field so corrupt frames fail loudly instead of being
  /// silently accepted.
  void expect_end() const {
    if (remaining() != 0) {
      throw std::runtime_error("wire::Reader: trailing bytes in packet");
    }
  }

 private:
  void require(std::size_t n) const {
    // Overflow-safe: compare against what is left, never pos_ + n.
    if (n > data_.size() - pos_) {
      throw std::runtime_error("wire::Reader: truncated packet");
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Largest payload any packet may carry. Length fields on the wire are
/// 32-bit; sizes beyond this would silently truncate through the
/// `static_cast<std::uint32_t>` at encode time, corrupting the length field
/// (the decoder would then mis-frame the stream). Encoders reject instead.
inline constexpr std::size_t kMaxWirePayload = 1u << 30;

/// Hard error on payloads the 32-bit wire length field cannot represent.
inline void require_encodable(std::size_t payload_size) {
  if (payload_size > kMaxWirePayload) {
    throw std::length_error(
        "wire: payload exceeds the maximum encodable size (" +
        std::to_string(payload_size) + " > " +
        std::to_string(kMaxWirePayload) + ")");
  }
}

}  // namespace wire

/// Type tag of packets carried over the UD control channel.
enum class UdMsgType : std::uint8_t {
  kConnectRequest = 1,
  kConnectReply = 2,
};

/// Connection request/reply (Fig. 4). `payload` is opaque to the conduit.
struct ConnectPacket {
  UdMsgType type = UdMsgType::kConnectRequest;
  fabric::RankId src_rank = 0;
  fabric::EndpointAddr rc_addr{};
  std::vector<std::byte> payload{};

  /// Serialize into `out`, reusing its capacity (hot-path variant: callers
  /// that encode repeatedly keep one buffer alive instead of allocating).
  void encode_into(std::vector<std::byte>& out) const {
    wire::require_encodable(payload.size());
    out.clear();
    out.reserve(1 + 4 + 2 + 4 + 4 + payload.size());
    wire::put_u8(out, static_cast<std::uint8_t>(type));
    wire::put_int<std::uint32_t>(out, src_rank);
    wire::put_int<std::uint16_t>(out, rc_addr.lid);
    wire::put_int<std::uint32_t>(out, rc_addr.qpn);
    wire::put_int<std::uint32_t>(out,
                                 static_cast<std::uint32_t>(payload.size()));
    wire::put_bytes(out, payload);
  }

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    encode_into(out);
    return out;
  }

  /// Serialize once into an immutable shared buffer, suitable for reuse
  /// across UD retransmissions and cached-reply resends.
  [[nodiscard]] fabric::UdPayload encode_shared() const {
    return std::make_shared<const std::vector<std::byte>>(encode());
  }

  static ConnectPacket decode(std::span<const std::byte> data) {
    wire::Reader reader(data);
    ConnectPacket packet;
    auto raw_type = reader.read_int<std::uint8_t>();
    if (raw_type != static_cast<std::uint8_t>(UdMsgType::kConnectRequest) &&
        raw_type != static_cast<std::uint8_t>(UdMsgType::kConnectReply)) {
      throw std::runtime_error("ConnectPacket: unknown message type");
    }
    packet.type = static_cast<UdMsgType>(raw_type);
    packet.src_rank = reader.read_int<std::uint32_t>();
    packet.rc_addr.lid = reader.read_int<std::uint16_t>();
    packet.rc_addr.qpn = reader.read_int<std::uint32_t>();
    auto payload_len = reader.read_int<std::uint32_t>();
    if (payload_len > wire::kMaxWirePayload) {
      throw std::runtime_error("ConnectPacket: length field out of range");
    }
    packet.payload = reader.read_bytes(payload_len);
    reader.expect_end();
    return packet;
  }
};

/// Active message carried over an RC connection.
struct AmPacket {
  /// Bytes of header (handler + src_rank) preceding the payload on the wire.
  static constexpr std::size_t kHeaderSize = 2 + 4;

  std::uint16_t handler = 0;
  fabric::RankId src_rank = 0;
  std::vector<std::byte> payload{};

  /// Frame `payload` as an AM in place: the header is inserted at its
  /// front. A sender that reserved `kHeaderSize` spare bytes of capacity
  /// pays no allocation, so one buffer carries the AM from `am_send` to the
  /// handler.
  static void frame(std::vector<std::byte>& payload, std::uint16_t handler,
                    fabric::RankId src_rank) {
    wire::require_encodable(payload.size());
    std::byte header[kHeaderSize];
    std::memcpy(header, &handler, sizeof(handler));
    std::memcpy(header + sizeof(handler), &src_rank, sizeof(src_rank));
    payload.insert(payload.begin(), std::begin(header), std::end(header));
  }

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    out.reserve(kHeaderSize + payload.size());
    out.assign(payload.begin(), payload.end());
    frame(out, handler, src_rank);
    return out;
  }

  static AmPacket decode(std::span<const std::byte> data) {
    wire::Reader reader(data);
    AmPacket packet;
    packet.handler = reader.read_int<std::uint16_t>();
    packet.src_rank = reader.read_int<std::uint32_t>();
    packet.payload = reader.read_rest();
    return packet;
  }

  /// Decode by consuming `data` in place: the payload reuses the delivered
  /// message buffer (header erased from the front) instead of copying it.
  static AmPacket decode_consume(std::vector<std::byte>&& data) {
    wire::Reader reader(data);
    AmPacket packet;
    packet.handler = reader.read_int<std::uint16_t>();
    packet.src_rank = reader.read_int<std::uint32_t>();
    data.erase(data.begin(),
               data.begin() + static_cast<std::ptrdiff_t>(kHeaderSize));
    packet.payload = std::move(data);
    return packet;
  }
};

/// Message kinds of the on-demand registration protocol (DESIGN.md §5.15),
/// carried as active messages on the shmem layer's registration handler.
enum class RegMsgType : std::uint8_t {
  kFaultRequest = 1,   ///< "Register chunk N of your heap and grant me its
                       ///< rkey" — sent on an RMA against a cold chunk.
  kFaultReply = 2,     ///< Grant: chunk N is pinned under `rkey`.
  kInvalidate = 3,     ///< Target evicted chunk N; drop cached `rkey`.
  kInvalidateAck = 4,  ///< Initiator's leases on `rkey` drained; safe to
                       ///< deregister.
};

/// One registration-protocol message. Fixed 13-byte layout
/// (type + chunk + rkey); decode validates the type tag, the rkey domain
/// (grants and notices always carry a non-zero rkey; fault requests carry
/// zero) and rejects trailing bytes, so truncated / type-confused /
/// oversized frames fail loudly (tests/core/wire_fuzz_test.cpp).
struct RegPacket {
  RegMsgType type = RegMsgType::kFaultRequest;
  std::uint32_t chunk = 0;
  fabric::RKey rkey = 0;

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    out.reserve(1 + 4 + 8);
    wire::put_u8(out, static_cast<std::uint8_t>(type));
    wire::put_int<std::uint32_t>(out, chunk);
    wire::put_int<std::uint64_t>(out, rkey);
    return out;
  }

  static RegPacket decode(std::span<const std::byte> data) {
    wire::Reader reader(data);
    RegPacket packet;
    auto raw_type = reader.read_int<std::uint8_t>();
    if (raw_type < static_cast<std::uint8_t>(RegMsgType::kFaultRequest) ||
        raw_type > static_cast<std::uint8_t>(RegMsgType::kInvalidateAck)) {
      throw std::runtime_error("RegPacket: unknown message type");
    }
    packet.type = static_cast<RegMsgType>(raw_type);
    packet.chunk = reader.read_int<std::uint32_t>();
    packet.rkey = reader.read_int<std::uint64_t>();
    reader.expect_end();
    bool wants_rkey = packet.type != RegMsgType::kFaultRequest;
    if (wants_rkey != (packet.rkey != 0)) {
      throw std::runtime_error("RegPacket: rkey/type mismatch");
    }
    return packet;
  }
};

/// Message kinds of the bulk-transfer rendezvous protocol (DESIGN.md §5.17),
/// carried as active messages on the conduit's internal rendezvous handler.
enum class RdvMsgType : std::uint8_t {
  kRts = 1,  ///< Ready-to-send: initiator announces `len` bytes at `raddr`.
  kCts = 2,  ///< Clear-to-send: target posted the sink; carries the rkey set.
  kFin = 3,  ///< Message streams only: every fragment of `seq` has landed.
};

/// Which operation the rendezvous transfers.
enum class RdvOp : std::uint8_t {
  kPut = 1,
  kGet = 2,
  /// Two-sided message: `raddr` is the AM handler id the landed bytes are
  /// delivered to, and a FIN closes the stream.
  kMsg = 3,
};

/// One RTS/CTS/FIN frame. The RTS and FIN carry no ranges (`n == 0`); the
/// CTS answers with the target-resolved `(va, len, rkey)` ranges covering
/// the transfer (one per registration chunk in on-demand registration
/// mode). Decode validates the type/op tags, the RTS/FIN emptiness rule,
/// the CTS coverage rule (ranges sum exactly to `len`), and rejects
/// trailing bytes (tests/core/wire_fuzz_test.cpp).
struct RendezvousPacket {
  struct Range {
    std::uint64_t va = 0;
    std::uint64_t len = 0;
    std::uint64_t rkey = 0;
  };

  RdvMsgType type = RdvMsgType::kRts;
  RdvOp op = RdvOp::kPut;
  std::uint32_t seq = 0;
  std::uint64_t raddr = 0;
  std::uint64_t len = 0;
  std::vector<Range> ranges{};

  [[nodiscard]] std::vector<std::byte> encode() const {
    std::vector<std::byte> out;
    out.reserve(1 + 1 + 4 + 8 + 8 + 2 + ranges.size() * 24);
    wire::put_u8(out, static_cast<std::uint8_t>(type));
    wire::put_u8(out, static_cast<std::uint8_t>(op));
    wire::put_int<std::uint32_t>(out, seq);
    wire::put_int<std::uint64_t>(out, raddr);
    wire::put_int<std::uint64_t>(out, len);
    wire::put_int<std::uint16_t>(out,
                                 static_cast<std::uint16_t>(ranges.size()));
    for (const Range& r : ranges) {
      wire::put_int<std::uint64_t>(out, r.va);
      wire::put_int<std::uint64_t>(out, r.len);
      wire::put_int<std::uint64_t>(out, r.rkey);
    }
    return out;
  }

  static RendezvousPacket decode(std::span<const std::byte> data) {
    wire::Reader reader(data);
    RendezvousPacket packet;
    auto raw_type = reader.read_int<std::uint8_t>();
    if (raw_type < static_cast<std::uint8_t>(RdvMsgType::kRts) ||
        raw_type > static_cast<std::uint8_t>(RdvMsgType::kFin)) {
      throw std::runtime_error("RendezvousPacket: unknown message type");
    }
    packet.type = static_cast<RdvMsgType>(raw_type);
    auto raw_op = reader.read_int<std::uint8_t>();
    if (raw_op < static_cast<std::uint8_t>(RdvOp::kPut) ||
        raw_op > static_cast<std::uint8_t>(RdvOp::kMsg)) {
      throw std::runtime_error("RendezvousPacket: unknown op");
    }
    packet.op = static_cast<RdvOp>(raw_op);
    packet.seq = reader.read_int<std::uint32_t>();
    packet.raddr = reader.read_int<std::uint64_t>();
    packet.len = reader.read_int<std::uint64_t>();
    auto n = reader.read_int<std::uint16_t>();
    packet.ranges.reserve(n);
    for (std::uint16_t i = 0; i < n; ++i) {
      Range r;
      r.va = reader.read_int<std::uint64_t>();
      r.len = reader.read_int<std::uint64_t>();
      r.rkey = reader.read_int<std::uint64_t>();
      packet.ranges.push_back(r);
    }
    reader.expect_end();
    if (packet.type != RdvMsgType::kCts && !packet.ranges.empty()) {
      throw std::runtime_error(
          "RendezvousPacket: only a CTS may carry ranges");
    }
    if (packet.type == RdvMsgType::kCts) {
      // The granted ranges must cover `len` exactly: the initiator walks
      // them with subspans of a `len`-byte buffer, so an inconsistent set
      // (hostile or corrupt) must die here, not at the stream.
      std::uint64_t covered = 0;
      for (const Range& r : packet.ranges) {
        if (r.len > packet.len - covered) {
          throw std::runtime_error(
              "RendezvousPacket: CTS ranges exceed the announced length");
        }
        covered += r.len;
      }
      if (covered != packet.len) {
        throw std::runtime_error(
            "RendezvousPacket: CTS ranges do not cover the announced length");
      }
    }
    return packet;
  }
};

/// Encoding of a UD endpoint address for the PMI key-value store.
inline std::string encode_endpoint(fabric::EndpointAddr addr) {
  std::string out(6, '\0');
  std::memcpy(out.data(), &addr.lid, 2);
  std::memcpy(out.data() + 2, &addr.qpn, 4);
  return out;
}

inline fabric::EndpointAddr decode_endpoint(const std::string& data) {
  if (data.size() != 6) {
    throw std::runtime_error("decode_endpoint: bad length");
  }
  fabric::EndpointAddr addr;
  std::memcpy(&addr.lid, data.data(), 2);
  std::memcpy(&addr.qpn, data.data() + 2, 4);
  return addr;
}

}  // namespace odcm::core
