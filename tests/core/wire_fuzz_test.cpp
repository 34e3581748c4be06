// Fuzz and negative tests for the wire layer. A UD datagram can arrive
// corrupted, truncated, or adversarially crafted; every decoder must either
// return a fully valid packet or throw — it must never read out of bounds,
// silently accept trailing garbage, or trust an attacker-chosen length
// field. The fuzz loops use the deterministic sim::Rng so any failure is
// replayable from the printed seed.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/wire.hpp"
#include "shmem/types.hpp"
#include "sim/random.hpp"

namespace odcm::core {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

ConnectPacket sample_packet() {
  ConnectPacket packet;
  packet.type = UdMsgType::kConnectRequest;
  packet.src_rank = 42;
  packet.rc_addr = {300, 77777};
  packet.payload = bytes_of({9, 8, 7, 6, 5});
  return packet;
}

// ---- wire::Reader primitives ----

TEST(WireReader, ReadPastEndThrows) {
  auto data = bytes_of({1, 2, 3});
  wire::Reader reader(data);
  EXPECT_EQ(reader.read_int<std::uint16_t>(), 0x0201u);
  EXPECT_THROW(reader.read_int<std::uint32_t>(), std::runtime_error);
}

TEST(WireReader, ReadBytesHugeCountThrows) {
  auto data = bytes_of({1, 2, 3, 4});
  wire::Reader reader(data);
  EXPECT_THROW(reader.read_bytes(5), std::runtime_error);
  // A count that would overflow pos_ + n must not wrap around the check.
  wire::Reader reader2(data);
  (void)reader2.read_int<std::uint8_t>();
  EXPECT_THROW(reader2.read_bytes(~std::size_t{0}), std::runtime_error);
}

TEST(WireReader, ExpectEndRejectsTrailingBytes) {
  auto data = bytes_of({1, 2, 3});
  wire::Reader reader(data);
  (void)reader.read_int<std::uint16_t>();
  EXPECT_THROW(reader.expect_end(), std::runtime_error);
  (void)reader.read_int<std::uint8_t>();
  EXPECT_NO_THROW(reader.expect_end());
}

TEST(WireReader, EmptyBufferBehaves) {
  std::vector<std::byte> empty;
  wire::Reader reader(empty);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_NO_THROW(reader.expect_end());
  EXPECT_TRUE(reader.read_rest().empty());
  EXPECT_THROW(reader.read_int<std::uint8_t>(), std::runtime_error);
}

// ---- ConnectPacket decoder ----

TEST(ConnectPacketFuzz, EveryTruncationThrows) {
  std::vector<std::byte> encoded = sample_packet().encode();
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::span<const std::byte> prefix(encoded.data(), len);
    EXPECT_THROW(ConnectPacket::decode(prefix), std::runtime_error)
        << "prefix of length " << len << " decoded without error";
  }
  EXPECT_NO_THROW(ConnectPacket::decode(encoded));
}

TEST(ConnectPacketFuzz, TrailingGarbageThrows) {
  std::vector<std::byte> encoded = sample_packet().encode();
  encoded.push_back(std::byte{0xAB});
  EXPECT_THROW(ConnectPacket::decode(encoded), std::runtime_error);
}

TEST(ConnectPacketFuzz, UnknownTypeByteThrows) {
  std::vector<std::byte> encoded = sample_packet().encode();
  for (int bad : {0, 3, 4, 127, 255}) {
    encoded[0] = static_cast<std::byte>(bad);
    EXPECT_THROW(ConnectPacket::decode(encoded), std::runtime_error)
        << "type byte " << bad << " accepted";
  }
}

TEST(ConnectPacketFuzz, OversizedLengthFieldThrows) {
  // The payload length field claims more bytes than the datagram holds;
  // the decoder must throw instead of reading past the buffer (or
  // allocating an attacker-chosen amount).
  std::vector<std::byte> encoded = sample_packet().encode();
  const std::size_t len_offset = 1 + 4 + 2 + 4;
  for (std::uint32_t claimed : {6u, 100u, 0x7fffffffu, 0xffffffffu}) {
    std::memcpy(encoded.data() + len_offset, &claimed, 4);
    EXPECT_THROW(ConnectPacket::decode(encoded), std::runtime_error)
        << "claimed payload length " << claimed << " accepted";
  }
}

TEST(ConnectPacketFuzz, UndersizedLengthFieldThrows) {
  // A length field smaller than the actual payload leaves trailing bytes,
  // which expect_end() must reject.
  std::vector<std::byte> encoded = sample_packet().encode();
  const std::size_t len_offset = 1 + 4 + 2 + 4;
  std::uint32_t claimed = 2;  // real payload is 5 bytes
  std::memcpy(encoded.data() + len_offset, &claimed, 4);
  EXPECT_THROW(ConnectPacket::decode(encoded), std::runtime_error);
}

TEST(ConnectPacketFuzz, RandomBytesNeverReadOutOfBounds) {
  // Feed random buffers of random sizes. Decode may succeed (if the bytes
  // happen to form a valid packet) or throw std::runtime_error; anything
  // else — in particular a crash under ASan — is a bug.
  sim::Rng rng(0xF022u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::size_t size = rng.next_below(64);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    try {
      ConnectPacket packet = ConnectPacket::decode(data);
      // If it decoded, it must re-encode to exactly the input.
      EXPECT_EQ(packet.encode(), data) << "iter " << iter;
    } catch (const std::runtime_error&) {
      // Expected for malformed input.
    }
  }
}

TEST(ConnectPacketFuzz, RandomValidPacketsRoundTrip) {
  sim::Rng rng(0xF023u);
  for (int iter = 0; iter < 500; ++iter) {
    ConnectPacket packet;
    packet.type = rng.chance(0.5) ? UdMsgType::kConnectRequest
                                  : UdMsgType::kConnectReply;
    packet.src_rank = static_cast<fabric::RankId>(rng.next_u64());
    packet.rc_addr.lid = static_cast<fabric::Lid>(rng.next_u64());
    packet.rc_addr.qpn = static_cast<fabric::Qpn>(rng.next_u64());
    packet.payload.resize(rng.next_below(48));
    for (auto& b : packet.payload) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    ConnectPacket decoded = ConnectPacket::decode(packet.encode());
    EXPECT_EQ(decoded.type, packet.type);
    EXPECT_EQ(decoded.src_rank, packet.src_rank);
    EXPECT_EQ(decoded.rc_addr, packet.rc_addr);
    EXPECT_EQ(decoded.payload, packet.payload);
  }
}

// ---- AmPacket decoder ----

TEST(AmPacketFuzz, HeaderTruncationThrows) {
  AmPacket packet;
  packet.handler = 7;
  packet.src_rank = 3;
  packet.payload = bytes_of({1, 2, 3});
  std::vector<std::byte> encoded = packet.encode();
  for (std::size_t len = 0; len < 6; ++len) {  // header is 2 + 4 bytes
    std::span<const std::byte> prefix(encoded.data(), len);
    EXPECT_THROW(AmPacket::decode(prefix), std::runtime_error)
        << "prefix of length " << len << " decoded without error";
  }
  AmPacket decoded = AmPacket::decode(encoded);
  EXPECT_EQ(decoded.handler, 7u);
  EXPECT_EQ(decoded.payload, packet.payload);
}

TEST(AmPacketFuzz, RandomBuffersRoundTripOrThrow) {
  sim::Rng rng(0xA3u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::size_t size = rng.next_below(32);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    try {
      AmPacket packet = AmPacket::decode(data);
      EXPECT_EQ(packet.encode(), data) << "iter " << iter;
    } catch (const std::runtime_error&) {
      EXPECT_LT(size, 6u) << "iter " << iter
                          << ": complete header rejected";
    }
  }
}

// ---- RegPacket decoder (on-demand registration protocol) ----

RegPacket sample_reg_packet() {
  RegPacket packet;
  packet.type = RegMsgType::kFaultReply;
  packet.chunk = 17;
  packet.rkey = 0xDEADBEEF01ULL;
  return packet;
}

TEST(RegPacketFuzz, EveryTruncationThrows) {
  std::vector<std::byte> wire = sample_reg_packet().encode();
  ASSERT_EQ(wire.size(), 13u);  // u8 type + u32 chunk + u64 rkey
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::vector<std::byte> cut(wire.begin(),
                               wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(RegPacket::decode(cut), std::runtime_error)
        << "truncation to " << len << " bytes accepted";
  }
}

TEST(RegPacketFuzz, TrailingGarbageThrows) {
  std::vector<std::byte> wire = sample_reg_packet().encode();
  wire.push_back(std::byte{0x5a});
  EXPECT_THROW(RegPacket::decode(wire), std::runtime_error);
}

TEST(RegPacketFuzz, UnknownTypeByteThrows) {
  // Type confusion: 0 and anything above kInvalidateAck must be rejected
  // before the rkey field is even looked at.
  std::vector<std::byte> wire = sample_reg_packet().encode();
  for (int bad : {0, 5, 6, 127, 255}) {
    wire[0] = static_cast<std::byte>(bad);
    EXPECT_THROW(RegPacket::decode(wire), std::runtime_error)
        << "type byte " << bad << " accepted";
  }
}

TEST(RegPacketFuzz, RkeyDomainMismatchThrows) {
  // A fault *request* carries no rkey; every other type must carry one.
  // A request smuggling an rkey (or a grant/notice with rkey 0) is a
  // protocol violation, not a decodable packet.
  RegPacket request;
  request.type = RegMsgType::kFaultRequest;
  request.chunk = 3;
  request.rkey = 1234;
  EXPECT_THROW(RegPacket::decode(request.encode()), std::runtime_error);

  for (RegMsgType type : {RegMsgType::kFaultReply, RegMsgType::kInvalidate,
                          RegMsgType::kInvalidateAck}) {
    RegPacket keyless;
    keyless.type = type;
    keyless.chunk = 3;
    keyless.rkey = 0;
    EXPECT_THROW(RegPacket::decode(keyless.encode()), std::runtime_error)
        << "rkey 0 accepted for type " << static_cast<int>(type);
  }
}

TEST(RegPacketFuzz, RandomBytesNeverReadOutOfBounds) {
  sim::Rng rng(0xF024u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::size_t size = rng.next_below(32);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    try {
      RegPacket packet = RegPacket::decode(data);
      EXPECT_EQ(packet.encode(), data) << "iter " << iter;
    } catch (const std::runtime_error&) {
      // Expected for malformed input.
    }
  }
}

TEST(RegPacketFuzz, RandomValidPacketsRoundTrip) {
  sim::Rng rng(0xF025u);
  for (int iter = 0; iter < 500; ++iter) {
    RegPacket packet;
    packet.type = static_cast<RegMsgType>(1 + rng.next_below(4));
    packet.chunk = static_cast<std::uint32_t>(rng.next_u64());
    packet.rkey = packet.type == RegMsgType::kFaultRequest
                      ? 0
                      : rng.next_u64() | 1;  // non-zero
    RegPacket decoded = RegPacket::decode(packet.encode());
    EXPECT_EQ(decoded.type, packet.type);
    EXPECT_EQ(decoded.chunk, packet.chunk);
    EXPECT_EQ(decoded.rkey, packet.rkey);
  }
}

// ---- encode-side length guard (ISSUE 9 wire-length bugfix) ----

TEST(WireLengthGuard, RequireEncodableRejectsOversizedPayloads) {
  EXPECT_NO_THROW(wire::require_encodable(0));
  EXPECT_NO_THROW(wire::require_encodable(wire::kMaxWirePayload));
  EXPECT_THROW(wire::require_encodable(wire::kMaxWirePayload + 1),
               std::length_error);
  EXPECT_THROW(wire::require_encodable(~std::size_t{0}), std::length_error);
}

TEST(WireLengthGuard, ConnectPacketEncodeRejectsUntruncatablePayload) {
  // Regression: the payload length used to be narrowed through
  // static_cast<uint32_t> at encode time, so a payload one byte past the
  // cap would write a corrupt length field instead of failing. The encoder
  // must throw before emitting a single byte.
  ConnectPacket packet = sample_packet();
  packet.payload.resize(wire::kMaxWirePayload + 1);
  EXPECT_THROW(packet.encode(), std::length_error);
  std::vector<std::byte> out;
  EXPECT_THROW(packet.encode_into(out), std::length_error);
}

TEST(WireLengthGuard, DecodeRejectsLengthFieldBeyondCap) {
  // The matching decode-side rule: a length field that claims more than
  // kMaxWirePayload is rejected up front, even if (on a hypothetical jumbo
  // frame) the buffer actually held that many bytes.
  std::vector<std::byte> encoded = sample_packet().encode();
  const std::size_t len_offset = 1 + 4 + 2 + 4;
  const auto claimed =
      static_cast<std::uint32_t>(wire::kMaxWirePayload + 1);
  std::memcpy(encoded.data() + len_offset, &claimed, 4);
  EXPECT_THROW(ConnectPacket::decode(encoded), std::runtime_error);
}

// ---- RendezvousPacket decoder (large-message tiering protocol) ----

RendezvousPacket sample_cts() {
  RendezvousPacket packet;
  packet.type = RdvMsgType::kCts;
  packet.op = RdvOp::kPut;
  packet.seq = 9;
  packet.raddr = 0x1000;
  packet.len = 5000;
  packet.ranges.push_back({0x1000, 4096, 0xAA01});
  packet.ranges.push_back({0x2000, 904, 0xAA02});
  return packet;
}

TEST(RendezvousPacketFuzz, EveryTruncationThrows) {
  std::vector<std::byte> encoded = sample_cts().encode();
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    std::span<const std::byte> prefix(encoded.data(), len);
    EXPECT_THROW(RendezvousPacket::decode(prefix), std::runtime_error)
        << "prefix of length " << len << " decoded without error";
  }
  EXPECT_NO_THROW(RendezvousPacket::decode(encoded));
}

TEST(RendezvousPacketFuzz, TrailingGarbageThrows) {
  std::vector<std::byte> encoded = sample_cts().encode();
  encoded.push_back(std::byte{0x77});
  EXPECT_THROW(RendezvousPacket::decode(encoded), std::runtime_error);
}

TEST(RendezvousPacketFuzz, UnknownTypeOrOpThrows) {
  std::vector<std::byte> encoded = sample_cts().encode();
  for (int bad : {0, 4, 5, 127, 255}) {
    std::vector<std::byte> mutated = encoded;
    mutated[0] = static_cast<std::byte>(bad);
    EXPECT_THROW(RendezvousPacket::decode(mutated), std::runtime_error)
        << "type byte " << bad << " accepted";
  }
  for (int bad : {0, 4, 5, 200}) {
    std::vector<std::byte> mutated = encoded;
    mutated[1] = static_cast<std::byte>(bad);
    EXPECT_THROW(RendezvousPacket::decode(mutated), std::runtime_error)
        << "op byte " << bad << " accepted";
  }
}

TEST(RendezvousPacketFuzz, RangeCountMismatchThrows) {
  // The range-count field claims more (or fewer) ranges than the frame
  // holds: more must hit the truncation check, fewer the trailing-bytes
  // check. Neither may mis-frame silently.
  std::vector<std::byte> encoded = sample_cts().encode();
  const std::size_t count_offset = 1 + 1 + 4 + 8 + 8;
  for (std::uint16_t claimed : {std::uint16_t{3}, std::uint16_t{0xffff}}) {
    std::vector<std::byte> mutated = encoded;
    std::memcpy(mutated.data() + count_offset, &claimed, 2);
    EXPECT_THROW(RendezvousPacket::decode(mutated), std::runtime_error)
        << "claimed range count " << claimed << " accepted";
  }
  std::uint16_t fewer = 1;
  std::memcpy(encoded.data() + count_offset, &fewer, 2);
  EXPECT_THROW(RendezvousPacket::decode(encoded), std::runtime_error);
}

TEST(RendezvousPacketFuzz, CtsRangeCoverageMismatchThrows) {
  // The initiator subspans a `len`-byte buffer by the CTS ranges, so a
  // range set covering more or fewer bytes than announced must die at
  // decode, before any fragment is issued.
  RendezvousPacket packet = sample_cts();  // ranges cover 5000 bytes
  packet.len = 4999;  // ranges overshoot the transfer
  EXPECT_THROW(RendezvousPacket::decode(packet.encode()), std::runtime_error);
  packet.len = 5001;  // ranges undershoot the transfer
  EXPECT_THROW(RendezvousPacket::decode(packet.encode()), std::runtime_error);
  packet.len = 5000;
  EXPECT_NO_THROW(RendezvousPacket::decode(packet.encode()));
}

TEST(RendezvousPacketFuzz, RtsWithRangesThrows) {
  RendezvousPacket rts = sample_cts();
  rts.type = RdvMsgType::kRts;  // RTS must carry no ranges
  EXPECT_THROW(RendezvousPacket::decode(rts.encode()), std::runtime_error);
  rts.ranges.clear();
  EXPECT_NO_THROW(RendezvousPacket::decode(rts.encode()));
}

TEST(RendezvousPacketFuzz, FinCarriesNoRanges) {
  // A FIN names a finished message stream by `seq` only: a range set on it
  // is a type confusion, and the type byte after kFin is still unknown.
  RendezvousPacket fin = sample_cts();
  fin.type = RdvMsgType::kFin;
  fin.op = RdvOp::kMsg;
  EXPECT_THROW(RendezvousPacket::decode(fin.encode()), std::runtime_error);
  fin.ranges.clear();
  std::vector<std::byte> encoded = fin.encode();
  RendezvousPacket decoded = RendezvousPacket::decode(encoded);
  EXPECT_EQ(decoded.type, RdvMsgType::kFin);
  EXPECT_EQ(decoded.seq, fin.seq);
  encoded[0] = static_cast<std::byte>(
      static_cast<std::uint8_t>(RdvMsgType::kFin) + 1);
  EXPECT_THROW(RendezvousPacket::decode(encoded), std::runtime_error);
}

TEST(RendezvousPacketFuzz, RandomBytesNeverReadOutOfBounds) {
  sim::Rng rng(0xF026u);
  for (int iter = 0; iter < 2000; ++iter) {
    std::size_t size = rng.next_below(96);
    std::vector<std::byte> data(size);
    for (auto& b : data) {
      b = static_cast<std::byte>(rng.next_below(256));
    }
    try {
      RendezvousPacket packet = RendezvousPacket::decode(data);
      EXPECT_EQ(packet.encode(), data) << "iter " << iter;
    } catch (const std::runtime_error&) {
      // Expected for malformed input.
    }
  }
}

TEST(RendezvousPacketFuzz, RandomValidPacketsRoundTrip) {
  sim::Rng rng(0xF027u);
  for (int iter = 0; iter < 500; ++iter) {
    RendezvousPacket packet;
    packet.type = static_cast<RdvMsgType>(1 + rng.next_below(3));
    packet.op = static_cast<RdvOp>(1 + rng.next_below(3));
    packet.seq = static_cast<std::uint32_t>(rng.next_u64());
    packet.raddr = rng.next_u64();
    packet.len = rng.next_u64();
    if (packet.type == RdvMsgType::kCts) {
      // CTS ranges must cover `len` exactly (the decoder enforces it).
      std::size_t n = rng.next_below(5);
      packet.len = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t range_len = 1 + rng.next_below(1u << 20);
        packet.ranges.push_back({rng.next_u64(), range_len, rng.next_u64()});
        packet.len += range_len;
      }
    }
    RendezvousPacket decoded = RendezvousPacket::decode(packet.encode());
    EXPECT_EQ(decoded.type, packet.type);
    EXPECT_EQ(decoded.op, packet.op);
    EXPECT_EQ(decoded.seq, packet.seq);
    EXPECT_EQ(decoded.raddr, packet.raddr);
    EXPECT_EQ(decoded.len, packet.len);
    ASSERT_EQ(decoded.ranges.size(), packet.ranges.size());
    for (std::size_t i = 0; i < packet.ranges.size(); ++i) {
      EXPECT_EQ(decoded.ranges[i].va, packet.ranges[i].va);
      EXPECT_EQ(decoded.ranges[i].len, packet.ranges[i].len);
      EXPECT_EQ(decoded.ranges[i].rkey, packet.ranges[i].rkey);
    }
  }
}

// ---- PMI endpoint encoding ----

TEST(EndpointCodec, BadLengthsThrow) {
  for (std::size_t len : {0u, 1u, 5u, 7u, 64u}) {
    std::string data(len, '\x5a');
    EXPECT_THROW(decode_endpoint(data), std::runtime_error)
        << "length " << len << " accepted";
  }
}

TEST(EndpointCodec, RoundTrips) {
  sim::Rng rng(0xE9u);
  for (int iter = 0; iter < 200; ++iter) {
    fabric::EndpointAddr addr;
    addr.lid = static_cast<fabric::Lid>(rng.next_u64());
    addr.qpn = static_cast<fabric::Qpn>(rng.next_u64());
    EXPECT_EQ(decode_endpoint(encode_endpoint(addr)), addr);
  }
}

// ---- OpenSHMEM segment payloads (connection-handshake piggyback) ----

TEST(SegmentPayload, TruncationAndTrailingGarbageThrow) {
  const shmem::SegmentInfo info{0x1000, 65536, 42};
  const std::vector<std::byte> bytes = info.serialize();
  ASSERT_EQ(bytes.size(), shmem::SegmentInfo::kWireBytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(shmem::SegmentInfo::deserialize(
                     std::span<const std::byte>(bytes).first(len)),
                 std::runtime_error)
        << "truncated triplet of " << len << " bytes accepted";
  }
  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(shmem::SegmentInfo::deserialize(trailing), std::runtime_error);
  const shmem::SegmentInfo back = shmem::SegmentInfo::deserialize(bytes);
  EXPECT_EQ(back.addr, info.addr);
  EXPECT_EQ(back.size, info.size);
  EXPECT_EQ(back.rkey, info.rkey);
}

TEST(RegHandshakePayload, TruncationAndTrailingGarbageThrow) {
  shmem::RegHandshakePayload payload;
  payload.segment = {0x2000, 1 << 20, 0};
  payload.hot_chunks = {{0, 7}, {3, 9}};
  const std::vector<std::byte> bytes = payload.encode();
  // Every strict prefix is short somewhere: in the triplet, the count, or
  // an entry the count promises.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(shmem::RegHandshakePayload::decode(
                     std::span<const std::byte>(bytes).first(len)),
                 std::runtime_error)
        << "truncated payload of " << len << " bytes accepted";
  }
  std::vector<std::byte> trailing = bytes;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(shmem::RegHandshakePayload::decode(trailing),
               std::runtime_error);
  // A count larger than the entries present.
  std::vector<std::byte> lying = bytes;
  lying[shmem::SegmentInfo::kWireBytes] = std::byte{3};
  EXPECT_THROW(shmem::RegHandshakePayload::decode(lying), std::runtime_error);

  const shmem::RegHandshakePayload back =
      shmem::RegHandshakePayload::decode(bytes);
  EXPECT_EQ(back.segment.addr, payload.segment.addr);
  EXPECT_EQ(back.hot_chunks, payload.hot_chunks);
}

}  // namespace
}  // namespace odcm::core
