#include "netmsg/codec.hpp"

#include <gtest/gtest.h>

#include "qbase/rng.hpp"

namespace qnetp::netmsg {
namespace {

using namespace qnetp::literals;
using qstate::Basis;
using qstate::BellIndex;

template <typename T>
T round_trip(const T& msg) {
  const Bytes wire = encode(Message{msg});
  const Message decoded = decode(wire);
  EXPECT_TRUE(std::holds_alternative<T>(decoded));
  return std::get<T>(decoded);
}

TEST(Codec, ForwardRoundTrip) {
  ForwardMsg m;
  m.circuit_id = CircuitId{7};
  m.request_id = RequestId{42};
  m.head_end_identifier = EndpointId{1};
  m.tail_end_identifier = EndpointId{2};
  m.request_type = RequestType::measure;
  m.measure_basis = Basis::x;
  m.number_of_pairs = 100;
  m.final_state = BellIndex::phi_minus();
  m.rate = 12.5;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, ForwardWithoutOptionalFields) {
  ForwardMsg m;
  m.circuit_id = CircuitId{1};
  m.request_id = RequestId{2};
  m.head_end_identifier = EndpointId{3};
  m.tail_end_identifier = EndpointId{4};
  m.request_type = RequestType::keep;
  m.number_of_pairs = 0;  // rate request
  m.final_state = std::nullopt;
  m.rate = 3.0;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, CompleteRoundTrip) {
  CompleteMsg m;
  m.circuit_id = CircuitId{9};
  m.request_id = RequestId{10};
  m.head_end_identifier = EndpointId{11};
  m.tail_end_identifier = EndpointId{12};
  m.rate = 0.25;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, TrackRoundTrip) {
  TrackMsg m;
  m.circuit_id = CircuitId{3};
  m.request_id = RequestId{4};
  m.head_end_identifier = EndpointId{5};
  m.tail_end_identifier = EndpointId{6};
  m.origin_correlator = PairCorrelator{LinkId{1}, 17};
  m.link_correlator = PairCorrelator{LinkId{2}, 99};
  m.outcome_state = BellIndex::psi_minus();
  m.epoch = 1234;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, ExpireRoundTrip) {
  ExpireMsg m;
  m.circuit_id = CircuitId{5};
  m.origin_correlator = PairCorrelator{LinkId{8}, 3};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, InstallRoundTripWithHops) {
  InstallMsg m;
  m.circuit_id = CircuitId{77};
  m.head_end_identifier = EndpointId{1};
  m.tail_end_identifier = EndpointId{2};
  m.end_to_end_fidelity = 0.9;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    HopState h;
    h.node = NodeId{i};
    h.upstream = (i > 1) ? NodeId{i - 1} : NodeId{};
    h.downstream = (i < 4) ? NodeId{i + 1} : NodeId{};
    h.upstream_label = LinkLabel{100 + i};
    h.downstream_label = LinkLabel{200 + i};
    h.downstream_min_fidelity = 0.95 + 0.001 * static_cast<double>(i);
    h.downstream_max_lpr = 50.0;
    h.circuit_max_eer = 5.0;
    h.cutoff = 30_ms;
    m.hops.push_back(h);
  }
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, InstallAckAndTeardownRoundTrip) {
  InstallAckMsg a;
  a.circuit_id = CircuitId{1};
  a.accepted = false;
  a.reason = "no capacity";
  EXPECT_EQ(round_trip(a), a);

  TeardownMsg t;
  t.circuit_id = CircuitId{2};
  t.reason = "liveness lost";
  EXPECT_EQ(round_trip(t), t);
}

TEST(Codec, KeepaliveRoundTrip) {
  KeepaliveMsg k;
  k.circuit_id = CircuitId{6};
  EXPECT_EQ(round_trip(k), k);
}

TEST(Codec, LsaRoundTrip) {
  LsaMsg m;
  m.origin = NodeId{5};
  m.seq = 987654321;
  m.max_age = 1600_ms;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    LsaLink l;
    l.neighbour = NodeId{10 + i};
    l.link = LinkId{20 + i};
    l.cost = 1.0 + 0.5 * static_cast<double>(i);
    l.max_lpr = 1234.5 * static_cast<double>(i);
    l.fidelity = 0.97;
    l.residual_slots = static_cast<std::uint32_t>(i);
    m.links.push_back(l);
  }
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, LsaUnlimitedSlotsRoundTrip) {
  LsaMsg m;
  m.origin = NodeId{1};
  m.seq = 1;
  m.max_age = 1_s;
  LsaLink l;
  l.neighbour = NodeId{2};
  l.link = LinkId{1};
  l.residual_slots = LsaLink::kUnlimitedSlots;
  m.links.push_back(l);
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, LsaEmptyLinksRoundTrip) {
  // A node with every adjacency severed still originates (that emptiness
  // is the news).
  LsaMsg m;
  m.origin = NodeId{3};
  m.seq = 44;
  m.max_age = 500_ms;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, UpdateRoundTrip) {
  UpdateMsg m;
  m.circuit_id = CircuitId{12};
  m.version = 3;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    UpdateHop h;
    h.node = NodeId{i};
    h.downstream_max_lpr = (i < 4) ? 80.0 / static_cast<double>(i) : 0.0;
    h.circuit_max_eer = 7.5;
    m.hops.push_back(h);
  }
  EXPECT_EQ(round_trip(m), m);
}

TEST(Codec, UnknownTypeRejected) {
  Bytes junk{0xEE, 0x01, 0x02};
  EXPECT_THROW(decode(junk), CodecError);
}

TEST(Codec, TruncatedMessageRejected) {
  ForwardMsg m;
  m.circuit_id = CircuitId{7};
  m.request_id = RequestId{42};
  m.head_end_identifier = EndpointId{1};
  m.tail_end_identifier = EndpointId{2};
  Bytes wire = encode(Message{m});
  wire.resize(wire.size() / 2);
  EXPECT_THROW(decode(wire), CodecError);
}

TEST(Codec, TrailingGarbageRejected) {
  ExpireMsg m;
  m.circuit_id = CircuitId{5};
  m.origin_correlator = PairCorrelator{LinkId{8}, 3};
  Bytes wire = encode(Message{m});
  wire.push_back(0x00);
  EXPECT_THROW(decode(wire), CodecError);
}

TEST(Codec, BadEnumValuesRejected) {
  ForwardMsg m;
  m.circuit_id = CircuitId{7};
  m.request_id = RequestId{42};
  m.head_end_identifier = EndpointId{1};
  m.tail_end_identifier = EndpointId{2};
  Bytes wire = encode(Message{m});
  // Byte layout: type(1) + 4x u64 ids (32) -> request_type at offset 33.
  wire[33] = 9;
  EXPECT_THROW(decode(wire), CodecError);
}

TEST(Codec, MessageNames) {
  EXPECT_EQ(message_name(Message{ForwardMsg{}}), "FORWARD");
  EXPECT_EQ(message_name(Message{TrackMsg{}}), "TRACK");
  EXPECT_EQ(message_name(Message{ExpireMsg{}}), "EXPIRE");
  EXPECT_EQ(message_name(Message{KeepaliveMsg{}}), "KEEPALIVE");
  EXPECT_EQ(message_name(Message{LsaMsg{}}), "LSA");
  EXPECT_EQ(message_name(Message{UpdateMsg{}}), "UPDATE");
}

TEST(Codec, FrameRoundTrip) {
  FrameMsg m;
  m.seq = 17;
  m.ack = 9;
  m.payload = encode(Message{ExpireMsg{}});
  EXPECT_EQ(round_trip(m), m);
  FrameMsg pure_ack;
  pure_ack.ack = 41;
  EXPECT_EQ(round_trip(pure_ack), pure_ack);
}

TEST(Codec, FrameChecksumRejectsMutation) {
  FrameMsg m;
  m.seq = 5;
  m.ack = 3;
  m.payload = encode(Message{KeepaliveMsg{}});
  const Bytes wire = encode(Message{m});
  // Every single-byte mutation anywhere in the frame — header, payload,
  // or the checksum itself — must fail to decode: a mutated frame that
  // decoded would falsely acknowledge unsent sequence numbers.
  for (std::size_t i = 1; i < wire.size(); ++i) {
    for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      Bytes mutated = wire;
      mutated[i] ^= flip;
      EXPECT_THROW(decode(mutated), CodecError)
          << "byte " << i << " flip " << int{flip} << " decoded";
    }
  }
}

/// One representative of every wire message type, with enough fields set
/// to exercise the optional/variable-length paths.
std::vector<Message> all_message_kinds() {
  std::vector<Message> all;
  {
    ForwardMsg m;
    m.circuit_id = CircuitId{7};
    m.request_id = RequestId{42};
    m.head_end_identifier = EndpointId{1};
    m.tail_end_identifier = EndpointId{2};
    m.request_type = RequestType::measure;
    m.measure_basis = Basis::x;
    m.number_of_pairs = 4;
    m.final_state = BellIndex::phi_minus();
    m.rate = 12.5;
    all.emplace_back(m);
  }
  {
    CompleteMsg m;
    m.circuit_id = CircuitId{9};
    m.request_id = RequestId{10};
    m.head_end_identifier = EndpointId{11};
    m.tail_end_identifier = EndpointId{12};
    m.rate = 0.25;
    all.emplace_back(m);
  }
  {
    TrackMsg m;
    m.circuit_id = CircuitId{3};
    m.origin_correlator = PairCorrelator{LinkId{4}, 77};
    m.link_correlator = PairCorrelator{LinkId{5}, 78};
    m.request_id = RequestId{6};
    m.pair_sequence = 2;
    all.emplace_back(m);
  }
  {
    ExpireMsg m;
    m.circuit_id = CircuitId{5};
    m.origin_correlator = PairCorrelator{LinkId{8}, 3};
    all.emplace_back(m);
  }
  {
    InstallMsg m;
    m.circuit_id = CircuitId{21};
    all.emplace_back(m);
  }
  all.emplace_back(InstallAckMsg{});
  all.emplace_back(TeardownMsg{});
  all.emplace_back(KeepaliveMsg{});
  all.emplace_back(TestResultMsg{});
  {
    LsaMsg m;
    m.origin = NodeId{3};
    m.seq = 12;
    all.emplace_back(m);
  }
  all.emplace_back(UpdateMsg{});
  {
    FrameMsg m;
    m.seq = 2;
    m.ack = 1;
    m.payload = encode(Message{ExpireMsg{}});
    all.emplace_back(m);
  }
  return all;
}

TEST(Codec, MutationFuzzAllMessageTypes) {
  // Decode of a mutated-but-well-formed-looking frame must never crash,
  // loop, or corrupt memory: either it throws CodecError or it yields a
  // structurally usable message (re-encodable without throwing).
  const std::vector<Message> kinds = all_message_kinds();
  EXPECT_EQ(kinds.size(), std::variant_size_v<Message>);
  Rng rng(777);
  for (const Message& original : kinds) {
    const Bytes wire = encode(original);
    for (int trial = 0; trial < 400; ++trial) {
      Bytes mutated = wire;
      const std::size_t flips = 1 + rng.uniform_int(3);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.uniform_int(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform_int(255));
      }
      if (mutated == wire) continue;
      try {
        const Message decoded = decode(mutated);
        (void)message_name(decoded);
        (void)encode(decoded);
      } catch (const CodecError&) {
        // expected for most mutations
      }
    }
  }
}

std::string hex(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Every committed digest depends on the wire format (DESIGN.md sec. 5.4),
// and a layout change that encode and decode make together round-trips
// cleanly. So each message type's bytes are pinned here: one populated
// instance per type, plus a FORWARD without final_state and a pure ACK.
TEST(Codec, WireFormatPinned) {
  ForwardMsg forward;
  forward.circuit_id = CircuitId{0x0102030405060708};
  forward.request_id = RequestId{42};
  forward.head_end_identifier = EndpointId{10};
  forward.tail_end_identifier = EndpointId{20};
  forward.request_type = RequestType::early;
  forward.measure_basis = Basis::y;
  forward.number_of_pairs = 300;
  forward.final_state = BellIndex::psi_minus();
  forward.rate = 12.5;
  EXPECT_EQ(hex(encode(Message{forward})),
            "0108070605040302012a000000000000000a00000000000000140000"
            "00000000000102ac0201030000000000002940");

  ForwardMsg rate_based = forward;
  rate_based.request_type = RequestType::measure;
  rate_based.measure_basis = Basis::x;
  rate_based.number_of_pairs = 0;
  rate_based.final_state = std::nullopt;
  rate_based.rate = 0.1;
  EXPECT_EQ(hex(encode(Message{rate_based})),
            "0108070605040302012a000000000000000a00000000000000140000"
            "0000000000020100009a9999999999b93f");

  CompleteMsg complete;
  complete.circuit_id = CircuitId{9};
  complete.request_id = RequestId{1000};
  complete.head_end_identifier = EndpointId{11};
  complete.tail_end_identifier = EndpointId{12};
  complete.rate = -3.75;
  EXPECT_EQ(hex(encode(Message{complete})),
            "020900000000000000e8030000000000000b000000000000000c0000"
            "00000000000000000000000ec0");

  TrackMsg track;
  track.circuit_id = CircuitId{3};
  track.request_id = RequestId{4};
  track.head_end_identifier = EndpointId{5};
  track.tail_end_identifier = EndpointId{6};
  track.origin_correlator = PairCorrelator{LinkId{7}, 129};
  track.link_correlator = PairCorrelator{LinkId{0xFFFFFFFFFFFFFFFF}, 1u << 20};
  track.outcome_state = BellIndex::phi_minus();
  track.epoch = 77;
  track.pair_sequence = 16384;
  track.test_round = true;
  track.test_basis = Basis::x;
  EXPECT_EQ(hex(encode(Message{track})),
            "03030000000000000004000000000000000500000000000000060000"
            "000000000007000000000000008101ffffffffffffffff808040024d"
            "8080010101");

  ExpireMsg expire;
  expire.circuit_id = CircuitId{5};
  expire.origin_correlator = PairCorrelator{LinkId{8}, 3};
  EXPECT_EQ(hex(encode(Message{expire})),
            "040500000000000000080000000000000003");

  InstallMsg install;
  install.circuit_id = CircuitId{77};
  install.head_end_identifier = EndpointId{1};
  install.tail_end_identifier = EndpointId{2};
  install.end_to_end_fidelity = 0.9;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    HopState h;
    h.node = NodeId{i};
    h.upstream = (i > 1) ? NodeId{i - 1} : NodeId{};
    h.downstream = (i < 2) ? NodeId{i + 1} : NodeId{};
    h.upstream_label = LinkLabel{100 + i};
    h.downstream_label = LinkLabel{200 + i};
    h.downstream_min_fidelity = 0.95;
    h.downstream_max_lpr = 50.0 * static_cast<double>(i);
    h.circuit_max_eer = 5.0;
    h.cutoff = 30_ms;
    install.hops.push_back(h);
  }
  EXPECT_EQ(hex(encode(Message{install})),
            "054d0000000000000001000000000000000200000000000000cdcccc"
            "ccccccec3f0201000000000000000000000000000000020000000000"
            "00006500000000000000c900000000000000666666666666ee3f0000"
            "000000004940000000000000144000ac23fc06000000020000000000"
            "0000010000000000000000000000000000006600000000000000ca00"
            "000000000000666666666666ee3f0000000000005940000000000000"
            "144000ac23fc06000000");

  InstallAckMsg ack;
  ack.circuit_id = CircuitId{13};
  ack.accepted = false;
  ack.reason = "no capacity";
  EXPECT_EQ(hex(encode(Message{ack})),
            "060d00000000000000000b6e6f206361706163697479");

  TeardownMsg teardown;
  teardown.circuit_id = CircuitId{14};
  teardown.reason = "link down";
  EXPECT_EQ(hex(encode(Message{teardown})),
            "070e00000000000000096c696e6b20646f776e");

  KeepaliveMsg keepalive;
  keepalive.circuit_id = CircuitId{15};
  EXPECT_EQ(hex(encode(Message{keepalive})),
            "080f00000000000000");

  TestResultMsg result;
  result.circuit_id = CircuitId{16};
  result.origin_correlator = PairCorrelator{LinkId{17}, 200};
  result.basis = Basis::y;
  result.outcome = 1;
  EXPECT_EQ(hex(encode(Message{result})),
            "0910000000000000001100000000000000c8010201");

  LsaMsg lsa;
  lsa.origin = NodeId{5};
  lsa.seq = 987654321;
  lsa.max_age = 1600_ms;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    LsaLink l;
    l.neighbour = NodeId{10 + i};
    l.link = LinkId{20 + i};
    l.cost = 1.5 * static_cast<double>(i);
    l.max_lpr = 1234.5;
    l.fidelity = 0.97;
    l.residual_slots = (i == 1) ? 3u : LsaLink::kUnlimitedSlots;
    lsa.links.push_back(l);
  }
  EXPECT_EQ(hex(encode(Message{lsa})),
            "0a0500000000000000b1d1f9d60300806e8774010000020b00000000"
            "0000001500000000000000000000000000f83f00000000004a93400a"
            "d7a3703d0aef3f030c00000000000000160000000000000000000000"
            "0000084000000000004a93400ad7a3703d0aef3fffffffff0f");

  UpdateMsg update;
  update.circuit_id = CircuitId{12};
  update.version = 300;
  for (std::uint64_t i = 1; i <= 2; ++i) {
    UpdateHop h;
    h.node = NodeId{i};
    h.downstream_max_lpr = 80.0 / static_cast<double>(i);
    h.circuit_max_eer = 7.5;
    update.hops.push_back(h);
  }
  EXPECT_EQ(hex(encode(Message{update})),
            "0b0c00000000000000ac020201000000000000000000000000005440"
            "0000000000001e400200000000000000000000000000444000000000"
            "00001e40");

  FrameMsg frame;
  frame.seq = 200;
  frame.ack = 199;
  frame.payload = encode(Message{expire});
  EXPECT_EQ(hex(encode(Message{frame})),
            "0cc801c70112040500000000000000080000000000000003ccca361c"
            "9a1480a2");

  FrameMsg pure_ack;
  pure_ack.ack = 41;
  EXPECT_EQ(hex(encode(Message{pure_ack})),
            "0c0029006caf730b1a725440");
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.uniform_int(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    try {
      const Message m = decode(junk);
      (void)message_name(m);  // decoded fine: must be usable
    } catch (const CodecError&) {
      // expected for malformed input
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace qnetp::netmsg
