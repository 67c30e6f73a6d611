#include "netmsg/codec.hpp"

#include <concepts>
#include <type_traits>
#include <utility>

#include "qbase/fnv.hpp"

namespace qnetp::netmsg {

namespace {

// FNV-1a over the frame header and payload. Transport frames carry a
// checksum because the fault model flips wire bytes: without it a
// mutated-but-decodable frame could falsely acknowledge unsent sequence
// numbers or hand the engine an altered payload. A mismatch is a codec
// error, so the channel drops the frame and retransmission recovers.
std::uint64_t frame_checksum(std::uint64_t seq, std::uint64_t ack,
                             const Bytes& payload) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_u64(h, seq);
  fnv1a_u64(h, ack);
  fnv1a(h, payload.data(), payload.size());
  return h;
}

/// `M` is `T`, const or not: one field list serves the writer (const
/// messages) and the reader (mutable ones).
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

// ---------------------------------------------------------------------------
// Field lists, in wire order. `io` is a Writer or a Reader; `io(...)`
// writes or reads each field in the encoding its C++ type picks,
// `io.checksum` writes or verifies a trailing checksum, and `io.check` is
// a verdict only the reader enforces.
// ---------------------------------------------------------------------------

void fields(auto& io, Of<PairCorrelator> auto& c) { io(c.link, c.sequence); }

void fields(auto& io, Of<ForwardMsg> auto& m) {
  io(m.circuit_id, m.request_id, m.head_end_identifier, m.tail_end_identifier,
     m.request_type, m.measure_basis, m.number_of_pairs, m.final_state,
     m.rate);
}

void fields(auto& io, Of<CompleteMsg> auto& m) {
  io(m.circuit_id, m.request_id, m.head_end_identifier, m.tail_end_identifier,
     m.rate);
}

void fields(auto& io, Of<TrackMsg> auto& m) {
  io(m.circuit_id, m.request_id, m.head_end_identifier, m.tail_end_identifier,
     m.origin_correlator, m.link_correlator, m.outcome_state, m.epoch,
     m.pair_sequence, m.test_round, m.test_basis);
}

void fields(auto& io, Of<ExpireMsg> auto& m) {
  io(m.circuit_id, m.origin_correlator);
}

void fields(auto& io, Of<HopState> auto& h) {
  io(h.node, h.upstream, h.downstream, h.upstream_label, h.downstream_label,
     h.downstream_min_fidelity, h.downstream_max_lpr, h.circuit_max_eer,
     h.cutoff);
}

void fields(auto& io, Of<InstallMsg> auto& m) {
  io(m.circuit_id, m.head_end_identifier, m.tail_end_identifier,
     m.end_to_end_fidelity, m.hops);
}

void fields(auto& io, Of<InstallAckMsg> auto& m) {
  io(m.circuit_id, m.accepted, m.reason);
}

void fields(auto& io, Of<TeardownMsg> auto& m) { io(m.circuit_id, m.reason); }

void fields(auto& io, Of<KeepaliveMsg> auto& m) { io(m.circuit_id); }

void fields(auto& io, Of<TestResultMsg> auto& m) {
  io(m.circuit_id, m.origin_correlator, m.basis, m.outcome);
  io.check(m.outcome <= 1, "bad outcome bit");
}

void fields(auto& io, Of<LsaLink> auto& l) {
  io(l.neighbour, l.link, l.cost, l.max_lpr, l.fidelity, l.residual_slots);
}

void fields(auto& io, Of<LsaMsg> auto& m) {
  io(m.origin, m.seq, m.max_age, m.links);
}

void fields(auto& io, Of<UpdateHop> auto& h) {
  io(h.node, h.downstream_max_lpr, h.circuit_max_eer);
}

void fields(auto& io, Of<UpdateMsg> auto& m) {
  io(m.circuit_id, m.version, m.hops);
}

void fields(auto& io, Of<FrameMsg> auto& m) {
  io(m.seq, m.ack, m.payload);
  io.checksum(frame_checksum(m.seq, m.ack, m.payload));
  io.check(m.seq != 0 || m.payload.empty(),
           "pure ACK frame carries a payload");
}

// ---------------------------------------------------------------------------
// One encoding per C++ field type (listed in codec.hpp), in each direction.
// ---------------------------------------------------------------------------

struct Writer {
  ByteWriter w;

  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  void check(bool, const char*) {}
  void checksum(std::uint64_t sum) { w.u64(sum); }

  template <class Tag>
  void put(StrongId<Tag> id) { w.u64(id.value()); }
  void put(Duration d) { w.u64(static_cast<std::uint64_t>(d.count_ps())); }
  void put(std::uint64_t n) { w.varint(n); }
  void put(std::uint32_t n) { w.varint(n); }
  void put(std::uint8_t n) { w.u8(n); }
  void put(bool b) { w.boolean(b); }
  void put(double x) { w.f64(x); }
  void put(qstate::BellIndex b) { w.u8(b.code()); }
  void put(RequestType t) { w.u8(static_cast<std::uint8_t>(t)); }
  void put(qstate::Basis b) { w.u8(static_cast<std::uint8_t>(b)); }
  void put(const std::string& s) { w.str(s); }
  void put(const Bytes& b) { w.blob(b); }
  template <class T>
  void put(const std::optional<T>& o) {
    w.boolean(o.has_value());
    if (o) put(*o);
  }
  template <class T>
  void put(const std::vector<T>& list) {
    w.varint(list.size());
    for (const T& e : list) put(e);
  }
  template <class T>
  void put(const T& nested) { fields(*this, nested); }
};

struct Reader {
  ByteReader r;

  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  void check(bool ok, const char* error) {
    if (!ok) throw CodecError(error);
  }
  void checksum(std::uint64_t sum) {
    check(r.u64() == sum, "frame checksum mismatch");
  }

  template <class Tag>
  void get(StrongId<Tag>& id) { id = StrongId<Tag>{r.u64()}; }
  void get(Duration& d) {
    d = Duration::ps(static_cast<std::int64_t>(r.u64()));
  }
  void get(std::uint64_t& n) { n = r.varint(); }
  void get(std::uint32_t& n) {  // LsaLink::residual_slots, the one u32
    const std::uint64_t v = r.varint();
    check(v <= LsaLink::kUnlimitedSlots, "bad slot count");
    n = static_cast<std::uint32_t>(v);
  }
  void get(std::uint8_t& n) { n = r.u8(); }
  void get(bool& b) { b = r.boolean(); }
  void get(double& x) { x = r.f64(); }
  void get(qstate::BellIndex& b) { b = qstate::BellIndex{r.u8()}; }
  void get(RequestType& t) { t = enum_byte<RequestType>("bad request type"); }
  void get(qstate::Basis& b) { b = enum_byte<qstate::Basis>("bad basis"); }
  void get(std::string& s) { s = r.str(); }
  void get(Bytes& b) { b = r.blob(); }
  template <class T>
  void get(std::optional<T>& o) {
    if (r.boolean()) get(o.emplace());
  }
  template <class T>
  void get(std::vector<T>& list) {
    const std::uint64_t n = r.varint();
    check(n <= 4096, std::is_same_v<T, LsaLink> ? "implausible LSA link count"
                                                : "implausible hop count");
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) get(list.emplace_back());
  }
  template <class T>
  void get(T& nested) { fields(*this, nested); }

  template <class E>
  E enum_byte(const char* error) {
    const std::uint8_t raw = r.u8();
    check(raw <= 2, error);  // both wire enums have three values
    return static_cast<E>(raw);
  }
};

}  // namespace

// The type byte is the variant index + 1 (message.hpp keeps the variant
// in wire order).
Bytes encode(const Message& m) {
  Writer out;
  out.w.u8(static_cast<std::uint8_t>(m.index() + 1));
  std::visit([&out](const auto& msg) { fields(out, msg); }, m);
  return std::move(out.w).take();
}

Message decode(const Bytes& bytes) {
  Reader in{ByteReader(bytes)};
  const std::size_t type = in.r.u8();
  in.check(type >= 1 && type <= std::variant_size_v<Message>,
           "unknown message type");
  Message m;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((type == I + 1 ? fields(in, m.emplace<I>()) : void()), ...);
  }(std::make_index_sequence<std::variant_size_v<Message>>());
  in.check(in.r.at_end(), "trailing bytes after message");
  return m;
}

}  // namespace qnetp::netmsg
