// Protocol messages (Appendix C.2) plus the control-plane messages of the
// signalling protocol.
//
// Message fields follow the paper's listings exactly; see each struct's
// comment for the corresponding appendix entry. Messages are value types
// carried over the simulated classical channels as serialized bytes
// (codec.hpp), mirroring a TCP-borne wire protocol.
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "qbase/bytes.hpp"
#include "qbase/ids.hpp"
#include "qbase/units.hpp"
#include "qstate/bell.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::netmsg {

/// When the pair is to be consumed (FORWARD.request_type, Appendix C.2).
enum class RequestType : std::uint8_t {
  keep = 0,     ///< deliver only after TRACK confirms creation
  early = 1,    ///< deliver as soon as the local qubit exists
  measure = 2,  ///< QNP measures immediately, withholds outcome until TRACK
};

std::string to_string(RequestType t);

/// FORWARD: propagates a request from the head-end to the tail-end,
/// initiating/updating link layer requests along the path.
struct ForwardMsg {
  CircuitId circuit_id;
  RequestId request_id;
  EndpointId head_end_identifier;
  EndpointId tail_end_identifier;
  RequestType request_type = RequestType::keep;
  /// Measurement basis for MEASURE requests.
  qstate::Basis measure_basis = qstate::Basis::z;
  /// Number of pairs requested; 0 means a rate-based request.
  std::uint64_t number_of_pairs = 0;
  /// Bell state the requester wants pairs delivered in (Pauli correction
  /// at the head-end); unset = any state, announced via tracking.
  std::optional<qstate::BellIndex> final_state;
  /// New total end-to-end rate (EER, pairs/s) required by all active
  /// requests on this circuit.
  double rate = 0.0;

  bool operator==(const ForwardMsg&) const = default;
};

/// COMPLETE: head-to-tail notification that a request finished; updates or
/// terminates link layer requests along the path.
struct CompleteMsg {
  CircuitId circuit_id;
  RequestId request_id;
  EndpointId head_end_identifier;
  EndpointId tail_end_identifier;
  /// New total EER after removing this request.
  double rate = 0.0;

  bool operator==(const CompleteMsg&) const = default;
};

/// TRACK: the per-pair entanglement tracking message, sent in both
/// directions; collects swap records and identifies the end-to-end pair.
struct TrackMsg {
  CircuitId circuit_id;
  RequestId request_id;
  EndpointId head_end_identifier;
  EndpointId tail_end_identifier;
  /// Correlator of the link-pair that begins the chain (at the message's
  /// origin end-node); referenced by EXPIRE.
  PairCorrelator origin_correlator;
  /// Correlator of the link-pair that continues the chain; rewritten at
  /// every swap the message passes.
  PairCorrelator link_correlator;
  /// Running Bell-state estimate; XOR-combined with each swap record.
  qstate::BellIndex outcome_state;
  /// Epoch to activate once this pair is delivered (set by the head-end;
  /// 0 from the tail-end).
  std::uint64_t epoch = 0;
  /// Pair number within the request, assigned by the message's origin
  /// end-node. The head-end's numbering is authoritative: the tail
  /// delivers under the (request, sequence) identity carried by the
  /// head's TRACK so both ends name the pair identically (Sec. 3.2,
  /// "entangled pair identifier").
  std::uint64_t pair_sequence = 0;
  /// Fidelity test round (Sec. 4.1 "Fidelity test rounds"): the receiving
  /// end-node must measure the pair in `test_basis` and report a
  /// TEST_RESULT instead of delivering it.
  bool test_round = false;
  qstate::Basis test_basis = qstate::Basis::z;

  bool operator==(const TrackMsg&) const = default;
};

/// TEST_RESULT: measurement outcome of a fidelity test round, reported to
/// the head-end which accumulates the fidelity estimate.
struct TestResultMsg {
  CircuitId circuit_id;
  /// The head-end origin correlator identifying the test pair.
  PairCorrelator origin_correlator;
  qstate::Basis basis = qstate::Basis::z;
  std::uint8_t outcome = 0;

  bool operator==(const TestResultMsg&) const = default;
};

/// EXPIRE: tells an end-node that the chain its TRACK followed was broken
/// by a cutoff discard, so its own qubit must be released.
struct ExpireMsg {
  CircuitId circuit_id;
  PairCorrelator origin_correlator;

  bool operator==(const ExpireMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Control plane (signalling protocol).
// ---------------------------------------------------------------------------

/// Per-hop state installed by the signalling protocol: one entry of the
/// routing table described in Sec. 4.1 ("Routing table").
struct HopState {
  NodeId node;
  NodeId upstream;    ///< invalid at the head-end
  NodeId downstream;  ///< invalid at the tail-end
  LinkLabel upstream_label;
  LinkLabel downstream_label;
  double downstream_min_fidelity = 0.0;
  double downstream_max_lpr = 0.0;  ///< pairs/s
  double circuit_max_eer = 0.0;     ///< pairs/s
  Duration cutoff;                  ///< qubit cutoff timeout

  bool operator==(const HopState&) const = default;
};

/// INSTALL: source-routed circuit installation carrying the state for
/// every hop; each node peels its entry and forwards the rest.
struct InstallMsg {
  CircuitId circuit_id;
  EndpointId head_end_identifier;
  EndpointId tail_end_identifier;
  double end_to_end_fidelity = 0.0;
  std::vector<HopState> hops;

  bool operator==(const InstallMsg&) const = default;
};

/// INSTALL_ACK: tail-to-head confirmation that the circuit is live.
struct InstallAckMsg {
  CircuitId circuit_id;
  bool accepted = true;
  std::string reason;

  bool operator==(const InstallAckMsg&) const = default;
};

/// TEARDOWN: removes circuit state at every hop.
struct TeardownMsg {
  CircuitId circuit_id;
  std::string reason;

  bool operator==(const TeardownMsg&) const = default;
};

/// KEEPALIVE: transport-level liveness probe (one per circuit hop pair).
struct KeepaliveMsg {
  CircuitId circuit_id;

  bool operator==(const KeepaliveMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Link-state routing (ctrl/linkstate.hpp).
// ---------------------------------------------------------------------------

/// One adjacency advertised in an LSA, carrying the quantum routing
/// metrics of Shi & Qian (arXiv:1909.09329) alongside the scalar cost:
/// the link-pair rate the link can sustain, the best link fidelity it can
/// reach, and how many concurrent circuit slots remain unclaimed.
struct LsaLink {
  NodeId neighbour;
  LinkId link;
  double cost = 1.0;      ///< routing metric (SPF input)
  double max_lpr = 0.0;   ///< achievable link-pair rate (pairs/s)
  double fidelity = 0.0;  ///< highest heralded pair fidelity
  /// Residual concurrent-circuit slots (kUnlimitedSlots = no cap).
  std::uint32_t residual_slots = 0;
  static constexpr std::uint32_t kUnlimitedSlots = 0xFFFFFFFFu;

  bool operator==(const LsaLink&) const = default;
};

/// LSA: one node's view of its own adjacencies, flooded network-wide.
/// Receivers keep the highest sequence number per origin and age entries
/// out `max_age` after the last refresh.
struct LsaMsg {
  NodeId origin;
  std::uint64_t seq = 0;
  Duration max_age;  ///< origin's age-out horizon for this LSA
  std::vector<LsaLink> links;

  bool operator==(const LsaMsg&) const = default;
};

/// One hop's re-signalled admission share (UPDATE payload entry).
struct UpdateHop {
  NodeId node;
  double downstream_max_lpr = 0.0;  ///< new WFQ weight (pairs/s)
  double circuit_max_eer = 0.0;     ///< new end-to-end rate bound

  bool operator==(const UpdateHop&) const = default;
};

/// UPDATE: source-routed admission re-signal. When a later guaranteed
/// circuit shrinks (or a teardown regrows) the residual capacity a
/// best-effort circuit was granted, the controller re-signals the
/// installed hops with their new shares; each node applies its entry and
/// relays downstream. `version` is a per-circuit monotone counter so
/// stale re-orderings are ignored.
struct UpdateMsg {
  CircuitId circuit_id;
  std::uint64_t version = 0;
  std::vector<UpdateHop> hops;

  bool operator==(const UpdateMsg&) const = default;
};

// ---------------------------------------------------------------------------
// Reliable signalling transport (transport.hpp).
// ---------------------------------------------------------------------------

/// FRAME: one hop of the reliable signalling transport. Carries a
/// sequence-numbered payload (an encoded inner Message) plus a cumulative
/// acknowledgement; `seq == 0` is a pure ACK with no payload. The
/// transport retransmits unacknowledged frames, filters duplicates and
/// restores order at the receiver, so the protocol messages above keep
/// their exactly-once in-order contract even over a faulty channel.
struct FrameMsg {
  /// Sequence number of the carried payload (1-based); 0 = pure ACK.
  std::uint64_t seq = 0;
  /// Cumulative acknowledgement: every payload seq <= ack was received.
  std::uint64_t ack = 0;
  /// Encoded inner Message; empty for pure ACKs.
  Bytes payload;

  bool operator==(const FrameMsg&) const = default;
};

/// The alternatives are in wire order: the codec's type byte is index()
/// + 1, so new messages go at the end.
using Message = std::variant<ForwardMsg, CompleteMsg, TrackMsg, ExpireMsg,
                             InstallMsg, InstallAckMsg, TeardownMsg,
                             KeepaliveMsg, TestResultMsg, LsaMsg, UpdateMsg,
                             FrameMsg>;

/// Short human-readable tag for logging.
std::string message_name(const Message& m);

}  // namespace qnetp::netmsg
