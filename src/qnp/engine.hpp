// QnpEngine: the Quantum Network Protocol data-plane engine of one node
// (Sec. 4 and Appendix C of the paper).
//
// One engine instance runs at every node. Depending on the installed
// virtual circuit's geometry the node plays the head-end, tail-end or
// intermediate role; the engine implements the LINK / TRACK / EXPIRE
// rules of Algorithms 1-9 plus FORWARD / COMPLETE processing, cutoff
// timers, epochs, the symmetric demultiplexer with cross-checks,
// policing/shaping, KEEP/EARLY/MEASURE delivery, Pauli corrections,
// fidelity test rounds and the signalling (INSTALL/TEARDOWN) handling.
//
// Protocol interpretation notes (where the paper leaves freedom) are in
// DESIGN.md section 6; the main ones:
//  * the head-end's (request, sequence) assignment is authoritative: the
//    tail delivers under the identity carried by the head's TRACK, and
//    its own demultiplexer assignment is used only for the cross-check;
//  * when an end-node has no active request for a new link-pair, it sends
//    a TRACK with an invalid request id so the far end can release the
//    partner qubit (instead of leaking it);
//  * all per-correlator record maps live in time-wheel-indexed FlowTables
//    and are retired wholesale (expire_all) after 8x the cutoff time,
//    bounding state held for chains that broke elsewhere.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "des/simulator.hpp"
#include "linklayer/egp.hpp"
#include "netmsg/message.hpp"
#include "qbase/ids.hpp"
#include "qbase/rng.hpp"
#include "qdevice/device.hpp"
#include "qnp/config.hpp"
#include "qnp/demux.hpp"
#include "qnp/fidelity_estimator.hpp"
#include "qnp/flow_table.hpp"
#include "qnp/request.hpp"

namespace qnetp::qnp {

/// Per-engine statistics; the evaluation harness reads these.
struct QnpCounters {
  std::uint64_t link_pairs_received = 0;
  std::uint64_t swaps_started = 0;
  std::uint64_t swaps_completed = 0;
  std::uint64_t tracks_forwarded = 0;
  std::uint64_t tracks_originated = 0;
  std::uint64_t pairs_delivered = 0;
  std::uint64_t pairs_discarded_cutoff = 0;     ///< intermediate cutoffs
  std::uint64_t pairs_discarded_unassigned = 0; ///< no active request
  std::uint64_t expires_sent = 0;
  std::uint64_t expires_received = 0;
  std::uint64_t cross_check_failures = 0;
  std::uint64_t oracle_discards = 0;  ///< baseline mode only
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_shaped = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_aborted = 0;  ///< open at the head when torn down
  std::uint64_t test_rounds_completed = 0;
  std::uint64_t early_deliveries = 0;
  std::uint64_t updates_applied = 0;  ///< admission UPDATEs applied here
};

/// Census of the engine's flow-table records; the soak bench asserts
/// flatness (peak within a small factor of steady state) on it.
struct EngineOccupancy {
  std::uint64_t live = 0;               ///< records held right now
  std::uint64_t peak = 0;               ///< high-water mark of `live`
  std::uint64_t expired_wholesale = 0;  ///< dropped by wholesale expiry
};

class QnpEngine {
 public:
  QnpEngine(des::Simulator& sim, Rng& rng, qdevice::QuantumDevice& device,
            QnpConfig config = QnpConfig{});

  NodeId node() const { return device_.node(); }
  const QnpConfig& config() const { return config_; }
  const QnpCounters& counters() const { return counters_; }

  /// Flow-table record census across all circuits (includes tables of
  /// already-torn-down circuits in the cumulative fields).
  EngineOccupancy occupancy() const;

  /// Cross-checks the counters against each other and the live request
  /// state (accepted == completed + aborted + still-active); returns an
  /// explanation of the first violated invariant, or "" when consistent.
  /// Debug builds assert it on the record-GC path; the soak bench and
  /// traffic trials assert it in every build type.
  std::string consistency_check() const;

  // --- Wiring (done once by the network assembly) --------------------------

  /// Classical message transmission toward a neighbour.
  using SendFn = std::function<void(NodeId to, const netmsg::Message&)>;
  void set_send(SendFn fn) { send_ = std::move(fn); }

  /// Resolve the EGP link shared with a neighbouring node.
  using EgpLookupFn = std::function<linklayer::EgpLink*(NodeId neighbour)>;
  void set_egp_lookup(EgpLookupFn fn) { egp_lookup_ = std::move(fn); }

  /// Head-end notification that a circuit finished installing.
  using CircuitUpFn = std::function<void(CircuitId, bool ok,
                                         const std::string& reason)>;
  void set_on_circuit_up(CircuitUpFn fn) { on_circuit_up_ = std::move(fn); }

  /// Fired whenever this engine removes a circuit's local state (its own
  /// teardown() or a received TEARDOWN). The network assembly routes it
  /// to Controller::release_circuit so engine-initiated teardowns return
  /// their admitted capacity — without this, liveness-triggered
  /// teardowns silently leak it. May fire at several nodes for one
  /// circuit; the listener must tolerate duplicates.
  using TeardownFn =
      std::function<void(CircuitId, const std::string& reason)>;
  void set_on_teardown(TeardownFn fn) { on_teardown_ = std::move(fn); }

  // --- Application interface (end-nodes) -----------------------------------

  void register_endpoint(EndpointId endpoint, EndpointHandlers handlers);

  /// Submit a request at the head-end of `circuit`. Applies the policing
  /// rules: returns false (with reason) for requests that can never be
  /// satisfied; shapes (queues) deadline-less requests that do not fit
  /// right now.
  bool submit_request(CircuitId circuit, const AppRequest& request,
                      std::string* reason = nullptr);

  /// Return an application-owned qubit (from a KEEP/EARLY delivery) to
  /// the network after use.
  void release_app_qubit(QubitId qubit);

  /// Measure an application-owned qubit in `basis`; consumes the qubit
  /// and reports the outcome. Equivalent to measuring via the device and
  /// then releasing, but keeps the engine's bookkeeping consistent.
  void measure_app_qubit(QubitId qubit, qstate::Basis basis,
                         std::function<void(int)> done);

  /// Current end-to-end fidelity estimate from test rounds (head-end).
  const FidelityEstimator* fidelity_estimate(CircuitId circuit) const;

  // --- Data plane entry points (wired by the network assembly) -------------

  /// Inbound classical message.
  void on_message(NodeId from, const netmsg::Message& msg);

  /// Inbound link-pair from the link layer.
  void on_link_pair(const linklayer::LinkPairDelivery& delivery);

  // --- Circuit management ---------------------------------------------------

  /// Install circuit state directly (manual table population, Sec. 5.3)
  /// for the hop describing THIS node.
  void install_hop(const netmsg::InstallMsg& install,
                   const netmsg::HopState& hop);

  /// Start source-routed installation from the head-end: installs the
  /// local hop and forwards the INSTALL downstream.
  void begin_install(const netmsg::InstallMsg& install);

  /// Tear down a circuit locally and propagate in both directions.
  void teardown(CircuitId circuit, const std::string& reason);

  /// Runtime churn: the link toward `neighbour` went down. Tears down
  /// every circuit routed over it (TEARDOWNs toward the dead side are
  /// dropped by the severed channel; the far side initiates its own).
  void on_link_down(NodeId neighbour);

  /// Apply an admission UPDATE at the head-end and relay it downstream
  /// (the controller's residual re-signalling path).
  void begin_update(const netmsg::UpdateMsg& update);

  /// The re-signallable rates of an installed circuit (nullopt when the
  /// circuit is unknown at this node).
  struct CircuitRates {
    double downstream_max_lpr = 0.0;
    double circuit_max_eer = 0.0;
  };
  std::optional<CircuitRates> circuit_rates(CircuitId circuit) const;

  bool has_circuit(CircuitId circuit) const;

 private:
  // -- Per-circuit state ------------------------------------------------------

  /// A link-pair waiting at an intermediate node for its partner.
  struct QueuedPair {
    PairCorrelator correlator;
    QubitId qubit;
    qstate::BellIndex announced;
    des::ScopedTimer cutoff;  ///< inert in baseline mode / at end-nodes
  };

  /// Swap record (Appendix C "Swap records"), stored per direction keyed
  /// by the consumed pair's correlator on that side. Lifetime stamps live
  /// in the FlowTable holding it.
  struct SwapRecord {
    PairCorrelator other_correlator;
    qstate::BellIndex other_announced;
    qstate::BellIndex swap_outcome;
  };

  /// A cutoff-expired correlator awaiting its TRACK; the creation stamp
  /// kept by the FlowTable is the only payload.
  struct ExpireMark {};

  /// End-node bookkeeping for one local link-pair (in_transit of Alg 1-6).
  struct InTransit {
    RequestId request{};        ///< invalid = unassigned (null TRACK)
    std::uint64_t sequence = 0; ///< head-end numbering
    QubitId qubit;              ///< invalid once measured or early-given
    qdevice::PairPtr pair;      ///< oracle handle
    bool early_delivered = false;
    bool is_measure = false;    ///< MEASURE request: outcome withheld
    bool measured = false;
    int outcome = -1;
    bool is_test = false;
    qstate::Basis test_basis = qstate::Basis::z;
    // Delivery deferral when the TRACK beats the measurement completion.
    bool track_received = false;
    netmsg::TrackMsg final_track{};
  };

  /// Head-end request state.
  struct RequestState {
    AppRequest request;
    std::uint64_t delivered = 0;
    std::uint64_t next_sequence = 1;
    bool completed = false;
  };

  /// Pending fidelity test round at the head-end.
  struct TestRound {
    qstate::Basis basis = qstate::Basis::z;
    int head_outcome = -1;
    int tail_outcome = -1;
    bool have_tail = false;
    bool have_track = false;
    qstate::BellIndex tracked;
  };

  /// One neighbour's side of an intermediate node: Algorithms 7-9 run the
  /// same rules toward both. Every per-correlator map is a FlowTable so
  /// stale records retire wholesale instead of via per-entry sweeps.
  struct Side {
    std::deque<QueuedPair> queue;            ///< pairs awaiting a swap
    FlowTable<SwapRecord> records;           ///< keyed by this side's pair
    FlowTable<netmsg::TrackMsg> track_buf;   ///< TRACKs awaiting the swap
    FlowTable<ExpireMark> expire_records;    ///< cutoffs awaiting a TRACK

    std::uint64_t live_records() const;
    std::uint64_t expired_wholesale() const;
  };

  struct CircuitState {
    // Routing-table entry (Sec. 4.1 "Routing table").
    CircuitId id;
    NodeId upstream;
    NodeId downstream;
    LinkLabel upstream_label;
    LinkLabel downstream_label;
    double downstream_min_fidelity = 0.0;
    double downstream_max_lpr = 0.0;
    double circuit_max_eer = 0.0;
    Duration cutoff;
    double end_to_end_fidelity = 0.0;
    EndpointId head_endpoint;
    EndpointId tail_endpoint;

    bool is_head() const { return !upstream.valid(); }
    bool is_tail() const { return !downstream.valid(); }
    /// The application endpoint at this end-node.
    EndpointId local_endpoint() const {
      return is_head() ? head_endpoint : tail_endpoint;
    }

    // Intermediate-node state, one side per neighbour.
    Side up;
    Side down;
    Side& side(bool from_upstream) { return from_upstream ? up : down; }

    // End-node state.
    Demultiplexer demux;
    FlowTable<InTransit> in_transit;
    std::map<RequestId, RequestState> requests;  // ordered for determinism
    std::deque<AppRequest> shaped;               // waiting for capacity
    double committed_eer = 0.0;
    // Shared EER bookkeeping at every hop (for LPR scaling).
    double current_eer = 0.0;
    // Last applied admission UPDATE (stale versions are ignored).
    std::uint64_t update_version = 0;
    std::uint64_t active_requests = 0;
    std::uint64_t rate_based_requests = 0;
    std::unordered_set<RequestId> known_rate_based;
    /// Dedup against channel-injected replays. Both sets are
    /// insert-only for the life of the circuit: a FORWARD replayed
    /// after its COMPLETE must NOT resurrect the request at the tail
    /// (the zombie would capture later link pairs and deliver them
    /// with no head-side counterpart).
    std::unordered_set<RequestId> seen_requests;
    std::unordered_set<RequestId> completed_requests;
    // Fidelity testing (head-end).
    std::uint32_t pairs_since_test = 0;
    FlowTable<TestRound> tests;
    FidelityEstimator estimator;

    std::uint64_t live_records() const;
    std::uint64_t expired_wholesale() const;
  };

  // -- Helpers ---------------------------------------------------------------

  CircuitState& circuit(CircuitId id);
  const CircuitState* find_circuit(CircuitId id) const;
  CircuitState* find_circuit(CircuitId id);
  CircuitState* circuit_for_label(LinkId link, LinkLabel label);

  void send(NodeId to, const netmsg::Message& msg);
  linklayer::EgpLink* egp_to(NodeId neighbour);
  void poke_adjacent_egps(CircuitState& cs);

  /// (Re)submit the downstream link layer request with the current LPR
  /// (Sec. 4.1 "Continuous link generation").
  void refresh_downstream_link_request(CircuitState& cs);
  void cancel_downstream_link_request(CircuitState& cs);

  // Rule implementations.
  void link_rule_head(CircuitState& cs,
                      const linklayer::LinkPairDelivery& d);
  void link_rule_tail(CircuitState& cs,
                      const linklayer::LinkPairDelivery& d);
  void link_rule_intermediate(CircuitState& cs,
                              const linklayer::LinkPairDelivery& d,
                              bool from_upstream);
  void enqueue_intermediate_pair(CircuitState& cs,
                                 const PairCorrelator& correlator,
                                 QubitId qubit, qstate::BellIndex announced,
                                 bool from_upstream);
  void try_swap(CircuitState& cs);
  /// Copyable summary of a consumed queue entry for the swap callback.
  struct SwapSide {
    PairCorrelator correlator;
    qstate::BellIndex announced;
  };
  void on_swap_complete(CircuitId circuit, SwapSide up, SwapSide down,
                        const qdevice::SwapCompletion& completion);
  void record_swap(Side& side, const SwapSide& self, const SwapSide& other,
                   qstate::BellIndex outcome, NodeId toward);
  void forward_track(netmsg::TrackMsg track, const SwapRecord& record,
                     NodeId toward);
  void expire_rule_intermediate(CircuitState& cs, bool from_upstream,
                                const PairCorrelator& correlator,
                                QubitId qubit);
  void send_expire(const CircuitState& cs, const PairCorrelator& origin,
                   NodeId toward);

  void handle_forward(NodeId from, const netmsg::ForwardMsg& msg);
  void handle_complete(NodeId from, const netmsg::CompleteMsg& msg);
  void handle_track(NodeId from, netmsg::TrackMsg msg);
  void handle_expire(NodeId from, const netmsg::ExpireMsg& msg);
  void handle_install(NodeId from, const netmsg::InstallMsg& msg);
  void handle_install_ack(NodeId from, const netmsg::InstallAckMsg& msg);
  void handle_teardown(NodeId from, const netmsg::TeardownMsg& msg);
  void handle_test_result(NodeId from, const netmsg::TestResultMsg& msg);
  void handle_update(NodeId from, const netmsg::UpdateMsg& msg);

  netmsg::TrackMsg link_track(const CircuitState& cs,
                              const linklayer::LinkPairDelivery& d) const;
  void measure_in_transit(CircuitState& cs, const PairCorrelator& correlator,
                          InTransit& entry, qstate::Basis basis);
  void hand_over_early(CircuitState& cs, InTransit& entry,
                       qstate::BellIndex announced);
  void end_node_track_rule(CircuitState& cs, const netmsg::TrackMsg& msg,
                           bool at_head);
  void maybe_deliver(CircuitState& cs, const PairCorrelator& correlator);
  void deliver_pair(CircuitState& cs, const PairCorrelator& correlator,
                    InTransit& entry);
  void head_count_delivery(CircuitState& cs, RequestId request);
  void complete_request(CircuitState& cs, RequestState& state);
  void admit_shaped_requests(CircuitState& cs);
  void start_request(CircuitState& cs, const AppRequest& request);
  void tail_flush_request(CircuitState& cs, RequestId request);
  void finish_test_round(CircuitState& cs, const PairCorrelator& corr,
                         TestRound& round);

  void discard_in_transit(CircuitState& cs, const PairCorrelator& corr,
                          InTransit& entry, const char* why);
  void release_in_transit(CircuitState& cs, const PairCorrelator& corr,
                          InTransit& entry);

  const EndpointHandlers* handlers_for(EndpointId endpoint) const;

  void gc_records(CircuitState& cs);
  void note_occupancy();

  // -- Members ----------------------------------------------------------------

  des::Simulator& sim_;
  Rng& rng_;
  qdevice::QuantumDevice& device_;
  QnpConfig config_;
  SendFn send_;
  EgpLookupFn egp_lookup_;
  CircuitUpFn on_circuit_up_;
  TeardownFn on_teardown_;

  std::map<CircuitId, CircuitState> circuits_;
  struct LabelKey {
    LinkId link;
    LinkLabel label;
    bool operator==(const LabelKey&) const = default;
  };
  struct LabelKeyHash {
    std::size_t operator()(const LabelKey& k) const {
      return std::hash<std::uint64_t>{}(k.link.value() * 1000003u +
                                        k.label.value());
    }
  };
  std::unordered_map<LabelKey, CircuitId, LabelKeyHash> label_map_;
  std::unordered_map<EndpointId, EndpointHandlers> endpoints_;
  std::unordered_map<QubitId, CircuitId> app_qubits_;

  QnpCounters counters_;
  std::uint64_t peak_live_records_ = 0;
  std::uint64_t retired_expired_wholesale_ = 0;  ///< from torn-down circuits
};

}  // namespace qnetp::qnp
