#include "qnp/engine.hpp"

#include <algorithm>
#include <sstream>

#include "des/sharded.hpp"
#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::qnp {

using linklayer::LinkPairDelivery;
using netmsg::CompleteMsg;
using netmsg::ExpireMsg;
using netmsg::ForwardMsg;
using netmsg::InstallAckMsg;
using netmsg::InstallMsg;
using netmsg::KeepaliveMsg;
using netmsg::Message;
using netmsg::RequestType;
using netmsg::TeardownMsg;
using netmsg::TestResultMsg;
using netmsg::TrackMsg;
using qstate::Basis;
using qstate::BellIndex;

namespace {
constexpr double kEerEpsilon = 1e-9;
Basis random_basis(Rng& rng) {
  switch (rng.uniform_int(3)) {
    case 0: return Basis::z;
    case 1: return Basis::x;
    default: return Basis::y;
  }
}
}  // namespace

QnpEngine::QnpEngine(des::Simulator& sim, Rng& rng,
                     qdevice::QuantumDevice& device, QnpConfig config)
    : sim_(sim), rng_(rng), device_(device), config_(config) {}

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

QnpEngine::CircuitState& QnpEngine::circuit(CircuitId id) {
  const auto it = circuits_.find(id);
  QNETP_ASSERT_MSG(it != circuits_.end(), "unknown circuit");
  return it->second;
}

const QnpEngine::CircuitState* QnpEngine::find_circuit(CircuitId id) const {
  const auto it = circuits_.find(id);
  return it == circuits_.end() ? nullptr : &it->second;
}

QnpEngine::CircuitState* QnpEngine::find_circuit(CircuitId id) {
  const auto it = circuits_.find(id);
  return it == circuits_.end() ? nullptr : &it->second;
}

QnpEngine::CircuitState* QnpEngine::circuit_for_label(LinkId link,
                                                      LinkLabel label) {
  const auto it = label_map_.find(LabelKey{link, label});
  if (it == label_map_.end()) return nullptr;
  return find_circuit(it->second);
}

void QnpEngine::send(NodeId to, const Message& msg) {
  QNETP_ASSERT_MSG(send_ != nullptr, "engine send function not wired");
  QNETP_ASSERT(to.valid());
  send_(to, msg);
}

linklayer::EgpLink* QnpEngine::egp_to(NodeId neighbour) {
  QNETP_ASSERT_MSG(egp_lookup_ != nullptr, "engine egp lookup not wired");
  return egp_lookup_(neighbour);
}

void QnpEngine::poke_adjacent_egps(CircuitState& cs) {
  if (cs.upstream.valid()) {
    if (auto* egp = egp_to(cs.upstream)) egp->poke();
  }
  if (cs.downstream.valid()) {
    if (auto* egp = egp_to(cs.downstream)) egp->poke();
  }
}

const EndpointHandlers* QnpEngine::handlers_for(EndpointId endpoint) const {
  const auto it = endpoints_.find(endpoint);
  return it == endpoints_.end() ? nullptr : &it->second;
}

void QnpEngine::register_endpoint(EndpointId endpoint,
                                  EndpointHandlers handlers) {
  QNETP_ASSERT(endpoint.valid());
  endpoints_[endpoint] = std::move(handlers);
}

bool QnpEngine::has_circuit(CircuitId id) const {
  return circuits_.count(id) > 0;
}

const FidelityEstimator* QnpEngine::fidelity_estimate(
    CircuitId circuit_id) const {
  const auto* cs = find_circuit(circuit_id);
  return cs == nullptr ? nullptr : &cs->estimator;
}

// ---------------------------------------------------------------------------
// Circuit installation (signalling protocol interaction).
// ---------------------------------------------------------------------------

void QnpEngine::install_hop(const InstallMsg& install,
                            const netmsg::HopState& hop) {
  QNETP_ASSERT(hop.node == node());
  QNETP_ASSERT_MSG(circuits_.count(install.circuit_id) == 0,
                   "circuit already installed");
  CircuitState cs;
  cs.id = install.circuit_id;
  cs.upstream = hop.upstream;
  cs.downstream = hop.downstream;
  cs.upstream_label = hop.upstream_label;
  cs.downstream_label = hop.downstream_label;
  cs.downstream_min_fidelity = hop.downstream_min_fidelity;
  cs.downstream_max_lpr = hop.downstream_max_lpr;
  cs.circuit_max_eer = hop.circuit_max_eer;
  cs.cutoff = hop.cutoff;
  cs.end_to_end_fidelity = install.end_to_end_fidelity;
  cs.head_endpoint = install.head_end_identifier;
  cs.tail_endpoint = install.tail_end_identifier;
  cs.demux = Demultiplexer(config_.demux);

  QNETP_ASSERT_MSG(cs.upstream.valid() || cs.downstream.valid(),
                   "hop has no neighbours");

  if (cs.upstream.valid()) {
    auto* egp = egp_to(cs.upstream);
    QNETP_ASSERT_MSG(egp != nullptr, "no link to upstream neighbour");
    label_map_[LabelKey{egp->id(), cs.upstream_label}] = cs.id;
  }
  if (cs.downstream.valid()) {
    auto* egp = egp_to(cs.downstream);
    QNETP_ASSERT_MSG(egp != nullptr, "no link to downstream neighbour");
    label_map_[LabelKey{egp->id(), cs.downstream_label}] = cs.id;
  }
  circuits_.emplace(cs.id, std::move(cs));
  QNETP_LOG(debug, "qnp") << node() << " installed " << install.circuit_id;
}

void QnpEngine::begin_install(const InstallMsg& install) {
  QNETP_ASSERT(!install.hops.empty());
  QNETP_ASSERT_MSG(install.hops.front().node == node(),
                   "begin_install must run at the head-end");
  handle_install(NodeId{}, install);
}

void QnpEngine::handle_install(NodeId /*from*/, const InstallMsg& msg) {
  const auto it = std::find_if(
      msg.hops.begin(), msg.hops.end(),
      [this](const netmsg::HopState& h) { return h.node == node(); });
  QNETP_ASSERT_MSG(it != msg.hops.end(), "INSTALL does not include this node");
  // A duplicated INSTALL (channel-injected copy or transport retransmit
  // that raced the first delivery) must not re-install; the relay and the
  // tail ack still re-drive, so a chain stalled by a lost downstream copy
  // completes.
  if (find_circuit(msg.circuit_id) == nullptr) install_hop(msg, *it);
  if (it->downstream.valid()) {
    send(it->downstream, msg);
  } else {
    // Tail-end: confirm installation back toward the head.
    InstallAckMsg ack;
    ack.circuit_id = msg.circuit_id;
    ack.accepted = true;
    send(it->upstream, ack);
  }
}

void QnpEngine::handle_install_ack(NodeId /*from*/, const InstallAckMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;
  if (!cs->is_head()) {
    send(cs->upstream, msg);
    return;
  }
  if (on_circuit_up_) on_circuit_up_(msg.circuit_id, msg.accepted, msg.reason);
}

void QnpEngine::teardown(CircuitId circuit_id, const std::string& reason) {
  auto* cs = find_circuit(circuit_id);
  if (cs == nullptr) return;
  const NodeId up = cs->upstream;
  const NodeId down = cs->downstream;
  TeardownMsg msg;
  msg.circuit_id = circuit_id;
  msg.reason = reason;
  if (up.valid()) send(up, msg);
  if (down.valid()) send(down, msg);
  handle_teardown(NodeId{}, msg);
}

void QnpEngine::handle_teardown(NodeId from, const TeardownMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;

  // Propagate away from the sender.
  if (cs->upstream.valid() && cs->upstream != from) send(cs->upstream, msg);
  if (cs->downstream.valid() && cs->downstream != from)
    send(cs->downstream, msg);

  // Stop link generation.
  cancel_downstream_link_request(*cs);

  // Release queued qubits at intermediate nodes.
  for (Side* side : {&cs->up, &cs->down}) {
    for (auto& q : side->queue) {
      q.cutoff.cancel();
      device_.discard(q.qubit);
    }
    side->queue.clear();
  }
  // Release end-node qubits still held by the protocol.
  cs->in_transit.for_each([&](const PairCorrelator&, InTransit& entry) {
    if (entry.qubit.valid() && !entry.early_delivered && !entry.measured) {
      device_.discard(entry.qubit);
    }
  });
  cs->in_transit.clear();

  // Count requests the head accepted but will never complete.
  if (cs->is_head()) {
    for (const auto& [rid, state] : cs->requests) {
      if (!state.completed) ++counters_.requests_aborted;
    }
  }
  // The circuit's tables die with it; keep their cumulative expiry count.
  retired_expired_wholesale_ += cs->expired_wholesale();

  // Notify applications of aborted requests.
  if (cs->is_head() || cs->is_tail()) {
    if (const auto* handlers = handlers_for(cs->local_endpoint());
        handlers != nullptr && handlers->on_circuit_down) {
      handlers->on_circuit_down(msg.circuit_id, msg.reason);
    }
  }

  // Drop label mappings.
  // qnetp-lint: unordered-ok(erase-only sweep, no observable order)
  for (auto it = label_map_.begin(); it != label_map_.end();) {
    if (it->second == msg.circuit_id) {
      it = label_map_.erase(it);
    } else {
      ++it;
    }
  }
  circuits_.erase(msg.circuit_id);
  QNETP_LOG(info, "qnp") << node() << " tore down " << msg.circuit_id << ": "
                         << msg.reason;
  // Tell the control plane the circuit's capacity is free again. After
  // the erase: a listener that re-enters the engine must see the final
  // state.
  if (on_teardown_) on_teardown_(msg.circuit_id, msg.reason);
}

void QnpEngine::on_link_down(NodeId neighbour) {
  QNETP_ASSERT(neighbour.valid());
  std::vector<CircuitId> affected;
  for (const auto& [id, cs] : circuits_) {
    if (cs.upstream == neighbour || cs.downstream == neighbour) {
      affected.push_back(id);
    }
  }
  for (const CircuitId id : affected) {
    teardown(id, "link to " + neighbour.to_string() + " down");
  }
}

void QnpEngine::begin_update(const netmsg::UpdateMsg& update) {
  handle_update(NodeId{}, update);
}

void QnpEngine::handle_update(NodeId /*from*/, const netmsg::UpdateMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;  // circuit torn down while the UPDATE flew
  if (msg.version <= cs->update_version) return;  // stale re-signal
  cs->update_version = msg.version;
  const auto hop = std::find_if(
      msg.hops.begin(), msg.hops.end(),
      [this](const netmsg::UpdateHop& h) { return h.node == node(); });
  if (hop == msg.hops.end()) return;
  cs->downstream_max_lpr = hop->downstream_max_lpr;
  cs->circuit_max_eer = hop->circuit_max_eer;
  ++counters_.updates_applied;
  if (cs->downstream.valid()) send(cs->downstream, msg);
  // Re-signal the WFQ weight to the link layer under the new share.
  refresh_downstream_link_request(*cs);
}

std::optional<QnpEngine::CircuitRates> QnpEngine::circuit_rates(
    CircuitId circuit) const {
  const auto* cs = find_circuit(circuit);
  if (cs == nullptr) return std::nullopt;
  return CircuitRates{cs->downstream_max_lpr, cs->circuit_max_eer};
}

// ---------------------------------------------------------------------------
// Link layer request management (Sec. 4.1 "Continuous link generation").
// ---------------------------------------------------------------------------

void QnpEngine::refresh_downstream_link_request(CircuitState& cs) {
  if (cs.is_tail()) return;
  auto* egp = egp_to(cs.downstream);
  QNETP_ASSERT(egp != nullptr);
  if (cs.active_requests == 0) {
    cancel_downstream_link_request(cs);
    return;
  }
  // LPR scaling: maximum LPR unless only rate-based requests are active,
  // in which case the fraction of the EER they need (Sec. 4.1).
  double weight = cs.downstream_max_lpr;
  if (cs.rate_based_requests == cs.active_requests &&
      cs.circuit_max_eer > kEerEpsilon) {
    const double fraction =
        std::clamp(cs.current_eer / cs.circuit_max_eer, 0.01, 1.0);
    weight = cs.downstream_max_lpr * fraction;
  }
  linklayer::LinkRequest req;
  req.label = cs.downstream_label;
  req.min_fidelity = cs.downstream_min_fidelity;
  req.lpr_weight = std::max(weight, 1e-6);
  req.continuous = true;
  egp->submit(req);
}

void QnpEngine::cancel_downstream_link_request(CircuitState& cs) {
  if (cs.is_tail()) return;
  auto* egp = egp_to(cs.downstream);
  if (egp != nullptr && egp->has_request(cs.downstream_label)) {
    egp->cancel(cs.downstream_label);
  }
}

// ---------------------------------------------------------------------------
// Request admission: policing and shaping (Sec. 4.1).
// ---------------------------------------------------------------------------

bool QnpEngine::submit_request(CircuitId circuit_id, const AppRequest& request,
                               std::string* reason) {
  // Shard-locality audit: all engine state is node-local, so on a
  // sharded fabric the engine may only ever be entered from its own
  // shard's event loop (or the driver thread between windows).
  QNETP_ASSERT_MSG(des::ShardedSimulator::executing() == nullptr ||
                       des::ShardedSimulator::executing() == &sim_,
                   "engine entered from a foreign shard");
  auto* cs = find_circuit(circuit_id);
  if (cs == nullptr) {
    if (reason) *reason = "no such circuit";
    return false;
  }
  QNETP_ASSERT_MSG(cs->is_head(), "requests enter at the head-end");
  QNETP_ASSERT(request.id.valid());
  if (cs->requests.count(request.id) > 0 ||
      cs->demux.has_request(request.id)) {
    // Duplicate request IDs are rejected (Appendix C.1).
    ++counters_.requests_rejected;
    if (reason) *reason = "duplicate request id";
    return false;
  }
  QNETP_ASSERT(request.num_pairs > 0 || request.rate > 0.0);

  const double min_eer = request.min_eer();
  const double available = cs->circuit_max_eer - cs->committed_eer;
  const bool has_deadline =
      request.deadline > Duration::zero() || request.rate > 0.0;

  if (min_eer > available + kEerEpsilon) {
    if (has_deadline) {
      // Policing: reject what cannot be satisfied in time.
      ++counters_.requests_rejected;
      if (reason) *reason = "insufficient end-to-end rate for deadline";
      return false;
    }
    // Shaping: delay what can be fulfilled later.
    cs->shaped.push_back(request);
    ++counters_.requests_shaped;
    return true;
  }
  if (available <= kEerEpsilon && min_eer <= kEerEpsilon) {
    // Circuit fully booked: delay best-effort requests.
    cs->shaped.push_back(request);
    ++counters_.requests_shaped;
    return true;
  }
  start_request(*cs, request);
  return true;
}

void QnpEngine::start_request(CircuitState& cs, const AppRequest& request) {
  RequestState state;
  state.request = request;
  cs.requests[request.id] = state;
  cs.demux.add_request(request.id, request.num_pairs);
  cs.committed_eer += request.min_eer();
  cs.current_eer = cs.committed_eer;
  ++cs.active_requests;
  if (request.num_pairs == 0) {
    ++cs.rate_based_requests;
    cs.known_rate_based.insert(request.id);
  }
  ++counters_.requests_accepted;

  // FORWARD downstream to initiate link generation along the path.
  ForwardMsg fwd;
  fwd.circuit_id = cs.id;
  fwd.request_id = request.id;
  fwd.head_end_identifier = request.head_endpoint;
  fwd.tail_end_identifier = request.tail_endpoint;
  fwd.request_type = request.type;
  fwd.measure_basis = request.measure_basis;
  fwd.number_of_pairs = request.num_pairs;
  fwd.final_state = request.final_state;
  fwd.rate = cs.current_eer;
  send(cs.downstream, fwd);

  refresh_downstream_link_request(cs);
}

void QnpEngine::admit_shaped_requests(CircuitState& cs) {
  while (!cs.shaped.empty()) {
    const double available = cs.circuit_max_eer - cs.committed_eer;
    const AppRequest& next = cs.shaped.front();
    if (next.min_eer() > available + kEerEpsilon) break;
    if (available <= kEerEpsilon) break;
    AppRequest request = next;
    cs.shaped.pop_front();
    start_request(cs, request);
  }
}

// ---------------------------------------------------------------------------
// FORWARD / COMPLETE propagation.
// ---------------------------------------------------------------------------

void QnpEngine::handle_forward(NodeId /*from*/, const ForwardMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;
  // Exactly-once against channel-injected duplicates: the first FORWARD
  // registers the request at this hop; every replay — before OR after
  // its COMPLETE — is dropped (the set is never erased from, so a
  // post-COMPLETE replay cannot resurrect the request).
  if (!cs->seen_requests.insert(msg.request_id).second) return;
  cs->current_eer = msg.rate;
  ++cs->active_requests;
  if (msg.number_of_pairs == 0) {
    ++cs->rate_based_requests;
    cs->known_rate_based.insert(msg.request_id);
  }

  if (cs->is_tail()) {
    // Tail book-keeping: reconstruct the request for demux and delivery.
    RequestState state;
    state.request.id = msg.request_id;
    state.request.head_endpoint = msg.head_end_identifier;
    state.request.tail_endpoint = msg.tail_end_identifier;
    state.request.type = msg.request_type;
    state.request.measure_basis = msg.measure_basis;
    state.request.num_pairs = msg.number_of_pairs;
    state.request.final_state = msg.final_state;
    cs->requests[msg.request_id] = state;
    cs->demux.add_request(msg.request_id, msg.number_of_pairs);
    return;
  }
  // Intermediate: update link generation and keep forwarding.
  refresh_downstream_link_request(*cs);
  send(cs->downstream, msg);
}

void QnpEngine::handle_complete(NodeId /*from*/, const CompleteMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;
  // Duplicate COMPLETE, or one whose FORWARD never arrived: don't
  // decrement shared counters or relay a second time.
  if (cs->seen_requests.count(msg.request_id) == 0) return;
  if (!cs->completed_requests.insert(msg.request_id).second) return;
  cs->current_eer = msg.rate;
  if (cs->active_requests > 0) --cs->active_requests;
  if (cs->known_rate_based.erase(msg.request_id) > 0 &&
      cs->rate_based_requests > 0) {
    --cs->rate_based_requests;
  }

  if (cs->is_tail()) {
    cs->demux.remove_request(msg.request_id);
    tail_flush_request(*cs, msg.request_id);
    const auto it = cs->requests.find(msg.request_id);
    if (it != cs->requests.end()) {
      if (const auto* handlers = handlers_for(msg.tail_end_identifier);
          handlers != nullptr && handlers->on_complete) {
        handlers->on_complete(cs->id, msg.request_id);
      }
      cs->requests.erase(it);
    }
    return;
  }
  refresh_downstream_link_request(*cs);
  send(cs->downstream, msg);
}

void QnpEngine::tail_flush_request(CircuitState& cs, RequestId request) {
  // Surplus in-transit pairs assigned to a finished request can never be
  // delivered (the head's TRACKs for delivered pairs arrived before the
  // COMPLETE on the same FIFO channel). Release their qubits.
  cs.in_transit.erase_if([&](const PairCorrelator&, InTransit& entry) {
    if (entry.request != request || entry.early_delivered) return false;
    if (entry.qubit.valid() && !entry.measured) {
      device_.discard(entry.qubit);
    }
    return true;
  });
  poke_adjacent_egps(cs);
}

// ---------------------------------------------------------------------------
// LINK rules (Algorithms 1, 4, 7).
// ---------------------------------------------------------------------------

void QnpEngine::on_link_pair(const LinkPairDelivery& d) {
  QNETP_ASSERT_MSG(des::ShardedSimulator::executing() == nullptr ||
                       des::ShardedSimulator::executing() == &sim_,
                   "engine entered from a foreign shard");
  auto* cs = circuit_for_label(d.link, d.label);
  if (cs == nullptr) {
    // Circuit gone (teardown racing the link layer): return the qubit.
    device_.discard(d.local_qubit);
    return;
  }
  ++counters_.link_pairs_received;
  gc_records(*cs);

  if (cs->is_head()) {
    link_rule_head(*cs, d);
  } else if (cs->is_tail()) {
    link_rule_tail(*cs, d);
  } else {
    // Which side of this node is the link on?
    auto* up_egp = egp_to(cs->upstream);
    const bool from_upstream = (up_egp != nullptr && up_egp->id() == d.link);
    link_rule_intermediate(*cs, d, from_upstream);
  }
}

void QnpEngine::link_rule_head(CircuitState& cs, const LinkPairDelivery& d) {
  InTransit entry{.qubit = d.local_qubit, .pair = d.pair};
  TrackMsg track = link_track(cs, d);

  // Fidelity test rounds: every k-th pair is consumed for estimation.
  const bool test_due = config_.test_round_interval > 0 &&
                        ++cs.pairs_since_test >= config_.test_round_interval &&
                        cs.active_requests > 0;
  if (test_due) {
    cs.pairs_since_test = 0;
    entry.is_test = true;
    entry.test_basis = random_basis(rng_);
    track.test_round = true;
    track.test_basis = entry.test_basis;
    TestRound round;
    round.basis = entry.test_basis;
    cs.tests.put(d.correlator, sim_.now(), round);
    // Measure our side immediately.
    const PairCorrelator corr = d.correlator;
    const CircuitId cid = cs.id;
    device_.measure(entry.qubit, entry.test_basis, [this, cid, corr](int o) {
      auto* c = find_circuit(cid);
      if (c == nullptr) return;
      auto* round = c->tests.find(corr);
      if (round == nullptr) return;
      round->head_outcome = o;
      finish_test_round(*c, corr, *round);
    });
    entry.qubit = QubitId::invalid();
    entry.measured = true;
  } else {
    const auto assigned = cs.demux.next_request();
    if (!assigned.has_value()) {
      // No active request: tell the far end to release its qubit too.
      ++counters_.pairs_discarded_unassigned;
      device_.discard(entry.qubit);
      send(cs.downstream, track);
      ++counters_.tracks_originated;
      poke_adjacent_egps(cs);
      return;
    }
    auto& state = cs.requests.at(*assigned);
    entry.request = *assigned;
    entry.sequence = state.next_sequence++;
    track.request_id = *assigned;
    track.pair_sequence = entry.sequence;
    if (state.request.type == RequestType::measure) {
      measure_in_transit(cs, d.correlator, entry, state.request.measure_basis);
    } else if (state.request.type == RequestType::early) {
      hand_over_early(cs, entry, d.announced);
    }
  }

  cs.in_transit.put(d.correlator, sim_.now(), std::move(entry));
  send(cs.downstream, track);
  ++counters_.tracks_originated;
}

void QnpEngine::link_rule_tail(CircuitState& cs, const LinkPairDelivery& d) {
  InTransit entry{.qubit = d.local_qubit, .pair = d.pair};
  if (const auto assigned = cs.demux.next_request()) {
    entry.request = *assigned;
    if (const auto it = cs.requests.find(*assigned); it != cs.requests.end()) {
      const AppRequest& request = it->second.request;
      if (request.type == RequestType::measure) {
        measure_in_transit(cs, d.correlator, entry, request.measure_basis);
      } else if (request.type == RequestType::early) {
        hand_over_early(cs, entry, d.announced);
      }
    }
  }

  TrackMsg track = link_track(cs, d);
  track.request_id = entry.request;  // may be invalid: cross-check only
  cs.in_transit.put(d.correlator, sim_.now(), std::move(entry));
  send(cs.upstream, track);
  ++counters_.tracks_originated;
}

TrackMsg QnpEngine::link_track(const CircuitState& cs,
                               const LinkPairDelivery& d) const {
  // The TRACK an end-node originates for a new link-pair (Algorithms 1
  // and 4); the caller fills in the pair's identity. Only the head sets
  // an epoch.
  TrackMsg track;
  track.circuit_id = cs.id;
  track.head_end_identifier = cs.head_endpoint;
  track.tail_end_identifier = cs.tail_endpoint;
  track.origin_correlator = d.correlator;
  track.link_correlator = d.correlator;
  track.outcome_state = d.announced;
  if (cs.is_head()) track.epoch = cs.demux.epoch();
  return track;
}

void QnpEngine::measure_in_transit(CircuitState& cs,
                                   const PairCorrelator& correlator,
                                   InTransit& entry, Basis basis) {
  // MEASURE delivery: measure now, withhold the outcome until the TRACK
  // confirms the pair's identity.
  entry.is_measure = true;
  const CircuitId cid = cs.id;
  device_.measure(entry.qubit, basis, [this, cid, corr = correlator](int o) {
    auto* c = find_circuit(cid);
    if (c == nullptr) return;
    auto* e = c->in_transit.find(corr);
    if (e == nullptr) return;
    e->measured = true;
    e->outcome = o;
    maybe_deliver(*c, corr);
  });
  entry.qubit = QubitId::invalid();
}

void QnpEngine::hand_over_early(CircuitState& cs, InTransit& entry,
                                BellIndex announced) {
  // EARLY delivery: the qubit goes to the application at once; the TRACK
  // later completes it through on_tracking. At the tail the sequence is
  // still 0: the head's numbering arrives with its TRACK.
  entry.early_delivered = true;
  ++counters_.early_deliveries;
  app_qubits_[entry.qubit] = cs.id;
  if (const auto* handlers = handlers_for(cs.local_endpoint());
      handlers != nullptr && handlers->on_pair) {
    PairDelivery out;
    out.circuit = cs.id;
    out.request = entry.request;
    out.sequence = entry.sequence;
    out.state = announced;  // provisional; final frame follows
    out.qubit = entry.qubit;
    out.tracking_pending = true;
    out.pair = entry.pair;
    out.delivered_at = sim_.now();
    handlers->on_pair(out);
  }
}

void QnpEngine::link_rule_intermediate(CircuitState& cs,
                                       const LinkPairDelivery& d,
                                       bool from_upstream) {
  if (device_.hardware().single_communication_qubit) {
    // Near-term platform (Sec. 5.3): the communication qubit must be
    // freed before the node can work another link, so move the arriving
    // pair into carbon storage first.
    const CircuitId cid = cs.id;
    const PairCorrelator corr = d.correlator;
    const qstate::BellIndex announced = d.announced;
    const QubitId comm = d.local_qubit;
    device_.move_to_storage(
        comm, [this, cid, corr, announced, comm, from_upstream](QubitId s) {
          auto* c = find_circuit(cid);
          if (c == nullptr) {
            device_.discard(s.valid() ? s : comm);
            return;
          }
          if (!s.valid()) {
            // No storage qubit free: the pair cannot be buffered.
            ++counters_.pairs_discarded_unassigned;
            device_.discard(comm);
            poke_adjacent_egps(*c);
            return;
          }
          enqueue_intermediate_pair(*c, corr, s, announced, from_upstream);
          poke_adjacent_egps(*c);  // the communication qubit is free again
        });
    return;
  }
  enqueue_intermediate_pair(cs, d.correlator, d.local_qubit, d.announced,
                            from_upstream);
}

void QnpEngine::enqueue_intermediate_pair(CircuitState& cs,
                                          const PairCorrelator& correlator,
                                          QubitId qubit,
                                          qstate::BellIndex announced,
                                          bool from_upstream) {
  QueuedPair q;
  q.correlator = correlator;
  q.qubit = qubit;
  q.announced = announced;
  if (config_.decoherence == DecoherencePolicy::cutoff) {
    const CircuitId cid = cs.id;
    const PairCorrelator corr = correlator;
    // Most cutoff timers are cancelled by a swap long before expiry; the
    // kernel destroys the closure at cancel time, so the captures below
    // never outlive the pair they guard.
    q.cutoff = des::ScopedTimer(sim_, cs.cutoff, [this, cid, corr,
                                                  from_upstream] {
      auto* c = find_circuit(cid);
      if (c == nullptr) return;
      auto& queue = c->side(from_upstream).queue;
      const auto it = std::find_if(
          queue.begin(), queue.end(),
          [&corr](const QueuedPair& p) { return p.correlator == corr; });
      if (it == queue.end()) return;  // already consumed by a swap
      const QubitId expired_qubit = it->qubit;
      queue.erase(it);
      expire_rule_intermediate(*c, from_upstream, corr, expired_qubit);
    });
  }
  cs.side(from_upstream).queue.push_back(std::move(q));
  try_swap(cs);
}

// ---------------------------------------------------------------------------
// Entanglement swapping (Algorithm 7).
// ---------------------------------------------------------------------------

void QnpEngine::try_swap(CircuitState& cs) {
  while (!cs.up.queue.empty() && !cs.down.queue.empty()) {
    if (!config_.lazy_tracking) {
      // Blocking-tracking ablation: wait for the downstream-travelling
      // TRACK of the upstream pair before swapping.
      if (!cs.up.track_buf.contains(cs.up.queue.front().correlator)) return;
    }
    // "Entanglement swaps always prefer the oldest unexpired pairs."
    QueuedPair up = std::move(cs.up.queue.front());
    cs.up.queue.pop_front();
    QueuedPair down = std::move(cs.down.queue.front());
    cs.down.queue.pop_front();
    up.cutoff.cancel();
    down.cutoff.cancel();

    ++counters_.swaps_started;
    const CircuitId cid = cs.id;
    // Copyable summaries survive into the completion callback; the device
    // frees the physical qubits itself.
    const SwapSide up_side{up.correlator, up.announced};
    const SwapSide down_side{down.correlator, down.announced};
    device_.entanglement_swap(
        up.qubit, down.qubit,
        [this, cid, up_side, down_side](const qdevice::SwapCompletion& c) {
          on_swap_complete(cid, up_side, down_side, c);
        });
  }
}

void QnpEngine::on_swap_complete(CircuitId circuit_id, SwapSide up,
                                 SwapSide down,
                                 const qdevice::SwapCompletion& completion) {
  ++counters_.swaps_completed;
  auto* cs = find_circuit(circuit_id);
  if (cs == nullptr) return;  // torn down mid-swap
  poke_adjacent_egps(*cs);

  // Alg 7, once per side: the upstream pair's TRACK travels downstream
  // and the downstream pair's upstream.
  record_swap(cs->up, up, down, completion.announced, cs->downstream);
  record_swap(cs->down, down, up, completion.announced, cs->upstream);

  gc_records(*cs);
  try_swap(*cs);
}

void QnpEngine::record_swap(Side& side, const SwapSide& self,
                            const SwapSide& other, BellIndex outcome,
                            NodeId toward) {
  // Forward the TRACK already waiting for this side's pair, or keep a
  // swap record for the one still to come.
  const SwapRecord record{other.correlator, other.announced, outcome};
  if (const TrackMsg* buffered = side.track_buf.find(self.correlator)) {
    const TrackMsg track = *buffered;
    side.track_buf.erase(self.correlator);
    forward_track(track, record, toward);
  } else {
    side.records.put(self.correlator, sim_.now(), record);
  }
}

void QnpEngine::forward_track(TrackMsg track, const SwapRecord& record,
                              NodeId toward) {
  // Carry the TRACK across the swap onto the other side's pair.
  track.link_correlator = record.other_correlator;
  track.outcome_state =
      track.outcome_state ^ record.other_announced ^ record.swap_outcome;
  send(toward, track);
  ++counters_.tracks_forwarded;
}

// ---------------------------------------------------------------------------
// Cutoff expiry (Algorithm 9) and EXPIRE handling (Algorithms 3, 6, 8).
// ---------------------------------------------------------------------------

void QnpEngine::expire_rule_intermediate(CircuitState& cs, bool from_upstream,
                                         const PairCorrelator& correlator,
                                         QubitId qubit) {
  ++counters_.pairs_discarded_cutoff;
  device_.discard(qubit);
  poke_adjacent_egps(cs);

  Side& side = cs.side(from_upstream);
  if (const TrackMsg* buffered = side.track_buf.find(correlator)) {
    // A TRACK already waited for this pair: bounce an EXPIRE to its
    // origin end-node immediately.
    const PairCorrelator origin = buffered->origin_correlator;
    side.track_buf.erase(correlator);
    send_expire(cs, origin, from_upstream ? cs.upstream : cs.downstream);
    return;
  }
  side.expire_records.put(correlator, sim_.now(), ExpireMark{});
  gc_records(cs);
}

void QnpEngine::send_expire(const CircuitState& cs,
                            const PairCorrelator& origin, NodeId toward) {
  ExpireMsg expire;
  expire.circuit_id = cs.id;
  expire.origin_correlator = origin;
  send(toward, expire);
  ++counters_.expires_sent;
}

void QnpEngine::handle_expire(NodeId from, const ExpireMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;
  const bool at_end = (from == cs->downstream && cs->is_head()) ||
                      (from == cs->upstream && cs->is_tail());
  if (!at_end) {
    // Relay toward the end-node it is addressed to.
    send(from == cs->downstream ? cs->upstream : cs->downstream, msg);
    return;
  }
  ++counters_.expires_received;
  auto* entry = cs->in_transit.find(msg.origin_correlator);
  if (entry == nullptr) return;  // already resolved
  discard_in_transit(*cs, msg.origin_correlator, *entry, "expire");
}

void QnpEngine::discard_in_transit(CircuitState& cs,
                                   const PairCorrelator& corr,
                                   InTransit& entry, const char* why) {
  release_in_transit(cs, corr, entry);
  QNETP_LOG(trace, "qnp") << node() << " dropped in-transit pair "
                          << corr.to_string() << " (" << why << ")";
  cs.in_transit.erase(corr);
  poke_adjacent_egps(cs);
}

void QnpEngine::release_in_transit(CircuitState& cs,
                                   const PairCorrelator& corr,
                                   InTransit& entry) {
  // Give up on an end-node pair: end its test round, return its qubit and
  // free its demultiplexer slot. The caller removes the table entry.
  if (entry.is_test) cs.tests.erase(corr);
  if (entry.early_delivered) {
    // The application owns the qubit: notify it (Sec. 4.1 "Early
    // delivery").
    if (const auto* handlers = handlers_for(cs.local_endpoint());
        handlers != nullptr && handlers->on_expire) {
      handlers->on_expire(cs.id, entry.request, entry.qubit);
    }
  } else if (entry.qubit.valid() && !entry.measured) {
    device_.discard(entry.qubit);
  }
  if (entry.request.valid()) cs.demux.unassign(entry.request);
}

// ---------------------------------------------------------------------------
// TRACK handling (Algorithms 2, 5, 8).
// ---------------------------------------------------------------------------

void QnpEngine::handle_track(NodeId from, TrackMsg msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;

  const bool from_upstream = (from == cs->upstream);
  QNETP_ASSERT_MSG(from_upstream || from == cs->downstream,
                   "TRACK from a node outside the circuit");
  gc_records(*cs);

  if (cs->is_head() || cs->is_tail()) {
    end_node_track_rule(*cs, msg, cs->is_head());
    return;
  }

  // Intermediate node: Algorithm 8.
  Side& side = cs->side(from_upstream);
  const PairCorrelator key = msg.link_correlator;
  if (const SwapRecord* found = side.records.find(key)) {
    const SwapRecord record = *found;
    side.records.erase(key);
    forward_track(msg, record, from_upstream ? cs->downstream : cs->upstream);
    return;
  }
  if (side.expire_records.erase(key)) {
    // Bounce back toward the TRACK's origin end-node.
    send_expire(*cs, msg.origin_correlator, from);
    return;
  }
  side.track_buf.put(key, sim_.now(), msg);
  if (!config_.lazy_tracking) try_swap(*cs);
}

void QnpEngine::end_node_track_rule(CircuitState& cs, const TrackMsg& msg,
                                    bool at_head) {
  auto* found = cs.in_transit.find(msg.link_correlator);
  if (found == nullptr) {
    // The local pair was already resolved (EXPIRE raced the TRACK, or
    // wholesale expiry already released it): ignore, including exact
    // duplicates of an already-processed TRACK.
    return;
  }
  InTransit& entry = *found;

  // Fidelity test rounds terminate here.
  if (at_head && entry.is_test) {
    if (TestRound* test = cs.tests.find(msg.link_correlator)) {
      test->have_track = true;
      test->tracked = msg.outcome_state;
      finish_test_round(cs, msg.link_correlator, *test);
    }
    cs.in_transit.erase(msg.link_correlator);
    return;
  }
  if (!at_head && msg.test_round) {
    // Measure in the announced basis and report to the head-end.
    cs.demux.unassign(entry.request);
    if (entry.qubit.valid() && !entry.measured && !entry.early_delivered) {
      const PairCorrelator origin = msg.origin_correlator;
      const CircuitId cid = cs.id;
      const Basis basis = msg.test_basis;
      const NodeId upstream = cs.upstream;
      device_.measure(entry.qubit, basis,
                      [this, cid, origin, basis, upstream](int o) {
                        TestResultMsg result;
                        result.circuit_id = cid;
                        result.origin_correlator = origin;
                        result.basis = basis;
                        result.outcome = static_cast<std::uint8_t>(o);
                        send(upstream, result);
                      });
    }
    cs.in_transit.erase(msg.link_correlator);
    poke_adjacent_egps(cs);
    return;
  }

  // Unassigned pair (far end had no active request): release our side.
  if (!msg.request_id.valid() && !at_head) {
    discard_in_transit(cs, msg.link_correlator, entry, "unassigned");
    return;
  }
  if (at_head && !entry.request.valid()) {
    // We originated an unassigned TRACK; the pair was already discarded
    // locally at LINK time.
    cs.in_transit.erase(msg.link_correlator);
    return;
  }

  // Cross-check (Appendix C "Demultiplexing"): both ends assigned this
  // pair; mismatching assignments mean a transient desync — discard.
  if (entry.request.valid() && msg.request_id.valid() &&
      !Demultiplexer::cross_check(entry.request, msg.request_id)) {
    ++counters_.cross_check_failures;
    discard_in_transit(cs, msg.link_correlator, entry, "cross-check");
    return;
  }

  entry.track_received = true;
  entry.final_track = msg;
  maybe_deliver(cs, msg.link_correlator);
}

void QnpEngine::maybe_deliver(CircuitState& cs,
                              const PairCorrelator& correlator) {
  auto* entry = cs.in_transit.find(correlator);
  if (entry == nullptr) return;
  if (!entry->track_received) return;
  if (entry->is_measure && !entry->measured) return;  // outcome pending
  deliver_pair(cs, correlator, *entry);
}

void QnpEngine::deliver_pair(CircuitState& cs,
                             const PairCorrelator& correlator,
                             InTransit& entry) {
  const bool at_head = cs.is_head();
  const TrackMsg& msg = entry.final_track;

  // Identity: the head's assignment is authoritative (DESIGN.md sec. 6).
  const RequestId request_id = at_head ? entry.request : msg.request_id;
  const std::uint64_t sequence =
      at_head ? entry.sequence : msg.pair_sequence;
  BellIndex state = msg.outcome_state;

  const auto req_it = cs.requests.find(request_id);
  const AppRequest* request =
      req_it == cs.requests.end() ? nullptr : &req_it->second.request;

  // Head-end: a surplus pair whose request already completed cannot be
  // delivered to anyone.
  if (at_head && request == nullptr) {
    discard_in_transit(cs, correlator, entry, "request-gone");
    return;
  }

  // Baseline comparison protocol (Fig. 10): the end-nodes read the true
  // fidelity from the simulator and silently discard sub-threshold pairs.
  // The verdict is evaluated once (first end to deliver) and cached on
  // the pair so both ends act consistently — the oracle is already
  // physically impossible, so we let it be a consistent oracle.
  if (config_.decoherence == DecoherencePolicy::oracle_end_discard &&
      !entry.measured && !entry.early_delivered) {
    qdevice::PairPtr current = entry.pair;
    if (entry.qubit.valid()) {
      if (const auto binding = device_.registry().find(
              qdevice::QubitEndpoint{node(), entry.qubit})) {
        current = binding->pair;
      }
    }
    if (current != nullptr) {
      if (current->oracle_tag < 0) {
        const double oracle = current->oracle_fidelity(state, sim_.now());
        current->oracle_tag = (oracle >= cs.end_to_end_fidelity) ? 1 : 0;
      }
      if (current->oracle_tag == 0) {
        ++counters_.oracle_discards;
        discard_in_transit(cs, correlator, entry, "oracle-below-threshold");
        return;
      }
    }
  }

  // Tail side of a MEASURE request that could not measure at LINK time
  // (assignment raced the FORWARD): measure now.
  if (!at_head && request != nullptr &&
      request->type == RequestType::measure && !entry.measured &&
      entry.qubit.valid()) {
    measure_in_transit(cs, correlator, entry, request->measure_basis);
    return;  // redelivered once the outcome lands
  }

  // Pauli correction to the requested delivery state: physical at the
  // head-end, frame-relabelling at the tail (Algorithms 2 and 5).
  if (request != nullptr && request->final_state.has_value() &&
      !entry.measured && !entry.early_delivered) {
    const BellIndex target = *request->final_state;
    if (at_head && entry.qubit.valid() && state != target) {
      // Apply the physical correction, then re-enter delivery.
      const CircuitId cid = cs.id;
      const PairCorrelator corr = correlator;
      entry.final_track.outcome_state = target;
      device_.pauli_correct(entry.qubit, target, [this, cid, corr] {
        auto* c = find_circuit(cid);
        if (c == nullptr) return;
        maybe_deliver(*c, corr);
      });
      return;
    }
    state = target;
  }
  // A measured qubit cannot be physically corrected, but the Pauli frame
  // correction acts classically on the outcome: the recorded bit flips
  // when the correction Pauli anticommutes with the measured basis.
  if (request != nullptr && request->final_state.has_value() &&
      entry.measured && at_head && entry.outcome >= 0) {
    const BellIndex diff = state ^ *request->final_state;
    bool flip = false;
    switch (request->measure_basis) {
      case Basis::z: flip = diff.x_bit(); break;
      case Basis::x: flip = diff.z_bit(); break;
      case Basis::y: flip = diff.x_bit() != diff.z_bit(); break;
    }
    if (flip) entry.outcome ^= 1;
    state = *request->final_state;
  } else if (request != nullptr && request->final_state.has_value() &&
             entry.measured) {
    // Tail side: the head's (physical or classical) correction already
    // moves the pair into the requested frame; only relabel.
    state = *request->final_state;
  }

  PairDelivery out;
  out.circuit = cs.id;
  out.request = request_id;
  out.sequence = sequence;
  out.state = state;
  out.qubit = entry.qubit;
  out.measure_outcome = entry.outcome;
  out.tracking_pending = false;
  // Swaps re-home the qubit onto the merged end-to-end pair; resolve the
  // CURRENT binding so the oracle handle refers to the delivered pair,
  // not the consumed link-pair.
  out.pair = entry.pair;
  if (entry.qubit.valid()) {
    if (const auto binding = device_.registry().find(
            qdevice::QubitEndpoint{node(), entry.qubit})) {
      out.pair = binding->pair;
    }
  }
  out.delivered_at = sim_.now();

  const auto* handlers = handlers_for(cs.local_endpoint());
  if (entry.early_delivered) {
    // Tracking info completes an earlier delivery.
    if (handlers != nullptr && handlers->on_tracking) {
      handlers->on_tracking(out);
    }
  } else {
    if (entry.qubit.valid()) app_qubits_[entry.qubit] = cs.id;
    if (handlers != nullptr && handlers->on_pair) handlers->on_pair(out);
  }
  ++counters_.pairs_delivered;
  cs.in_transit.erase(correlator);

  if (at_head) head_count_delivery(cs, request_id);
}

void QnpEngine::head_count_delivery(CircuitState& cs, RequestId request_id) {
  const auto it = cs.requests.find(request_id);
  if (it == cs.requests.end()) return;
  RequestState& state = it->second;
  ++state.delivered;
  if (state.request.num_pairs > 0 &&
      state.delivered >= state.request.num_pairs && !state.completed) {
    complete_request(cs, state);
  }
}

void QnpEngine::complete_request(CircuitState& cs, RequestState& state) {
  state.completed = true;
  ++counters_.requests_completed;
  cs.demux.remove_request(state.request.id);
  cs.committed_eer =
      std::max(0.0, cs.committed_eer - state.request.min_eer());
  cs.current_eer = cs.committed_eer;
  if (cs.active_requests > 0) --cs.active_requests;
  if (state.request.num_pairs == 0 && cs.rate_based_requests > 0) {
    --cs.rate_based_requests;
  }

  CompleteMsg msg;
  msg.circuit_id = cs.id;
  msg.request_id = state.request.id;
  msg.head_end_identifier = state.request.head_endpoint;
  msg.tail_end_identifier = state.request.tail_endpoint;
  msg.rate = cs.current_eer;
  send(cs.downstream, msg);

  refresh_downstream_link_request(cs);

  const RequestId finished = state.request.id;
  if (const auto* handlers = handlers_for(cs.head_endpoint);
      handlers != nullptr && handlers->on_complete) {
    handlers->on_complete(cs.id, finished);
  }
  cs.requests.erase(finished);  // invalidates `state`
  admit_shaped_requests(cs);
}

// ---------------------------------------------------------------------------
// Fidelity test rounds.
// ---------------------------------------------------------------------------

void QnpEngine::handle_test_result(NodeId from, const TestResultMsg& msg) {
  auto* cs = find_circuit(msg.circuit_id);
  if (cs == nullptr) return;
  if (!cs->is_head()) {
    // Relay toward the head-end.
    send(from == cs->downstream ? cs->upstream : cs->downstream, msg);
    return;
  }
  auto* round = cs->tests.find(msg.origin_correlator);
  if (round == nullptr) return;
  round->tail_outcome = msg.outcome;
  round->have_tail = true;
  finish_test_round(*cs, msg.origin_correlator, *round);
}

void QnpEngine::finish_test_round(CircuitState& cs,
                                  const PairCorrelator& corr,
                                  TestRound& round) {
  if (round.head_outcome < 0 || !round.have_tail || !round.have_track) {
    return;
  }
  cs.estimator.record(round.tracked, round.basis, round.head_outcome,
                      round.tail_outcome);
  ++counters_.test_rounds_completed;
  cs.tests.erase(corr);
}

// ---------------------------------------------------------------------------
// Message dispatch and misc.
// ---------------------------------------------------------------------------

void QnpEngine::on_message(NodeId from, const Message& msg) {
  QNETP_ASSERT_MSG(des::ShardedSimulator::executing() == nullptr ||
                       des::ShardedSimulator::executing() == &sim_,
                   "engine entered from a foreign shard");
  struct Visitor {
    QnpEngine& self;
    NodeId from;
    void operator()(const ForwardMsg& m) { self.handle_forward(from, m); }
    void operator()(const CompleteMsg& m) { self.handle_complete(from, m); }
    void operator()(const TrackMsg& m) { self.handle_track(from, m); }
    void operator()(const ExpireMsg& m) { self.handle_expire(from, m); }
    void operator()(const InstallMsg& m) { self.handle_install(from, m); }
    void operator()(const InstallAckMsg& m) {
      self.handle_install_ack(from, m);
    }
    void operator()(const TeardownMsg& m) { self.handle_teardown(from, m); }
    void operator()(const KeepaliveMsg&) {}
    void operator()(const TestResultMsg& m) {
      self.handle_test_result(from, m);
    }
    void operator()(const netmsg::LsaMsg&) {
      // Routing traffic: consumed by the LinkStateRouter before the
      // dispatch reaches the engine; ignore if no router is attached.
    }
    void operator()(const netmsg::UpdateMsg& m) {
      self.handle_update(from, m);
    }
    void operator()(const netmsg::FrameMsg&) {
      // Transport frames are consumed by the node's ReliableEndpoint
      // before dispatch reaches the engine; a stray one is dropped.
    }
  };
  std::visit(Visitor{*this, from}, msg);
}

void QnpEngine::release_app_qubit(QubitId qubit) {
  const auto it = app_qubits_.find(qubit);
  QNETP_ASSERT_MSG(it != app_qubits_.end(), "unknown application qubit");
  const CircuitId cid = it->second;
  app_qubits_.erase(it);
  device_.discard(qubit);
  if (auto* cs = find_circuit(cid)) poke_adjacent_egps(*cs);
}

void QnpEngine::measure_app_qubit(QubitId qubit, Basis basis,
                                  std::function<void(int)> done) {
  const auto it = app_qubits_.find(qubit);
  QNETP_ASSERT_MSG(it != app_qubits_.end(), "unknown application qubit");
  const CircuitId cid = it->second;
  app_qubits_.erase(it);
  device_.measure(qubit, basis, [this, cid, done = std::move(done)](int o) {
    if (auto* cs = find_circuit(cid)) poke_adjacent_egps(*cs);
    if (done) done(o);
  });
}

// ---------------------------------------------------------------------------
// Record lifetime management: wholesale flow-table expiry.
// ---------------------------------------------------------------------------

std::uint64_t QnpEngine::Side::live_records() const {
  return records.size() + track_buf.size() + expire_records.size();
}

std::uint64_t QnpEngine::Side::expired_wholesale() const {
  return records.expired_wholesale() + track_buf.expired_wholesale() +
         expire_records.expired_wholesale();
}

std::uint64_t QnpEngine::CircuitState::live_records() const {
  return up.live_records() + down.live_records() + in_transit.size() +
         tests.size();
}

std::uint64_t QnpEngine::CircuitState::expired_wholesale() const {
  return up.expired_wholesale() + down.expired_wholesale() +
         in_transit.expired_wholesale() + tests.expired_wholesale();
}

void QnpEngine::gc_records(CircuitState& cs) {
  const Duration ttl = std::max(cs.cutoff * 8.0, Duration::seconds(1.0));
  if (sim_.now().count_ps() > ttl.count_ps()) {
    const TimePoint floor = sim_.now() - ttl;
    cs.tests.expire_all(floor);
    for (const bool upstream : {true, false}) {
      Side& side = cs.side(upstream);
      side.records.expire_all(floor);
      side.expire_records.expire_all(floor);
      // A buffered TRACK whose partner record aged out can never be
      // forwarded: bounce an EXPIRE toward the origin end-node so it
      // releases its half of the chain (these used to leak silently).
      const NodeId toward = upstream ? cs.upstream : cs.downstream;
      side.track_buf.expire_all(
          floor, 0, [&](const PairCorrelator&, TrackMsg&& buffered) {
            send_expire(cs, buffered.origin_correlator, toward);
          });
    }
    // End-node in-transit entries hold device qubits, so they expire
    // ungated: once both the TRACK and any EXPIRE are a full TTL overdue
    // the chain broke and nothing else will release them. Count them
    // with the other no-longer-deliverable pairs.
    if (cs.is_head() || cs.is_tail()) {
      const std::size_t dropped = cs.in_transit.expire_all(
          floor, 0, [&](const PairCorrelator& corr, InTransit&& entry) {
            release_in_transit(cs, corr, entry);
            ++counters_.pairs_discarded_unassigned;
            QNETP_LOG(trace, "qnp")
                << node() << " wholesale-expired in-transit pair "
                << corr.to_string();
          });
      if (dropped > 0) poke_adjacent_egps(cs);
    }
  }
  note_occupancy();
#ifndef NDEBUG
  const std::string err = consistency_check();
  QNETP_ASSERT_MSG(err.empty(), err);
#endif
}

void QnpEngine::note_occupancy() {
  std::uint64_t live = 0;
  for (const auto& [id, cs] : circuits_) live += cs.live_records();
  if (live > peak_live_records_) peak_live_records_ = live;
}

EngineOccupancy QnpEngine::occupancy() const {
  EngineOccupancy occ;
  occ.expired_wholesale = retired_expired_wholesale_;
  for (const auto& [id, cs] : circuits_) {
    occ.live += cs.live_records();
    occ.expired_wholesale += cs.expired_wholesale();
  }
  occ.peak = std::max(peak_live_records_, occ.live);
  return occ;
}

std::string QnpEngine::consistency_check() const {
  std::uint64_t open_head_requests = 0;
  for (const auto& [id, cs] : circuits_) {
    if (!cs.is_head()) continue;
    for (const auto& [rid, state] : cs.requests) {
      if (!state.completed) ++open_head_requests;
    }
  }
  std::ostringstream err;
  const std::uint64_t accounted = counters_.requests_completed +
                                  counters_.requests_aborted +
                                  open_head_requests;
  if (counters_.requests_accepted != accounted) {
    err << "requests_accepted (" << counters_.requests_accepted
        << ") != completed (" << counters_.requests_completed
        << ") + aborted (" << counters_.requests_aborted << ") + active ("
        << open_head_requests << ")";
    return err.str();
  }
  if (counters_.requests_completed > counters_.requests_accepted) {
    err << "requests_completed (" << counters_.requests_completed
        << ") > requests_accepted (" << counters_.requests_accepted << ")";
    return err.str();
  }
  if (counters_.swaps_completed > counters_.swaps_started) {
    err << "swaps_completed (" << counters_.swaps_completed
        << ") > swaps_started (" << counters_.swaps_started << ")";
    return err.str();
  }
  const EngineOccupancy occ = occupancy();
  if (occ.peak < occ.live) {
    err << "occupancy peak (" << occ.peak << ") < live (" << occ.live << ")";
    return err.str();
  }
  return {};
}

}  // namespace qnetp::qnp
