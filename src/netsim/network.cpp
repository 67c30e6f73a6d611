#include "netsim/network.hpp"

#include "netsim/topology_spec.hpp"
#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::netsim {

Node::Node(des::Simulator& sim, Rng rng, qdevice::PairRegistry& registry,
           qhw::HardwareParams hw, NodeId id, qnp::QnpConfig config)
    : rng_(rng),
      device_(sim, rng_, registry, std::move(hw), id),
      engine_(sim, rng_, device_, config) {
  engine_.set_egp_lookup(
      [this](NodeId neighbour) { return egp_to(neighbour); });
}

void Node::add_neighbour(NodeId neighbour, linklayer::EgpLink* egp) {
  QNETP_ASSERT(egp != nullptr);
  neighbours_[neighbour] = egp;
}

linklayer::EgpLink* Node::egp_to(NodeId neighbour) const {
  const auto it = neighbours_.find(neighbour);
  return it == neighbours_.end() ? nullptr : it->second;
}

namespace {

std::size_t effective_shards(const ShardingConfig& sharding) {
  if (sharding.regions <= 1) return 1;
  const std::size_t shards = std::max<std::size_t>(1, sharding.shards);
  QNETP_ASSERT_MSG(shards <= sharding.regions,
                   "more execution shards than regions");
  return shards;
}

/// Run `sim` on a fixed 1 ms polling quantum for at most `span`, stopping
/// early when every queue and mailbox drains or, if given, once `*done`
/// is set. Observing on the quantum makes the instant a condition is seen
/// (and so every later schedule) a function of the quantum alone, never
/// of window boundaries, which differ across shard counts.
void poll(des::ShardedSimulator& sim, Duration span,
          const bool* done = nullptr) {
  const Duration quantum = Duration::ms(1);
  const TimePoint horizon = sim.now() + span;
  while ((done == nullptr || !*done) && sim.now() < horizon) {
    const TimePoint step_to = std::min(sim.now() + quantum, horizon);
    if (sim.run_until(step_to) == 0 && sim.events_pending() == 0) break;
  }
}

}  // namespace

Network::Network(NetworkConfig config)
    : config_(std::move(config)),
      sharded_(effective_shards(config_.sharding)),
      rng_(config_.seed),
      classical_(sharded_.shard(0)) {
  registries_.reserve(sharded_.shard_count());
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    registries_.push_back(std::make_unique<qdevice::PairRegistry>());
  }
  if (config_.faults.active()) classical_.set_fault_profile(config_.faults);
  Log::set_clock(this, [this] { return sharded_.shard(0).now(); });
  if (sharded_.shard_count() > 1) {
    // Worker threads stamp log lines off their own shard's clock.
    sharded_.set_thread_init([this](std::size_t shard) {
      Log::set_clock(this, [this, shard] { return sharded_.shard(shard).now(); });
    });
  }
}

Network::~Network() { Log::clear_clock(this); }

std::size_t Network::region_of(NodeId id) const {
  const auto it = config_.sharding.region_of.find(id);
  const std::size_t region =
      it == config_.sharding.region_of.end() ? 0 : it->second;
  QNETP_ASSERT_MSG(region < region_count(), "region tag out of range");
  return region;
}

std::size_t Network::shard_of(NodeId id) const {
  // Contiguous fold of regions onto execution shards: behaviour is a
  // function of the region alone; the fold only picks the worker loop.
  return region_of(id) * sharded_.shard_count() / region_count();
}

Node& Network::add_node(NodeId id, const qhw::HardwareParams& hw) {
  QNETP_ASSERT_MSG(nodes_.count(id) == 0, "duplicate node id");
  auto node = std::make_unique<Node>(node_sim(id), rng_.fork(),
                                     *registries_[shard_of(id)], hw, id,
                                     config_.qnp);
  Node& ref = *node;
  nodes_[id] = std::move(node);
  hardware_[id] = hw;
  topology_.add_node(id);

  // Qubit pools: the near-term platform exposes one shared communication
  // qubit; otherwise pools are added per link in connect().
  if (hw.single_communication_qubit) {
    ref.device().memory().set_shared_comm_pool(1);
    ref.device().set_serialized(true);
  }
  if (config_.storage_qubits > 0) {
    ref.device().memory().add_storage(config_.storage_qubits);
  }

  // Classical message dispatch: LSAs go to the node's router, everything
  // else into the engine. With the reliable transport enabled the node's
  // ReliableEndpoint sits between the channel and this dispatch (frames
  // in, ordered exactly-once payloads out) and every outbound signalling
  // message is framed through it.
  auto dispatch = [this, &ref, id](NodeId from, const netmsg::Message& m) {
    if (const auto* lsa = std::get_if<netmsg::LsaMsg>(&m)) {
      const auto it = routers_.find(id);
      if (it != routers_.end()) it->second->on_message(from, *lsa);
      return;
    }
    ref.engine().on_message(from, m);
  };
  if (config_.transport.enabled) {
    auto endpoint = std::make_unique<netmsg::ReliableEndpoint>(
        node_sim(id), classical_, id, config_.transport);
    netmsg::ReliableEndpoint* raw = endpoint.get();
    raw->set_deliver(std::move(dispatch));
    // May fire on a shard thread: park the verdict; the driver acts on it
    // in service_control_plane.
    raw->set_on_peer_dead([this, id](NodeId peer) {
      std::lock_guard<std::mutex> lock(dead_mutex_);
      pending_dead_peers_.insert({id, peer});
    });
    classical_.set_handler(id, [raw](NodeId from, const netmsg::Message& m) {
      raw->on_message(from, m);
    });
    ref.engine().set_send([raw](NodeId to, const netmsg::Message& m) {
      raw->send(to, m);
    });
    transports_[id] = std::move(endpoint);
  } else {
    classical_.set_handler(id, std::move(dispatch));
    ref.engine().set_send([this, id](NodeId to, const netmsg::Message& m) {
      classical_.send(id, to, m);
    });
  }
  // Engine-initiated teardowns (churn) must give their admitted capacity
  // back; the callback may fire on a shard thread, so park the id and let
  // the driver release it.
  ref.engine().set_on_teardown([this](CircuitId circuit, const std::string&) {
    std::lock_guard<std::mutex> lock(release_mutex_);
    pending_releases_.insert(circuit);
  });
  return ref;
}

linklayer::EgpLink& Network::connect(NodeId a, NodeId b,
                                     const qhw::FiberParams& fiber) {
  Node& na = node(a);
  Node& nb = node(b);
  const LinkId link_id{next_link_++};

  // Quantum link model uses the weaker of the two endpoint profiles (the
  // evaluation always uses homogeneous hardware per network).
  const qhw::HardwareParams& hw = hardware_.at(a);
  qhw::PhotonicLinkModel model(hw, fiber);

  // Every link gets its own forked RNG stream: links on different shards
  // generate concurrently. Cross-region links host only classical
  // traffic — circuits never cross regions, so their quantum side stays
  // idle and the shard choice below is moot.
  link_rngs_.push_back(std::make_unique<Rng>(rng_.fork()));
  auto egp = std::make_unique<linklayer::EgpLink>(
      node_sim(a), *link_rngs_.back(), link_id, na.device(), nb.device(),
      model);
  linklayer::EgpLink& ref = *egp;
  links_.push_back(std::move(egp));

  if (!hardware_.at(a).single_communication_qubit) {
    na.device().memory().add_link_pool(link_id, config_.comm_qubits_per_link);
  }
  if (!hardware_.at(b).single_communication_qubit) {
    nb.device().memory().add_link_pool(link_id, config_.comm_qubits_per_link);
  }

  ref.set_delivery_handler(a, [&na](const linklayer::LinkPairDelivery& d) {
    na.engine().on_link_pair(d);
  });
  ref.set_delivery_handler(b, [&nb](const linklayer::LinkPairDelivery& d) {
    nb.engine().on_link_pair(d);
  });

  na.add_neighbour(b, &ref);
  nb.add_neighbour(a, &ref);

  classical_.connect(a, b, fiber.propagation_delay());
  topology_.add_link(ctrl::TopologyLink{link_id, a, b, model, 1.0});
  controller_.reset();  // topology changed; rebuild lazily

  if (sharded_.shard_count() > 1) {
    // Re-arm after every topology change: the channel set (and with it
    // the conservative lookahead = min cross-shard propagation) may have
    // changed.
    classical_.enable_sharding(sharded_,
                               [this](NodeId n) { return shard_of(n); });
    if (const auto la = classical_.min_cross_shard_propagation()) {
      sharded_.set_lookahead(*la);
    }
  }
  return ref;
}

Node& Network::node(NodeId id) {
  const auto it = nodes_.find(id);
  QNETP_ASSERT_MSG(it != nodes_.end(), "unknown node");
  return *it->second;
}

std::vector<NodeId> Network::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

linklayer::EgpLink* Network::egp(NodeId a, NodeId b) {
  return node(a).egp_to(b);
}

const qhw::HardwareParams& Network::hardware(NodeId id) const {
  const auto it = hardware_.find(id);
  QNETP_ASSERT_MSG(it != hardware_.end(), "unknown node");
  return it->second;
}

// --- Link-state routing ------------------------------------------------------

void Network::enable_linkstate(ctrl::LinkStateConfig config) {
  QNETP_ASSERT_MSG(!linkstate_enabled_, "linkstate already enabled");
  QNETP_ASSERT_MSG(!nodes_.empty(), "enable_linkstate on an empty network");
  linkstate_enabled_ = true;
  linkstate_config_ = config;
  view_node_ = nodes_.begin()->first;
  for (const auto& [id, n] : nodes_) {
    auto router = std::make_unique<ctrl::LinkStateRouter>(node_sim(id), id,
                                                          config);
    if (config_.transport.enabled) {
      // LSA flooding rides the reliable transport too: the periodic
      // refresh doubles as the probe traffic that drives dead-peer
      // verdicts on silently partitioned adjacencies.
      auto* endpoint = transports_.at(id).get();
      router->set_send([endpoint](NodeId to, const netmsg::Message& m) {
        endpoint->send(to, m);
      });
    } else {
      router->set_send([this, id = id](NodeId to, const netmsg::Message& m) {
        classical_.send(id, to, m);
      });
    }
    router->set_local_links([this, id = id] { return advertised_links(id); });
    if (id == view_node_) {
      router->set_on_change(
          [this] { view_stale_.store(true, std::memory_order_relaxed); });
    }
    routers_[id] = std::move(router);
  }
  for (auto& [id, r] : routers_) r->start();
}

ctrl::LinkStateRouter& Network::router(NodeId id) {
  const auto it = routers_.find(id);
  QNETP_ASSERT_MSG(it != routers_.end(), "no router (enable_linkstate first)");
  return *it->second;
}

ctrl::LinkStateStats Network::linkstate_totals() const {
  ctrl::LinkStateStats total;
  for (const auto& [id, r] : routers_) {
    const auto& s = r->stats();
    total.lsas_originated += s.lsas_originated;
    total.lsas_received += s.lsas_received;
    total.lsas_flooded += s.lsas_flooded;
    total.lsas_duplicate += s.lsas_duplicate;
    total.lsas_resynced += s.lsas_resynced;
    total.lsas_aged_out += s.lsas_aged_out;
    total.spf_runs += s.spf_runs;
  }
  return total;
}

std::vector<netmsg::LsaLink> Network::advertised_links(NodeId id) {
  std::vector<netmsg::LsaLink> out;
  if (failed_nodes_.count(id) != 0) return out;
  for (const auto& l : topology_.links()) {
    if (l.a != id && l.b != id) continue;
    const NodeId peer = (l.a == id) ? l.b : l.a;
    const auto churn = link_churn_.find(l.id);
    if (churn != link_churn_.end() && churn->second.severed) continue;
    if (failed_nodes_.count(peer) != 0) continue;
    // A transport dead-peer verdict withdraws the adjacency exactly like
    // a sever would (partitioned links keep being advertised until then).
    if (dead_peers_.count({id, peer}) != 0) continue;

    netmsg::LsaLink adv;
    adv.neighbour = peer;
    adv.link = l.id;
    adv.cost = churn != link_churn_.end() ? churn->second.cost_scale : 1.0;
    const double mean_s =
        l.model.mean_generation_time(l.model.optimal_alpha()).as_seconds();
    adv.max_lpr = mean_s > 0.0 ? 1.0 / mean_s : 0.0;
    adv.fidelity = l.model.max_fidelity();
    if (config_.admission.max_circuits_per_link > 0) {
      const std::size_t used =
          controller_ != nullptr ? controller_->circuits_on(l.id) : 0;
      adv.residual_slots = static_cast<std::uint32_t>(
          config_.admission.max_circuits_per_link > used
              ? config_.admission.max_circuits_per_link - used
              : 0);
    } else {
      adv.residual_slots = netmsg::LsaLink::kUnlimitedSlots;
    }
    out.push_back(adv);
  }
  return out;
}

void Network::apply_router_view() {
  auto& reference = *routers_.at(view_node_);
  std::map<LinkId, double> routed;
  for (const auto& l : reference.view_links()) routed[l.id] = l.cost;
  for (const auto& l : topology_.links()) {
    const auto it = routed.find(l.id);
    if (it == routed.end()) {
      if (l.up) topology_.set_link_up(l.id, false);
    } else {
      if (!l.up) topology_.set_link_up(l.id, true);
      topology_.set_link_cost(l.id, it->second);
    }
  }
}

// --- Runtime churn -----------------------------------------------------------

LinkId Network::link_id_between(NodeId a, NodeId b) {
  const auto* l = topology_.link_between(a, b);
  QNETP_ASSERT_MSG(l != nullptr, "no link between the given nodes");
  return l->id;
}

void Network::sever_link(NodeId a, NodeId b) {
  const LinkId id = link_id_between(a, b);
  auto& churn = link_churn_[id];
  QNETP_ASSERT_MSG(!churn.severed, "link already severed");
  churn.severed = true;
  classical_.set_link_up(a, b, false);
  if (linkstate_enabled_) {
    if (routers_.at(a)->running()) routers_.at(a)->originate();
    if (routers_.at(b)->running()) routers_.at(b)->originate();
  } else {
    topology_.set_link_up(id, false);
  }
  // The engines on both ends lose the adjacency: every circuit crossing
  // it tears down from both cut faces (the TEARDOWN toward the dead link
  // is dropped; the surviving directions propagate).
  if (failed_nodes_.count(a) == 0) engine(a).on_link_down(b);
  if (failed_nodes_.count(b) == 0) engine(b).on_link_down(a);
}

void Network::partition_link(NodeId a, NodeId b) {
  QNETP_ASSERT_MSG(config_.transport.enabled,
                   "partition_link needs the reliable transport to detect it");
  const LinkId id = link_id_between(a, b);
  auto& churn = link_churn_[id];
  QNETP_ASSERT_MSG(!churn.severed && !churn.partitioned,
                   "link already severed or partitioned");
  churn.partitioned = true;
  // Silent: no originate, no on_link_down. The retransmission ladders on
  // both sides run out and the dead-peer drain does the rest.
  classical_.set_link_up(a, b, false);
}

void Network::heal_link(NodeId a, NodeId b) {
  const LinkId id = link_id_between(a, b);
  auto& churn = link_churn_[id];
  QNETP_ASSERT_MSG(churn.severed || churn.partitioned,
                   "healing a link that is up");
  churn.severed = false;
  churn.partitioned = false;
  classical_.set_link_up(a, b, true);
  if (config_.transport.enabled) {
    // Fresh conversations both ways: each endpoint restarts its sequence
    // space, so both must forget the other or the survivor's receive
    // window would discard the restarted sequence numbers.
    transports_.at(a)->reset_peer(b);
    transports_.at(b)->reset_peer(a);
    dead_peers_.erase({a, b});
    dead_peers_.erase({b, a});
  }
  if (linkstate_enabled_) {
    if (routers_.at(a)->running()) routers_.at(a)->originate();
    if (routers_.at(b)->running()) routers_.at(b)->originate();
  } else {
    topology_.set_link_up(id, true);
  }
}

void Network::degrade_link(NodeId a, NodeId b, double cost_factor) {
  QNETP_ASSERT(cost_factor > 0.0);
  const LinkId id = link_id_between(a, b);
  link_churn_[id].cost_scale = cost_factor;
  if (linkstate_enabled_) {
    if (routers_.at(a)->running()) routers_.at(a)->originate();
    if (routers_.at(b)->running()) routers_.at(b)->originate();
  } else {
    topology_.set_link_cost(id, cost_factor);
  }
}

void Network::fail_node(NodeId id) {
  QNETP_ASSERT_MSG(failed_nodes_.count(id) == 0, "node already failed");
  failed_nodes_.insert(id);
  // Channels down first: everything the dying node still tries to send
  // (its own TEARDOWNs below included) is lost, like a real crash.
  std::vector<NodeId> peers;
  for (const auto& l : topology_.links()) {
    if (l.a != id && l.b != id) continue;
    const auto churn = link_churn_.find(l.id);
    if (churn != link_churn_.end() && churn->second.severed) continue;
    peers.push_back(l.a == id ? l.b : l.a);
    classical_.set_link_up(l.a, l.b, false);
    if (!linkstate_enabled_) topology_.set_link_up(l.id, false);
  }
  if (linkstate_enabled_) routers_.at(id)->stop();
  // The dead node's own engine frees its circuit state and qubits (the
  // fabric-wide leak check has no other way to account for them); its
  // signalling is silently dropped, so the survivors learn of the crash
  // from their own adjacency loss and from the LSA aging out.
  for (const NodeId peer : peers) {
    engine(id).on_link_down(peer);
    if (failed_nodes_.count(peer) == 0) {
      if (linkstate_enabled_ && routers_.at(peer)->running()) {
        routers_.at(peer)->originate();
      }
      engine(peer).on_link_down(id);
    }
  }
}

netmsg::ReliableEndpoint& Network::transport(NodeId id) {
  const auto it = transports_.find(id);
  QNETP_ASSERT_MSG(it != transports_.end(),
                   "no reliable endpoint (enable config.transport first)");
  return *it->second;
}

std::size_t Network::service_control_plane() {
  std::size_t actions = 0;
  // Dead-peer verdicts first: the teardowns they trigger park releases
  // that the drain below hands back in the same call.
  std::set<std::pair<NodeId, NodeId>> dead;
  {
    std::lock_guard<std::mutex> lock(dead_mutex_);
    dead.swap(pending_dead_peers_);
  }
  for (const auto& [local, peer] : dead) {
    if (!dead_peers_.insert({local, peer}).second) continue;
    ++actions;
    if (failed_nodes_.count(local) != 0) continue;
    // Same consequences as losing the adjacency explicitly: withdraw it
    // from the LSA and tear down the circuits that crossed it.
    if (linkstate_enabled_ && routers_.at(local)->running()) {
      routers_.at(local)->originate();
    }
    engine(local).on_link_down(peer);
  }
  if (linkstate_enabled_ && view_stale_.exchange(false)) {
    apply_router_view();
    ++actions;
  }
  std::set<CircuitId> releases;
  {
    std::lock_guard<std::mutex> lock(release_mutex_);
    releases.swap(pending_releases_);
  }
  for (const CircuitId circuit : releases) {
    circuit_heads_.erase(circuit);
    if (controller_ != nullptr) {
      controller_->release_circuit(circuit);
      ++actions;
    }
  }
  if (controller_ != nullptr) {
    for (const auto& update : controller_->take_residual_updates()) {
      // The head may have lost the circuit (or its life) since the
      // update was queued.
      if (failed_nodes_.count(update.head) != 0) continue;
      if (!engine(update.head).circuit_rates(update.msg.circuit_id)) continue;
      engine(update.head).begin_update(update.msg);
      ++actions;
    }
  }
  return actions;
}

std::optional<ctrl::CircuitPlan> Network::establish_circuit(
    NodeId head, NodeId tail, EndpointId head_endpoint,
    EndpointId tail_endpoint, double end_to_end_fidelity,
    const ctrl::CircuitPlanOptions& options, std::string* reason,
    Duration timeout) {
  service_control_plane();  // released capacity must be visible to admission
  if (controller_ == nullptr) {
    // Controller assumes homogeneous hardware (the paper's setting); use
    // the head node's profile.
    controller_ = std::make_unique<ctrl::Controller>(
        topology_, hardware_.at(head), config_.admission);
  }
  auto plan = controller_->plan_circuit(head, tail, head_endpoint,
                                        tail_endpoint, end_to_end_fidelity,
                                        options, reason);
  if (!plan.has_value()) return std::nullopt;

  // Quantum circuits are region-local: an EgpLink is one sequential
  // object spanning both endpoint devices, and entangled-pair state spans
  // both nodes — neither survives a shard boundary. Bridges are
  // classical-only. This is a property of the *region* partition, so the
  // outcome is identical at every worker count.
  for (const auto& hop : plan->install.hops) {
    if (region_of(hop.node) == region_of(head)) continue;
    if (reason != nullptr) {
      *reason = "path crosses a region boundary "
                "(quantum circuits are region-local)";
    }
    controller_->release_circuit(plan->install.circuit_id);
    return std::nullopt;
  }

  bool up = false;
  bool ok = false;
  std::string ack_reason;
  const CircuitId expected = plan->install.circuit_id;
  engine(head).set_on_circuit_up(
      [&, expected](CircuitId acked, bool accepted, const std::string& r) {
        // A duplicated INSTALL_ACK from an earlier circuit (channel
        // injection) must not complete this establishment.
        if (acked != expected) return;
        up = true;
        ok = accepted;
        ack_reason = r;
      });
  engine(head).begin_install(plan->install);
  poll(sharded_, timeout, &up);
  engine(head).set_on_circuit_up(nullptr);
  if (!up || !ok) {
    if (reason != nullptr) {
      *reason = up ? ("install rejected: " + ack_reason) : "install timeout";
    }
    // The InstallMsg may have been relayed over a prefix of the path:
    // those hops hold live circuit state (and possibly queued qubits).
    // Tear the prefix down from the head — per-node channels are FIFO, so
    // the TEARDOWN trails any still-relaying INSTALL — and give it a
    // bounded window to propagate.
    engine(head).teardown(plan->install.circuit_id,
                          up ? "install rejected" : "install timeout");
    poll(sharded_, timeout);
    controller_->release_circuit(plan->install.circuit_id);
    service_control_plane();  // re-signal circuits the failed plan squeezed
    return std::nullopt;
  }
  circuit_heads_[plan->install.circuit_id] = head;
  service_control_plane();  // re-signal circuits this guarantee squeezed
  return plan;
}

void Network::teardown_circuit(CircuitId circuit, const std::string& reason) {
  service_control_plane();
  const auto it = circuit_heads_.find(circuit);
  if (it == circuit_heads_.end()) return;  // churn already tore it down
  engine(it->second).teardown(circuit, reason);
  circuit_heads_.erase(it);
  if (controller_ != nullptr) controller_->release_circuit(circuit);
  service_control_plane();  // re-signal circuits the release regrew
}

void Network::install_manual_circuit(const netmsg::InstallMsg& install) {
  for (const auto& hop : install.hops) {
    QNETP_ASSERT_MSG(region_of(hop.node) == region_of(install.hops[0].node),
                     "manual circuit crosses a region boundary");
    node(hop.node).engine().install_hop(install, hop);
  }
}

bool Network::quiescent() const {
  for (const auto& [id, n] : nodes_) {
    if (!n->device().memory().all_free()) return false;
  }
  for (const auto& reg : registries_) {
    if (!reg->empty()) return false;
  }
  return true;
}

std::unique_ptr<Network> make_dumbbell(const NetworkConfig& config,
                                       const qhw::HardwareParams& hw,
                                       const qhw::FiberParams& fiber) {
  return TopologySpec::dumbbell(hw, fiber).build(config);
}

std::unique_ptr<Network> make_chain(std::size_t n,
                                    const NetworkConfig& config,
                                    const qhw::HardwareParams& hw,
                                    const qhw::FiberParams& fiber) {
  return TopologySpec::chain(n, hw, fiber).build(config);
}

}  // namespace qnetp::netsim
