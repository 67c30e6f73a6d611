// Network assembly: builds and wires a complete simulated quantum network.
//
// A Network owns the simulator, the shared pair registry, the classical
// message fabric, and one Node (device + QNP engine) per quantum node,
// plus one EgpLink per quantum link. Convenience builders produce the
// paper's evaluation topologies: linear chains (Fig. 11) and the
// six-node dumbbell with the MA-MB bottleneck (Fig. 7).
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/linkstate.hpp"
#include "ctrl/topology.hpp"
#include "des/sharded.hpp"
#include "des/simulator.hpp"
#include "linklayer/egp.hpp"
#include "netmsg/channel.hpp"
#include "netmsg/fault.hpp"
#include "netmsg/transport.hpp"
#include "qdevice/device.hpp"
#include "qnp/engine.hpp"

namespace qnetp::netsim {

/// One quantum node: device + protocol engine + adjacency.
class Node {
 public:
  Node(des::Simulator& sim, Rng rng, qdevice::PairRegistry& registry,
       qhw::HardwareParams hw, NodeId id, qnp::QnpConfig config);

  NodeId id() const { return device_.node(); }
  qdevice::QuantumDevice& device() { return device_; }
  qnp::QnpEngine& engine() { return engine_; }
  Rng& rng() { return rng_; }

  void add_neighbour(NodeId neighbour, linklayer::EgpLink* egp);
  linklayer::EgpLink* egp_to(NodeId neighbour) const;

 private:
  Rng rng_;
  qdevice::QuantumDevice device_;
  qnp::QnpEngine engine_;
  std::map<NodeId, linklayer::EgpLink*> neighbours_;
};

/// Execution sharding of one fabric (conservative-parallel DES). Every
/// fabric runs on it; a single-region fabric is simply regions = 1.
///
/// The partition has two layers so behaviour never depends on the worker
/// count: `region_of` is the *logical* partition (fixed by the
/// TopologySpec region tags — quantum links and circuits stay
/// region-local), and `shards` is how many worker event loops the
/// regions fold onto (region r runs on shard r * shards / regions, a
/// contiguous assignment). All protocol decisions key off regions, so
/// aggregate digests are bit-identical across any `shards` value.
struct ShardingConfig {
  /// Execution shards (worker event loops); clamped to 1 when the
  /// fabric has a single region. Must be <= regions.
  std::size_t shards = 1;
  /// Node -> region; nodes absent from the map are region 0. Filled by
  /// TopologySpec::build() from the spec's region tags.
  std::map<NodeId, std::size_t> region_of;
  /// Total regions (>= every region_of value + 1).
  std::size_t regions = 1;
};

struct NetworkConfig {
  std::uint64_t seed = 1;
  qnp::QnpConfig qnp;
  /// Communication qubits dedicated to each link per node ("two per link"
  /// in the paper's main evaluation).
  std::size_t comm_qubits_per_link = 2;
  /// Storage qubits per node (near-term platform).
  std::size_t storage_qubits = 0;
  /// Capacity model the central controller admits circuits against.
  ctrl::ControllerConfig admission;
  /// Conservative-parallel execution partition (defaults to one region;
  /// TopologySpec::build() fills it from the spec's region tags).
  ShardingConfig sharding;
  /// Fault injection on every classical channel (inert by default; the
  /// committed digests depend on the fault-free fast path).
  netmsg::FaultProfile faults;
  /// Reliable signalling transport (one ReliableEndpoint per node wrapped
  /// around all engine/router signalling). Off by default.
  netmsg::ReliableConfig transport;
};

class Network {
 public:
  explicit Network(NetworkConfig config = {});
  ~Network();
  // Nodes, links and the classical fabric hold references into the
  // network; it must stay put.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = delete;
  Network& operator=(Network&&) = delete;

  /// The fabric's one clock, for driver code between runs: run_until and
  /// now on this drive and read the whole fabric at any shard count.
  /// Its now() asserts when read from inside an event.
  des::ShardedSimulator& sharded_sim() { return sharded_; }
  /// The event loop (and clock) a node's events run on: what code inside
  /// an event (endpoint handlers, applications, self-rescheduling pumps)
  /// reads and schedules on, at any shard count.
  des::Simulator& node_sim(NodeId id) { return sharded_.shard(shard_of(id)); }
  netmsg::ClassicalNetwork& classical() { return classical_; }
  qdevice::PairRegistry& registry() { return *registries_.front(); }
  const ctrl::Topology& topology() const { return topology_; }

  /// Execution partition introspection.
  std::size_t region_count() const {
    return std::max<std::size_t>(1, config_.sharding.regions);
  }
  std::size_t region_of(NodeId id) const;
  /// The execution shard a node's events run on (region folded onto the
  /// configured worker count).
  std::size_t shard_of(NodeId id) const;

  /// Add a node with the given hardware profile.
  Node& add_node(NodeId id, const qhw::HardwareParams& hw);

  /// Connect two nodes with a quantum link over `fiber` plus the parallel
  /// classical channel.
  linklayer::EgpLink& connect(NodeId a, NodeId b,
                              const qhw::FiberParams& fiber);

  Node& node(NodeId id);
  /// All node ids, ascending (for fabric-wide sweeps, e.g. occupancy
  /// accounting across every engine).
  std::vector<NodeId> node_ids() const;
  qnp::QnpEngine& engine(NodeId id) { return node(id).engine(); }
  qdevice::QuantumDevice& device(NodeId id) { return node(id).device(); }
  linklayer::EgpLink* egp(NodeId a, NodeId b);

  /// Plan a circuit via the central controller (admission included) and
  /// install it through the signalling path. Runs the simulator until the
  /// install acknowledges (bounded by `timeout`). Returns the plan, or
  /// nullopt with reason. A failed installation (timeout or rejection)
  /// tears the partially installed prefix back down with a TEARDOWN from
  /// the head and releases the admitted capacity, so no per-hop state or
  /// qubit survives the failure.
  std::optional<ctrl::CircuitPlan> establish_circuit(
      NodeId head, NodeId tail, EndpointId head_endpoint,
      EndpointId tail_endpoint, double end_to_end_fidelity,
      const ctrl::CircuitPlanOptions& options = {},
      std::string* reason = nullptr, Duration timeout = Duration::seconds(1));

  /// Tear down an established circuit from its head-end and release the
  /// capacity the controller had admitted for it. The TEARDOWN propagates
  /// while the simulator runs.
  void teardown_circuit(CircuitId circuit, const std::string& reason);

  /// The central controller (created lazily by establish_circuit;
  /// nullptr before the first call).
  const ctrl::Controller* controller() const { return controller_.get(); }

  // --- Link-state routing ---------------------------------------------------

  /// Run one LinkStateRouter per node over the classical fabric. Once
  /// enabled, the controller's Topology is driven from the routed view
  /// (the lowest node id hosts the reference database): links the routers
  /// have not yet converged on count as down, so run the fabric for a
  /// convergence warm-up before the first establish_circuit. Call before
  /// running the simulator.
  void enable_linkstate(ctrl::LinkStateConfig config = {});
  /// The per-node router (enable_linkstate first).
  ctrl::LinkStateRouter& router(NodeId id);
  /// Router statistics summed over every node.
  ctrl::LinkStateStats linkstate_totals() const;

  // --- Runtime churn (driver thread, between run_until windows) -------------

  /// Cut a link both ways: classical delivery stops, both end routers
  /// re-originate without it, and both end engines tear down the circuits
  /// that crossed it.
  void sever_link(NodeId a, NodeId b);
  /// Undo sever_link; the routers re-advertise the adjacency.
  void heal_link(NodeId a, NodeId b);
  /// Scale the advertised routing cost of a link (metric-only churn:
  /// nothing is torn down, paths just stop preferring it).
  void degrade_link(NodeId a, NodeId b, double cost_factor);
  /// Silently kill a node: every incident channel drops, neighbours tear
  /// down the circuits through it, its own engine frees its qubits, and
  /// its LSA ages out of the surviving databases.
  void fail_node(NodeId id);
  bool node_failed(NodeId id) const { return failed_nodes_.count(id) != 0; }

  /// Drain the deferred control-plane work accumulated while the fabric
  /// ran: engine-initiated teardowns release their admitted capacity, the
  /// routed view is applied to the controller topology, and residual
  /// UPDATEs are re-signalled to best-effort circuit heads. Called
  /// automatically at establish/teardown entry; call it from trial loops
  /// between strides. Returns the number of actions performed.
  std::size_t service_control_plane();

  /// Install a manually constructed circuit (Sec. 5.3: "we manually
  /// populate the routing tables").
  void install_manual_circuit(const netmsg::InstallMsg& install);

  /// Leak check: no qubit allocated anywhere, no dangling pair bindings.
  bool quiescent() const;

  /// The hardware profile a node was created with.
  const qhw::HardwareParams& hardware(NodeId id) const;

  // --- Reliable signalling transport ----------------------------------------

  bool transport_enabled() const { return config_.transport.enabled; }
  /// The node's reliable endpoint (transport must be enabled).
  netmsg::ReliableEndpoint& transport(NodeId id);

  /// Silently partition a link: classical delivery stops but — unlike
  /// sever_link — nobody is told. The reliable transport's retransmission
  /// ladder detects the loss on both sides and the dead-peer verdicts
  /// drive the same routing withdrawal and circuit teardowns an explicit
  /// sever would have. Requires the reliable transport.
  void partition_link(NodeId a, NodeId b);
  /// True once `local`'s transport has declared `peer` dead and the churn
  /// drain has acted on the verdict.
  bool peer_declared_dead(NodeId local, NodeId peer) const {
    return dead_peers_.count({local, peer}) != 0;
  }

 private:
  /// Per-link runtime churn state (base routing cost is 1.0).
  struct LinkChurn {
    double cost_scale = 1.0;
    bool severed = false;
    /// Silent partition: channels are down but routers keep advertising
    /// the link until a transport dead-peer verdict withdraws it.
    bool partitioned = false;
  };

  /// The adjacencies node `id` currently advertises in its LSA, with the
  /// quantum metrics (max LPR, best fidelity, residual circuit slots).
  std::vector<netmsg::LsaLink> advertised_links(NodeId id);
  /// Push the reference router's two-way-checked view into topology_.
  void apply_router_view();
  LinkId link_id_between(NodeId a, NodeId b);

  NetworkConfig config_;
  des::ShardedSimulator sharded_;
  Rng rng_;
  /// One pair registry per execution shard: entangled pairs never span
  /// shards (quantum links are region-local), so each shard's bindings
  /// are touched only by that shard's event loop.
  std::vector<std::unique_ptr<qdevice::PairRegistry>> registries_;
  netmsg::ClassicalNetwork classical_;
  ctrl::Topology topology_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  std::map<NodeId, qhw::HardwareParams> hardware_;
  std::vector<std::unique_ptr<linklayer::EgpLink>> links_;
  /// One RNG stream per link, forked at connect() in spec order (so the
  /// streams are reproducible): EgpLinks on different shards must not
  /// share the network RNG.
  std::vector<std::unique_ptr<Rng>> link_rngs_;
  std::unique_ptr<ctrl::Controller> controller_;
  std::map<CircuitId, NodeId> circuit_heads_;
  std::uint64_t next_link_ = 1;

  bool linkstate_enabled_ = false;
  ctrl::LinkStateConfig linkstate_config_;
  std::map<NodeId, std::unique_ptr<ctrl::LinkStateRouter>> routers_;
  /// The node whose LSDB drives the controller topology (lowest id).
  NodeId view_node_;
  /// Set by the reference router's on_change (possibly on a shard
  /// thread); consumed by service_control_plane on the driver thread.
  std::atomic<bool> view_stale_{false};

  std::map<LinkId, LinkChurn> link_churn_;
  std::set<NodeId> failed_nodes_;

  /// Engine-initiated teardowns land here from shard threads; the driver
  /// drains them in circuit-id order (deterministic at any shard count).
  std::mutex release_mutex_;
  std::set<CircuitId> pending_releases_;

  /// One reliable endpoint per node when config_.transport.enabled.
  std::map<NodeId, std::unique_ptr<netmsg::ReliableEndpoint>> transports_;
  /// (local, peer) dead-peer verdicts parked from shard threads; drained
  /// in pair order by service_control_plane (deterministic at any shard
  /// count), then remembered in dead_peers_ until the link heals.
  std::mutex dead_mutex_;
  std::set<std::pair<NodeId, NodeId>> pending_dead_peers_;
  std::set<std::pair<NodeId, NodeId>> dead_peers_;
};

/// The paper's Fig. 7 dumbbell: end-nodes A0(1), A1(2), B0(3), B1(4) and
/// routers MA(5), MB(6); the MA-MB link is the bottleneck. Both builders
/// below are thin wrappers over the corresponding TopologySpec
/// (topology_spec.hpp), the single network-construction path.
struct DumbbellIds {
  NodeId a0{1}, a1{2}, b0{3}, b1{4}, ma{5}, mb{6};
};
std::unique_ptr<Network> make_dumbbell(const NetworkConfig& config,
                                       const qhw::HardwareParams& hw,
                                       const qhw::FiberParams& fiber);

/// A linear chain node(1) - node(2) - ... - node(n).
std::unique_ptr<Network> make_chain(std::size_t n,
                                    const NetworkConfig& config,
                                    const qhw::HardwareParams& hw,
                                    const qhw::FiberParams& fiber);

}  // namespace qnetp::netsim
