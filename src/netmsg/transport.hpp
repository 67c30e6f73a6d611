// Transport layers over the classical channels.
//
// Two independent mechanisms live here:
//
//  * TransportConnection — per-circuit keepalive liveness ("Every VC
//    establishes its own transport connection between every pair of
//    nodes along its path ... The transport's liveness mechanism can
//    then be used to monitor the classical channel liveness and tear
//    down the VC if the connection goes down", Sec. 4.1). It assumes the
//    underlying channel is reliable and adds failure detection only.
//
//  * ReliableEndpoint — a per-node reliable signalling transport for
//    fabrics whose channels are NOT reliable (fault.hpp). Every protocol
//    message toward a peer is wrapped in a sequence-numbered FrameMsg
//    with a cumulative acknowledgement; the sender keeps unacknowledged
//    frames and retransmits the oldest on a timer with exponential
//    backoff up to a cap, the receiver filters duplicates and restores
//    order through a bounded reorder buffer, and `max_retries` unanswered
//    retransmissions yield a dead-peer verdict — the signal that lets
//    the routing and engine layers treat a silent partition like an
//    explicit link failure instead of waiting forever.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "des/simulator.hpp"
#include "netmsg/channel.hpp"

namespace qnetp::netmsg {

class TransportConnection {
 public:
  using OnMessage = std::function<void(const Message&)>;
  using OnDown = std::function<void()>;

  /// A transport endpoint at `local` talking to `peer` for one circuit.
  TransportConnection(des::Simulator& sim, ClassicalNetwork& net,
                      CircuitId circuit, NodeId local, NodeId peer);
  ~TransportConnection();
  TransportConnection(const TransportConnection&) = delete;
  TransportConnection& operator=(const TransportConnection&) = delete;

  CircuitId circuit() const { return circuit_; }
  NodeId peer() const { return peer_; }

  void send(const Message& msg);

  /// Deliver an inbound protocol message (invoked by the node's channel
  /// dispatch). Keepalives are consumed internally.
  void on_receive(const Message& msg);
  /// Note inbound keepalive/traffic for liveness.
  void note_alive();

  void set_on_message(OnMessage fn) { on_message_ = std::move(fn); }
  void set_on_down(OnDown fn) { on_down_ = std::move(fn); }

  /// Enable keepalive probing: a probe is counted every `interval`; if no
  /// traffic (data or probe) arrives within `timeout`, on_down fires.
  void enable_keepalive(Duration interval, Duration timeout);

  bool is_down() const { return down_; }

 private:
  void arm_probe();
  void arm_check();

  des::Simulator& sim_;
  ClassicalNetwork& net_;
  CircuitId circuit_;
  NodeId local_;
  NodeId peer_;
  OnMessage on_message_;
  OnDown on_down_;

  bool keepalive_enabled_ = false;
  Duration keepalive_interval_;
  Duration keepalive_timeout_;
  TimePoint last_heard_;
  bool down_ = false;
  des::ScopedTimer probe_timer_;
  des::ScopedTimer check_timer_;
};

// ---------------------------------------------------------------------------
// Reliable signalling transport.
// ---------------------------------------------------------------------------

/// Knobs of the reliable signalling transport (one ReliableEndpoint per
/// node; netsim::NetworkConfig carries one of these).
struct ReliableConfig {
  /// Off by default: the paper's classical fabric is reliable and every
  /// committed digest depends on the unwrapped wire format.
  bool enabled = false;
  /// Unanswered retransmissions of the oldest frame before the peer is
  /// declared dead.
  std::size_t max_retries = 8;
  /// Receive-side reorder buffer span (frames at or beyond
  /// next_expected + window are dropped and must be retransmitted).
  std::size_t reorder_window = 256;
};

/// Endpoint counters (tests and trials read these).
struct ReliableStats {
  std::uint64_t data_sent = 0;    ///< first transmissions of a frame
  std::uint64_t retransmits = 0;  ///< timer-driven re-sends
  std::uint64_t acks_sent = 0;    ///< pure ACK frames
  std::uint64_t delivered = 0;    ///< payloads handed up, in order
  std::uint64_t duplicates_filtered = 0;
  std::uint64_t buffered = 0;  ///< out-of-order payloads parked
  std::uint64_t payload_decode_errors = 0;  ///< corrupt inner payloads
  std::uint64_t dead_verdicts = 0;
};

/// One node's reliable transport endpoint. Owns an independent
/// conversation (sequence spaces, retransmit timer, reorder buffer) per
/// peer, created lazily at first contact. Non-frame messages pass through
/// untouched, so legacy direct senders keep working beside it.
class ReliableEndpoint {
 public:
  using Deliver = std::function<void(NodeId from, const Message&)>;
  using OnPeerDead = std::function<void(NodeId peer)>;

  ReliableEndpoint(des::Simulator& sim, ClassicalNetwork& net, NodeId local,
                   ReliableConfig config);
  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  NodeId local() const { return local_; }
  const ReliableConfig& config() const { return config_; }
  const ReliableStats& stats() const { return stats_; }

  /// In-order exactly-once upcall for payload messages (and pass-through
  /// for unframed traffic).
  void set_deliver(Deliver fn) { deliver_ = std::move(fn); }
  /// Fired exactly once per peer when `max_retries` retransmissions of
  /// the oldest frame go unanswered. May fire from a shard thread.
  void set_on_peer_dead(OnPeerDead fn) { on_peer_dead_ = std::move(fn); }

  /// Reliable send toward a direct peer. Dropped when the peer has been
  /// declared dead (reset_peer to start a new conversation).
  void send(NodeId to, const Message& msg);

  /// Channel receive handler (install via ClassicalNetwork::set_handler).
  void on_message(NodeId from, const Message& msg);

  /// Forget the conversation with `peer` entirely (fresh sequence spaces
  /// both ways). Both endpoints of a healed adjacency must reset each
  /// other or the survivor's receive window would discard the fresh
  /// sender's restarted sequence numbers.
  void reset_peer(NodeId peer);

  bool peer_dead(NodeId peer) const;
  /// True while a retransmission timer is pending toward `peer`
  /// (observability for the timer-cancellation tests).
  bool retransmit_armed(NodeId peer) const;
  /// Frames sent but not yet cumulatively acknowledged by `peer`.
  std::size_t unacked(NodeId peer) const;

 private:
  struct Peer {
    // Send side.
    std::uint64_t next_seq = 1;
    std::deque<std::pair<std::uint64_t, Bytes>> unacked;
    Duration rto;
    std::size_t retries = 0;
    des::ScopedTimer retransmit;
    // Receive side.
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, Message> reorder;
    bool dead = false;
  };

  Peer& peer_state(NodeId peer);
  void transmit(NodeId to, Peer& p, std::uint64_t seq, const Bytes& payload);
  void send_ack(NodeId to, Peer& p);
  void arm_retransmit(NodeId to);
  void on_retransmit_timer(NodeId to);
  void handle_frame(NodeId from, const FrameMsg& frame);

  des::Simulator& sim_;
  ClassicalNetwork& net_;
  NodeId local_;
  ReliableConfig config_;
  Deliver deliver_;
  OnPeerDead on_peer_dead_;
  std::map<NodeId, Peer> peers_;
  ReliableStats stats_;
};

}  // namespace qnetp::netmsg
