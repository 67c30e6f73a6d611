// Reliable signalling transport over the classical channels.
//
// ReliableEndpoint is a per-node transport for fabrics whose channels are
// NOT reliable (fault.hpp). Every protocol message toward a peer is
// wrapped in a sequence-numbered FrameMsg with a cumulative
// acknowledgement; the sender keeps unacknowledged frames and retransmits
// the oldest on a timer with exponential backoff up to a cap, the
// receiver filters duplicates and restores order through a bounded
// reorder buffer, and `max_retries` unanswered retransmissions yield a
// dead-peer verdict. That verdict is the liveness signal of Sec. 4.1
// ("The transport's liveness mechanism can then be used to monitor the
// classical channel liveness and tear down the VC if the connection goes
// down"), kept per adjacency rather than per circuit: it lets the routing
// and engine layers treat a silent partition like an explicit link
// failure instead of waiting forever.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "des/simulator.hpp"
#include "netmsg/channel.hpp"

namespace qnetp::netmsg {

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
