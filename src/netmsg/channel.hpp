// Simulated classical message channels.
//
// Every pair of adjacent quantum nodes also shares a classical channel
// (Fig. 1). By default the simulation models reliable, in-order delivery
// (the real system runs over TCP/QUIC, Sec. 4.1): messages are
// serialized, delayed by propagation plus a configurable artificial
// extra delay (the knob behind Fig. 10c), and handed to the receiver's
// handler. FIFO order is enforced per directed channel even when the
// delay is changed mid-flight. Channels can be administratively taken
// down to exercise liveness handling.
//
// Fault injection: set_fault_profile() turns the fabric adversarial.
// Each directed channel forks its own RNG stream from the profile seed
// (fault.hpp), and per-message drop/duplicate/reorder/corrupt/jitter
// decisions are drawn in a fixed order at send time — a pure function of
// the per-channel traffic sequence, so a fixed fault seed yields
// bit-identical behaviour across shard and job counts. While a profile is
// active the FIFO floor is lifted (reordering is the point); corrupted
// frames that fail to decode at the receiver are counted and dropped
// instead of crashing the event loop (the reliable transport layered in
// transport.hpp recovers via retransmission).
//
// Sharded fabrics: when enable_sharding() is armed, a send whose
// endpoints live on different execution shards is the *only* cross-shard
// edge in the whole system — it goes through the sharded kernel's
// timestamped mailboxes (keyed by directed channel + per-channel
// sequence number, so the merge order at the window barrier is canonical)
// instead of being scheduled into a foreign event heap. Same-shard sends
// are scheduled into the source node's shard exactly as before. All
// counters are relaxed atomics: send-side fields are written by the
// source node's shard, delivery-side fields by the destination's, and
// their final sums are deterministic even though increments race across
// shards.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "des/sharded.hpp"
#include "des/simulator.hpp"
#include "netmsg/codec.hpp"
#include "netmsg/fault.hpp"
#include "netmsg/message.hpp"
#include "qbase/ids.hpp"
#include "qbase/rng.hpp"

namespace qnetp::netmsg {

/// Plain snapshot of one directed channel's counters (stats()).
struct ChannelStats {
  std::uint64_t sent = 0;        ///< send() calls (all outcomes)
  std::uint64_t duplicated = 0;  ///< extra fault-injected copies
  std::uint64_t delivered = 0;
  std::uint64_t dropped_down = 0;        ///< link administratively down
  std::uint64_t dropped_fault = 0;       ///< fault-injected loss
  std::uint64_t dropped_no_handler = 0;  ///< receiver gone at delivery
  std::uint64_t decode_errors = 0;       ///< frame failed to decode
  std::uint64_t corrupted = 0;           ///< byte mutations injected
  std::uint64_t reordered = 0;           ///< hold-back delays injected
  std::uint64_t bytes = 0;               ///< wire bytes scheduled

  /// Copies put on the wire (dropped-at-send never transmit).
  std::uint64_t transmissions() const {
    return sent - dropped_down - dropped_fault + duplicated;
  }
  std::uint64_t dropped() const {
    return dropped_down + dropped_fault + dropped_no_handler + decode_errors;
  }
  /// Transmissions scheduled but not yet resolved at the snapshot
  /// instant. Conservation: sent + duplicated ==
  /// delivered + dropped() + in_flight().
  std::uint64_t in_flight() const {
    return transmissions() - delivered - dropped_no_handler - decode_errors;
  }

  ChannelStats& operator+=(const ChannelStats& o);
};

/// Fabric-wide snapshot: aggregate plus per-directed-channel counters
/// (ordered by (from, to) for deterministic iteration).
struct NetworkStats {
  ChannelStats total;
  std::map<std::pair<NodeId, NodeId>, ChannelStats> channels;
};

class ClassicalNetwork {
 public:
  using Handler = std::function<void(NodeId from, const Message&)>;

  explicit ClassicalNetwork(des::Simulator& sim) : sim_(sim) {}

  /// Create a bidirectional channel with the given one-way propagation
  /// delay (typically the fibre delay of the parallel quantum link).
  /// Reconnecting an existing pair updates the delay but keeps the FIFO
  /// floor, so later sends can never overtake messages already in flight.
  void connect(NodeId a, NodeId b, Duration propagation);

  bool connected(NodeId a, NodeId b) const;

  /// Install the receive handler for a node (one per node).
  void set_handler(NodeId node, Handler handler);

  /// Remove a node's handler (teardown). Messages already in flight to
  /// the node are counted as dropped on arrival instead of asserting —
  /// a node may leave while packets are on the wire.
  void clear_handler(NodeId node);

  /// Artificial extra delay applied to every message on every channel
  /// (the Fig. 10c sweep variable).
  void set_extra_delay(Duration d) { extra_delay_ = d; }

  /// Administratively disable/enable a channel; messages sent while down
  /// are dropped (transport liveness will notice).
  void set_link_up(NodeId a, NodeId b, bool up);

  /// Arm fault injection on every channel (existing and future). Call
  /// before the fabric runs; per-channel fault streams are forked lazily
  /// from profile.seed at the first faulty send, so the injected pattern
  /// depends only on (seed, channel, per-channel send index).
  void set_fault_profile(const FaultProfile& profile);

  /// Route cross-shard deliveries through `sharded`'s mailboxes.
  /// `shard_of` must be a pure function of the node id, stable for the
  /// lifetime of the run. Idempotent — the network assembly re-arms it
  /// after every connect(). Once armed, send() reads the clock of the
  /// *source* node's shard, so it may only be called from that shard's
  /// executing event or from the driver thread between windows.
  void enable_sharding(des::ShardedSimulator& sharded,
                       std::function<std::size_t(NodeId)> shard_of);

  /// Smallest propagation delay over channels whose endpoints live on
  /// different shards — the conservative lookahead bound. nullopt when
  /// sharding is not armed or no channel crosses shards.
  std::optional<Duration> min_cross_shard_propagation() const;

  /// Send a message; asserts the channel exists. The message is encoded
  /// to bytes and decoded at the receiver (full codec round trip).
  void send(NodeId from, NodeId to, const Message& msg);

  /// Counter snapshot. Call from the driver thread between windows (or
  /// any quiescent point): per-field reads are relaxed atomics.
  NetworkStats stats() const;

 private:
  struct DirectedChannel {
    Duration propagation;
    bool up = true;
    TimePoint last_delivery;  ///< FIFO floor (inactive under faults)
    /// Per-directed-channel send counter: the stable low word of the
    /// cross-shard mailbox merge key. Only the source node's shard
    /// thread touches it (sends on (from, to) originate at `from`).
    std::uint64_t next_seq = 1;
    /// Fault stream, forked lazily from the profile seed; touched only
    /// by the source node's shard, like next_seq.
    std::optional<Rng> fault_rng;
    /// Counters. Send-side fields are written only by the source shard
    /// and delivery-side fields only by the destination shard, but a
    /// snapshot may race a running fabric, so all are relaxed atomics.
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> dropped_down{0};
    std::atomic<std::uint64_t> dropped_fault{0};
    std::atomic<std::uint64_t> dropped_no_handler{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> corrupted{0};
    std::atomic<std::uint64_t> reordered{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  struct KeyHash {
    std::size_t operator()(const std::pair<NodeId, NodeId>& k) const {
      return std::hash<std::uint64_t>{}(k.first.value() * 1000003u +
                                        k.second.value());
    }
  };

  DirectedChannel* channel(NodeId from, NodeId to);

  des::Simulator& sim_;
  /// Channels are heap-allocated so delivery closures can hold stable
  /// pointers across rehashes; channels are never removed.
  std::unordered_map<std::pair<NodeId, NodeId>,
                     std::unique_ptr<DirectedChannel>, KeyHash>
      channels_;
  std::unordered_map<NodeId, Handler> handlers_;
  Duration extra_delay_ = Duration::zero();
  FaultProfile faults_;
  des::ShardedSimulator* sharded_ = nullptr;
  std::function<std::size_t(NodeId)> shard_of_;
};

}  // namespace qnetp::netmsg
