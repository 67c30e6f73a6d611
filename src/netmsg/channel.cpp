#include "netmsg/channel.hpp"

#include <utility>

#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::netmsg {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::uint64_t channel_key(NodeId from, NodeId to) {
  return (from.value() << 32) | (to.value() & 0xffffffffu);
}

}  // namespace

ChannelStats& ChannelStats::operator+=(const ChannelStats& o) {
  sent += o.sent;
  duplicated += o.duplicated;
  delivered += o.delivered;
  dropped_down += o.dropped_down;
  dropped_fault += o.dropped_fault;
  dropped_no_handler += o.dropped_no_handler;
  decode_errors += o.decode_errors;
  corrupted += o.corrupted;
  reordered += o.reordered;
  bytes += o.bytes;
  return *this;
}

void ClassicalNetwork::connect(NodeId a, NodeId b, Duration propagation) {
  QNETP_ASSERT(a.valid() && b.valid() && a != b);
  QNETP_ASSERT(!propagation.is_negative());
  for (const auto& key : {std::pair{a, b}, std::pair{b, a}}) {
    auto it = channels_.find(key);
    if (it == channels_.end()) {
      auto ch = std::make_unique<DirectedChannel>();
      ch->propagation = propagation;
      ch->last_delivery = sim_.now();
      channels_.emplace(key, std::move(ch));
    } else {
      // Re-connect: refresh the delay and bring the link up, but keep the
      // FIFO floor — resetting last_delivery would let sends issued after
      // the reconnect overtake messages still in flight.
      it->second->propagation = propagation;
      it->second->up = true;
    }
  }
}

bool ClassicalNetwork::connected(NodeId a, NodeId b) const {
  return channels_.count({a, b}) > 0;
}

void ClassicalNetwork::set_handler(NodeId node, Handler handler) {
  QNETP_ASSERT(handler != nullptr);
  handlers_[node] = std::move(handler);
}

void ClassicalNetwork::clear_handler(NodeId node) { handlers_.erase(node); }

void ClassicalNetwork::set_link_up(NodeId a, NodeId b, bool up) {
  auto* ab = channel(a, b);
  auto* ba = channel(b, a);
  QNETP_ASSERT_MSG(ab != nullptr && ba != nullptr, "no such channel");
  ab->up = up;
  ba->up = up;
}

void ClassicalNetwork::set_fault_profile(const FaultProfile& profile) {
  QNETP_ASSERT(profile.drop >= 0.0 && profile.drop <= 1.0);
  QNETP_ASSERT(profile.duplicate >= 0.0 && profile.duplicate <= 1.0);
  QNETP_ASSERT(profile.reorder >= 0.0 && profile.reorder <= 1.0);
  QNETP_ASSERT(profile.corrupt >= 0.0 && profile.corrupt <= 1.0);
  QNETP_ASSERT(!profile.reorder_window.is_negative());
  QNETP_ASSERT(!profile.jitter.is_negative());
  faults_ = profile;
}

void ClassicalNetwork::enable_sharding(
    des::ShardedSimulator& sharded,
    std::function<std::size_t(NodeId)> shard_of) {
  QNETP_ASSERT(shard_of != nullptr);
  sharded_ = &sharded;
  shard_of_ = std::move(shard_of);
}

std::optional<Duration> ClassicalNetwork::min_cross_shard_propagation()
    const {
  if (shard_of_ == nullptr) return std::nullopt;
  std::optional<Duration> best;
  // qnetp-lint: unordered-ok(exact min reduction, order-independent)
  for (const auto& [key, ch] : channels_) {
    if (shard_of_(key.first) == shard_of_(key.second)) continue;
    if (!best.has_value() || ch->propagation < *best) best = ch->propagation;
  }
  return best;
}

ClassicalNetwork::DirectedChannel* ClassicalNetwork::channel(NodeId from,
                                                             NodeId to) {
  const auto it = channels_.find({from, to});
  return it == channels_.end() ? nullptr : it->second.get();
}

void ClassicalNetwork::send(NodeId from, NodeId to, const Message& msg) {
  auto* ch = channel(from, to);
  QNETP_ASSERT_MSG(ch != nullptr, "no classical channel between nodes");
  const bool sharded = sharded_ != nullptr;
  const std::size_t src_shard = sharded ? shard_of_(from) : 0;
  const std::size_t dst_shard = sharded ? shard_of_(to) : 0;
  // Timing is read off the *source* node's shard: sends originate either
  // from an event executing on that shard or from the driver thread
  // between windows, so this clock is always the sender's "now".
  des::Simulator& src_sim = sharded ? sharded_->shard(src_shard) : sim_;
  ch->sent.fetch_add(1, kRelaxed);
  if (!ch->up) {
    ch->dropped_down.fetch_add(1, kRelaxed);
    QNETP_LOG(debug, "netmsg") << "dropped " << message_name(msg) << " "
                               << from << "->" << to << " (link down)";
    return;
  }

  // Fault decisions are drawn in a fixed order (drop, corrupt, duplicate,
  // then per-copy delays) from the channel's own stream, so the injected
  // pattern is a pure function of (fault seed, channel, send index).
  Rng* frng = nullptr;
  if (faults_.active()) {
    if (!ch->fault_rng.has_value()) {
      ch->fault_rng.emplace(
          derive_stream_seed(faults_.seed, channel_key(from, to)));
    }
    frng = &*ch->fault_rng;
  }
  if (frng != nullptr && faults_.drop > 0.0 && frng->bernoulli(faults_.drop)) {
    ch->dropped_fault.fetch_add(1, kRelaxed);
    QNETP_LOG(debug, "netmsg") << "dropped " << message_name(msg) << " "
                               << from << "->" << to << " (fault)";
    return;
  }

  Bytes wire = encode(msg);
  if (frng != nullptr && faults_.corrupt > 0.0 &&
      frng->bernoulli(faults_.corrupt)) {
    wire[frng->uniform_int(wire.size())] ^=
        static_cast<std::uint8_t>(1 + frng->uniform_int(255));
    ch->corrupted.fetch_add(1, kRelaxed);
  }
  const bool duplicate = frng != nullptr && faults_.duplicate > 0.0 &&
                         frng->bernoulli(faults_.duplicate);

  // Extra latency per copy: jitter plus an occasional hold-back long
  // enough for later sends to overtake.
  const auto fault_delay = [this, ch, frng] {
    Duration extra = Duration::zero();
    if (frng == nullptr) return extra;
    if (faults_.jitter > Duration::zero()) {
      extra = extra + Duration::ps(static_cast<std::int64_t>(
                  frng->uniform_int(faults_.jitter.count_ps())));
    }
    if (faults_.reorder > 0.0 && frng->bernoulli(faults_.reorder) &&
        faults_.reorder_window > Duration::zero()) {
      extra = extra + Duration::ps(static_cast<std::int64_t>(
                  frng->uniform_int(faults_.reorder_window.count_ps())));
      ch->reordered.fetch_add(1, kRelaxed);
    }
    return extra;
  };

  const TimePoint base = src_sim.now() + ch->propagation + extra_delay_;

  const auto transmit = [&](TimePoint deliver_at) {
    ch->bytes.fetch_add(wire.size(), kRelaxed);
    auto deliver = [this, ch, from, to, wire] {
      const auto it = handlers_.find(to);
      if (it == handlers_.end()) {
        // The receiver tore down while the message was in flight: a drop,
        // not a programming error (transport liveness handles the rest).
        ch->dropped_no_handler.fetch_add(1, kRelaxed);
        QNETP_LOG(debug, "netmsg") << "dropped message " << from << "->"
                                   << to << " (receiver gone)";
        return;
      }
      Message decoded;
      try {
        decoded = decode(wire);
      } catch (const CodecError& e) {
        // Mutated frame: count and drop instead of letting the exception
        // unwind the event loop. The reliable transport's retransmission
        // (or the application's own liveness) recovers.
        ch->decode_errors.fetch_add(1, kRelaxed);
        QNETP_LOG(debug, "netmsg") << "dropped undecodable frame " << from
                                   << "->" << to << " (" << e.what() << ")";
        return;
      }
      ch->delivered.fetch_add(1, kRelaxed);
      it->second(from, decoded);
    };
    if (sharded && dst_shard != src_shard) {
      // The only cross-shard edge in the system. The merge key (directed
      // channel, per-channel sequence) makes the barrier injection order
      // a pure function of the traffic.
      sharded_->post(src_shard, dst_shard, deliver_at, channel_key(from, to),
                     ch->next_seq++, std::move(deliver));
    } else {
      src_sim.schedule_at(deliver_at, std::move(deliver));
    }
  };

  if (frng == nullptr) {
    // Reliable fabric: delivery floored at the previous delivery instant
    // to preserve FIFO order even if the delay knobs changed between
    // sends. (Under an active fault profile the floor is lifted —
    // reordering is the point — and the transport restores order.)
    TimePoint deliver_at = base;
    if (deliver_at < ch->last_delivery) deliver_at = ch->last_delivery;
    ch->last_delivery = deliver_at;
    transmit(deliver_at);
    return;
  }
  transmit(base + fault_delay());
  if (duplicate) {
    ch->duplicated.fetch_add(1, kRelaxed);
    transmit(base + fault_delay());
  }
}

NetworkStats ClassicalNetwork::stats() const {
  NetworkStats out;
  // qnetp-lint: unordered-ok(integer sums + insertion into an ordered map)
  for (const auto& [key, ch] : channels_) {
    ChannelStats s;
    s.sent = ch->sent.load(kRelaxed);
    s.duplicated = ch->duplicated.load(kRelaxed);
    s.delivered = ch->delivered.load(kRelaxed);
    s.dropped_down = ch->dropped_down.load(kRelaxed);
    s.dropped_fault = ch->dropped_fault.load(kRelaxed);
    s.dropped_no_handler = ch->dropped_no_handler.load(kRelaxed);
    s.decode_errors = ch->decode_errors.load(kRelaxed);
    s.corrupted = ch->corrupted.load(kRelaxed);
    s.reordered = ch->reordered.load(kRelaxed);
    s.bytes = ch->bytes.load(kRelaxed);
    out.total += s;
    out.channels.emplace(key, s);
  }
  return out;
}

}  // namespace qnetp::netmsg
