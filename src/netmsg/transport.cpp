#include "netmsg/transport.hpp"

#include "qbase/assert.hpp"
#include "qbase/log.hpp"

namespace qnetp::netmsg {

namespace {

/// First retransmission timeout (must exceed the channel round trip).
constexpr Duration kInitialRto = Duration::ms(10);
/// Backoff cap: the timeout doubles per retry but never beyond this.
constexpr Duration kRtoCap = Duration::ms(160);

}  // namespace

ReliableEndpoint::ReliableEndpoint(des::Simulator& sim, ClassicalNetwork& net,
                                   NodeId local, ReliableConfig config)
    : sim_(sim), net_(net), local_(local), config_(config) {
  QNETP_ASSERT(local.valid());
  QNETP_ASSERT(config_.max_retries > 0);
  QNETP_ASSERT(config_.reorder_window > 0);
}

ReliableEndpoint::Peer& ReliableEndpoint::peer_state(NodeId peer) {
  const auto it = peers_.find(peer);
  if (it != peers_.end()) return it->second;
  Peer& p = peers_[peer];
  p.rto = kInitialRto;
  return p;
}

void ReliableEndpoint::transmit(NodeId to, Peer& p, std::uint64_t seq,
                                const Bytes& payload) {
  FrameMsg frame;
  frame.seq = seq;
  frame.ack = p.next_expected - 1;
  frame.payload = payload;
  net_.send(local_, to, frame);
}

void ReliableEndpoint::send_ack(NodeId to, Peer& p) {
  ++stats_.acks_sent;
  transmit(to, p, 0, Bytes{});
}

void ReliableEndpoint::send(NodeId to, const Message& msg) {
  Peer& p = peer_state(to);
  if (p.dead) return;  // verdict stands until reset_peer
  const std::uint64_t seq = p.next_seq++;
  p.unacked.emplace_back(seq, encode(msg));
  ++stats_.data_sent;
  transmit(to, p, seq, p.unacked.back().second);
  if (!p.retransmit.active()) arm_retransmit(to);
}

void ReliableEndpoint::arm_retransmit(NodeId to) {
  Peer& p = peer_state(to);
  p.retransmit = des::ScopedTimer(sim_, p.rto,
                                  [this, to] { on_retransmit_timer(to); });
}

void ReliableEndpoint::on_retransmit_timer(NodeId to) {
  Peer& p = peer_state(to);
  if (p.unacked.empty() || p.dead) return;
  if (p.retries >= config_.max_retries) {
    // Dead-peer verdict: the oldest frame went unanswered through the
    // whole backoff ladder. Drop the conversation state; the network
    // layer treats this like an adjacency loss.
    p.dead = true;
    p.unacked.clear();
    p.reorder.clear();
    ++stats_.dead_verdicts;
    QNETP_LOG(info, "transport")
        << "peer " << to << " declared dead at " << local_;
    if (on_peer_dead_) on_peer_dead_(to);
    return;
  }
  ++p.retries;
  ++stats_.retransmits;
  transmit(to, p, p.unacked.front().first, p.unacked.front().second);
  const Duration doubled = p.rto + p.rto;
  p.rto = doubled < kRtoCap ? doubled : kRtoCap;
  arm_retransmit(to);
}

void ReliableEndpoint::on_message(NodeId from, const Message& msg) {
  if (const auto* frame = std::get_if<FrameMsg>(&msg)) {
    handle_frame(from, *frame);
    return;
  }
  // Unframed traffic (e.g. per-circuit keepalives sent straight through
  // the channel) passes beside the reliable conversation.
  if (deliver_) deliver_(from, msg);
}

void ReliableEndpoint::handle_frame(NodeId from, const FrameMsg& frame) {
  Peer& p = peer_state(from);
  if (p.dead) return;

  // Cumulative acknowledgement: release everything at or below it. Any
  // progress restarts the backoff ladder for the new oldest frame and
  // cancels the timer eagerly once nothing is outstanding.
  bool progressed = false;
  while (!p.unacked.empty() && p.unacked.front().first <= frame.ack) {
    p.unacked.pop_front();
    progressed = true;
  }
  if (progressed) {
    p.retries = 0;
    p.rto = kInitialRto;
    p.retransmit.cancel();
    if (!p.unacked.empty()) arm_retransmit(from);
  }
  if (frame.seq == 0) return;  // pure ACK

  if (frame.seq < p.next_expected) {
    // Duplicate of something already delivered (retransmission or
    // channel-injected copy): filter, but re-acknowledge so the sender's
    // retransmission stops.
    ++stats_.duplicates_filtered;
    send_ack(from, p);
    return;
  }
  if (frame.seq >= p.next_expected + config_.reorder_window) {
    // Too far ahead to park; the sender will retransmit after the gap
    // closes. No ack — nothing new was accepted.
    return;
  }

  Message payload;
  try {
    payload = decode(frame.payload);
  } catch (const CodecError&) {
    // Corrupt inner payload behind an intact frame header: drop without
    // acknowledging, so the retransmission carries a clean copy.
    ++stats_.payload_decode_errors;
    return;
  }

  if (frame.seq > p.next_expected) {
    if (p.reorder.emplace(frame.seq, std::move(payload)).second) {
      ++stats_.buffered;
    } else {
      ++stats_.duplicates_filtered;
    }
    send_ack(from, p);
    return;
  }

  // In order: deliver, then drain whatever the gap was holding back.
  ++p.next_expected;
  ++stats_.delivered;
  if (deliver_) deliver_(from, payload);
  while (true) {
    const auto it = p.reorder.find(p.next_expected);
    if (it == p.reorder.end()) break;
    Message held = std::move(it->second);
    p.reorder.erase(it);
    ++p.next_expected;
    ++stats_.delivered;
    if (deliver_) deliver_(from, held);
  }
  send_ack(from, p);
}

void ReliableEndpoint::reset_peer(NodeId peer) { peers_.erase(peer); }

bool ReliableEndpoint::peer_dead(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.dead;
}

bool ReliableEndpoint::retransmit_armed(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.retransmit.active();
}

std::size_t ReliableEndpoint::unacked(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? 0 : it->second.unacked.size();
}

}  // namespace qnetp::netmsg
