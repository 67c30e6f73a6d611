// ReliableEndpoint battery: exactly-once in-order delivery over faulty
// channels, the retransmission backoff ladder and its DES timer
// cancellation, and the dead-peer verdict that converts a silent
// partition into an explicit adjacency loss.
#include <gtest/gtest.h>

#include <vector>

#include "netmsg/channel.hpp"
#include "netmsg/fault.hpp"
#include "netmsg/transport.hpp"

namespace qnetp::netmsg {
namespace {

using namespace qnetp::literals;

Message expire(std::uint64_t seq) {
  ExpireMsg m;
  m.circuit_id = CircuitId{1};
  m.origin_correlator = PairCorrelator{LinkId{1}, seq};
  return m;
}

std::uint64_t seq_of(const Message& m) {
  return std::get<ExpireMsg>(m).origin_correlator.sequence;
}

/// Two nodes, two endpoints, one channel; faults optional.
class ReliableTest : public ::testing::Test {
 protected:
  void build(const FaultProfile& faults, ReliableConfig config = [] {
    ReliableConfig c;
    c.enabled = true;
    return c;
  }()) {
    net_ = std::make_unique<ClassicalNetwork>(sim_);
    if (faults.active()) net_->set_fault_profile(faults);
    net_->connect(NodeId{1}, NodeId{2}, 10_us);
    a_ = std::make_unique<ReliableEndpoint>(sim_, *net_, NodeId{1}, config);
    b_ = std::make_unique<ReliableEndpoint>(sim_, *net_, NodeId{2}, config);
    net_->set_handler(NodeId{1}, [this](NodeId from, const Message& m) {
      a_->on_message(from, m);
    });
    net_->set_handler(NodeId{2}, [this](NodeId from, const Message& m) {
      b_->on_message(from, m);
    });
    a_->set_deliver([this](NodeId, const Message& m) {
      at_a_.push_back(seq_of(m));
    });
    b_->set_deliver([this](NodeId, const Message& m) {
      at_b_.push_back(seq_of(m));
    });
  }

  des::Simulator sim_;
  std::unique_ptr<ClassicalNetwork> net_;
  std::unique_ptr<ReliableEndpoint> a_, b_;
  std::vector<std::uint64_t> at_a_, at_b_;
};

std::vector<std::uint64_t> iota(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = i + 1;
  return v;
}

TEST_F(ReliableTest, CleanChannelDeliversInOrder) {
  build(FaultProfile{});
  for (std::uint64_t i = 1; i <= 20; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  EXPECT_EQ(at_b_, iota(20));
  EXPECT_EQ(a_->stats().retransmits, 0u);
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
  EXPECT_FALSE(a_->retransmit_armed(NodeId{2}));
}

TEST_F(ReliableTest, ExactlyOnceInOrderUnderDropDupReorder) {
  FaultProfile p;
  p.drop = 0.15;
  p.duplicate = 0.15;
  p.reorder = 0.3;
  p.corrupt = 0.05;
  p.jitter = 100_us;
  ReliableConfig config;
  config.enabled = true;
  config.max_retries = 40;  // loss is heavy; a dead verdict is not the point
  build(p, config);
  for (std::uint64_t i = 1; i <= 100; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  // Every payload exactly once, original order restored, losses repaired
  // by retransmission.
  EXPECT_EQ(at_b_, iota(100));
  EXPECT_GT(a_->stats().retransmits, 0u);
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
}

TEST_F(ReliableTest, BidirectionalConversationsAreIndependent) {
  FaultProfile p;
  p.drop = 0.1;
  p.reorder = 0.2;
  build(p);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    a_->send(NodeId{2}, expire(i));
    b_->send(NodeId{1}, expire(100 + i));
  }
  sim_.run();
  EXPECT_EQ(at_b_, iota(50));
  std::vector<std::uint64_t> expect_a(50);
  for (std::uint64_t i = 0; i < 50; ++i) expect_a[i] = 101 + i;
  EXPECT_EQ(at_a_, expect_a);
}

TEST_F(ReliableTest, DeadPeerVerdictAfterBackoffLadder) {
  build(FaultProfile{});
  std::vector<std::pair<NodeId, TimePoint>> verdicts;
  a_->set_on_peer_dead([this, &verdicts](NodeId peer) {
    verdicts.emplace_back(peer, sim_.now());
  });
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  const TimePoint sent_at = sim_.now();
  a_->send(NodeId{2}, expire(1));
  sim_.run();
  // Defaults: rto 10ms doubling to the 160ms cap. Firings at 10, 30, 70,
  // 150, 310, 470, 630, 790ms retransmit; the 9th at 950ms is the
  // verdict.
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].first, NodeId{2});
  EXPECT_EQ(verdicts[0].second, sent_at + 950_ms);
  EXPECT_EQ(a_->stats().retransmits, 8u);
  EXPECT_EQ(a_->stats().dead_verdicts, 1u);
  EXPECT_TRUE(a_->peer_dead(NodeId{2}));
  EXPECT_FALSE(a_->retransmit_armed(NodeId{2}));
}

TEST_F(ReliableTest, VerdictFiresOnceAndSendsAreDroppedAfterIt) {
  build(FaultProfile{});
  std::size_t fired = 0;
  a_->set_on_peer_dead([&fired](NodeId) { ++fired; });
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  for (std::uint64_t i = 1; i <= 5; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  EXPECT_EQ(fired, 1u);
  // Post-verdict sends are dropped without restarting the ladder.
  a_->send(NodeId{2}, expire(99));
  sim_.run();
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(a_->stats().dead_verdicts, 1u);
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
}

TEST_F(ReliableTest, AckProgressCancelsTimerEagerly) {
  build(FaultProfile{});
  a_->send(NodeId{2}, expire(1));
  EXPECT_TRUE(a_->retransmit_armed(NodeId{2}));
  sim_.run();
  // Fully acknowledged: the timer must be cancelled, not left to fire
  // into an empty queue.
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
  EXPECT_FALSE(a_->retransmit_armed(NodeId{2}));
  EXPECT_EQ(a_->stats().retransmits, 0u);
}

TEST_F(ReliableTest, BackoffResetsAfterAckProgress) {
  build(FaultProfile{});
  std::vector<std::pair<NodeId, TimePoint>> verdicts;
  a_->set_on_peer_dead([this, &verdicts](NodeId peer) {
    verdicts.emplace_back(peer, sim_.now());
  });
  // First exchange climbs part of the ladder, then the link heals and the
  // frame is acknowledged.
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  a_->send(NodeId{2}, expire(1));
  sim_.run_until(sim_.now() + 200_ms);  // 4 retransmits burned
  EXPECT_EQ(a_->stats().retransmits, 4u);
  net_->set_link_up(NodeId{1}, NodeId{2}, true);
  sim_.run();
  EXPECT_EQ(at_b_, iota(1));
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
  // The next silent loss gets the FULL ladder again: verdict 950ms after
  // the fresh send, not earlier.
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  const TimePoint resent_at = sim_.now();
  a_->send(NodeId{2}, expire(2));
  sim_.run();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].second, resent_at + 950_ms);
}

TEST_F(ReliableTest, ResetPeerHealsTheConversation) {
  build(FaultProfile{});
  a_->set_on_peer_dead([](NodeId) {});
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  a_->send(NodeId{2}, expire(1));
  sim_.run();
  ASSERT_TRUE(a_->peer_dead(NodeId{2}));
  net_->set_link_up(NodeId{1}, NodeId{2}, true);
  // Both survivors must forget the conversation: the receiver's window
  // would otherwise discard the restarted sequence numbers.
  a_->reset_peer(NodeId{2});
  b_->reset_peer(NodeId{1});
  at_b_.clear();
  for (std::uint64_t i = 1; i <= 10; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  EXPECT_EQ(at_b_, iota(10));
  EXPECT_FALSE(a_->peer_dead(NodeId{2}));
}

TEST_F(ReliableTest, UnframedTrafficPassesThrough) {
  build(FaultProfile{});
  // A legacy direct send (no transport framing) still reaches the
  // deliver upcall beside the reliable conversation.
  net_->send(NodeId{1}, NodeId{2}, expire(7));
  sim_.run();
  EXPECT_EQ(at_b_, std::vector<std::uint64_t>{7});
  EXPECT_EQ(b_->stats().delivered, 0u);  // not a framed delivery
}

TEST_F(ReliableTest, CorruptFramesAreDroppedByChecksumAndRecovered) {
  FaultProfile p;
  p.corrupt = 0.25;
  ReliableConfig config;
  config.enabled = true;
  // High corruption starves the ladder both ways (frames AND their acks);
  // give it enough retries that a dead verdict is unreachable here.
  config.max_retries = 40;
  build(p, config);
  for (std::uint64_t i = 1; i <= 50; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  // The wire checksum turns every surviving mutation into a channel-level
  // decode error; retransmission repairs all of them.
  EXPECT_EQ(at_b_, iota(50));
  EXPECT_GT(net_->stats().total.decode_errors, 0u);
  EXPECT_EQ(b_->stats().payload_decode_errors, 0u);
}

TEST_F(ReliableTest, LossyButLiveChannelNeverReachesTheVerdict) {
  // Liveness is judged on acknowledgements: a lossy channel whose frames
  // still get through is repaired by retransmission, and the default
  // ladder never mistakes it for a dead peer.
  FaultProfile p;
  p.drop = 0.1;
  build(p);
  std::size_t verdicts = 0;
  a_->set_on_peer_dead([&verdicts](NodeId) { ++verdicts; });
  b_->set_on_peer_dead([&verdicts](NodeId) { ++verdicts; });
  // Steady traffic both ways, one payload each per 20 ms for 2 s.
  for (std::uint64_t i = 1; i <= 100; ++i) {
    sim_.schedule(Duration::ms(20.0 * static_cast<double>(i)), [this, i] {
      a_->send(NodeId{2}, expire(i));
      b_->send(NodeId{1}, expire(1000 + i));
    });
  }
  sim_.run();
  EXPECT_EQ(verdicts, 0u);
  EXPECT_GT(a_->stats().retransmits + b_->stats().retransmits, 0u);
  EXPECT_EQ(at_b_, iota(100));
  ASSERT_EQ(at_a_.size(), 100u);
  EXPECT_EQ(at_a_.front(), 1001u);
  EXPECT_EQ(at_a_.back(), 1100u);
  EXPECT_FALSE(a_->peer_dead(NodeId{2}));
  EXPECT_FALSE(b_->peer_dead(NodeId{1}));
}

TEST_F(ReliableTest, OnlyASenderWithFramesInFlightJudgesTheAdjacency) {
  build(FaultProfile{});
  std::vector<std::pair<NodeId, NodeId>> verdicts;  // (judge, peer)
  a_->set_on_peer_dead([&verdicts](NodeId peer) {
    verdicts.emplace_back(NodeId{1}, peer);
  });
  b_->set_on_peer_dead([&verdicts](NodeId peer) {
    verdicts.emplace_back(NodeId{2}, peer);
  });
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  // An idle adjacency has nothing outstanding: no timer, no verdict.
  sim_.run_until(sim_.now() + 5_s);
  EXPECT_TRUE(verdicts.empty());
  EXPECT_FALSE(a_->retransmit_armed(NodeId{2}));
  // Once node 1 has a frame to deliver it finds out; node 2, which sends
  // nothing, never does.
  a_->send(NodeId{2}, expire(1));
  sim_.run();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].first, NodeId{1});
  EXPECT_EQ(verdicts[0].second, NodeId{2});
  EXPECT_FALSE(b_->peer_dead(NodeId{1}));
}

TEST_F(ReliableTest, SendsAfterTheVerdictPutNothingOnTheWire) {
  build(FaultProfile{});
  a_->set_on_peer_dead([](NodeId) {});
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  a_->send(NodeId{2}, expire(1));
  sim_.run();
  ASSERT_TRUE(a_->peer_dead(NodeId{2}));
  // The first transmission and eight retransmissions, all refused by the
  // down channel.
  EXPECT_EQ(net_->stats().total.sent, 9u);
  EXPECT_EQ(net_->stats().total.dropped_down, 9u);
  // Even over a channel that is back up, the verdict stands until
  // reset_peer: nothing more is sent.
  net_->set_link_up(NodeId{1}, NodeId{2}, true);
  for (std::uint64_t i = 2; i <= 5; ++i) a_->send(NodeId{2}, expire(i));
  sim_.run();
  EXPECT_EQ(net_->stats().total.sent, 9u);
  EXPECT_EQ(a_->stats().data_sent, 1u);
  EXPECT_FALSE(a_->retransmit_armed(NodeId{2}));
  EXPECT_TRUE(at_b_.empty());
}

TEST_F(ReliableTest, RetransmissionsClimbTheBackoffLadderToItsCap) {
  build(FaultProfile{});
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  const TimePoint sent_at = sim_.now();
  a_->send(NodeId{2}, expire(1));
  // The timeout doubles from 10 ms (firings at 10, 30, 70 and 150 ms) and
  // then stays at the 160 ms cap (310, 470 ms). Each firing puts one more
  // copy of the oldest frame on the wire.
  const std::vector<std::pair<Duration, std::uint64_t>> ladder = {
      {9_ms, 0},   {10_ms, 1},  {29_ms, 1},  {30_ms, 2},
      {69_ms, 2},  {70_ms, 3},  {149_ms, 3}, {150_ms, 4},
      {309_ms, 4}, {310_ms, 5}, {469_ms, 5}, {470_ms, 6}};
  for (const auto& [offset, retransmits] : ladder) {
    sim_.run_until(sent_at + offset);
    EXPECT_EQ(a_->stats().retransmits, retransmits) << "at " << offset;
    EXPECT_EQ(net_->stats().total.sent, 1 + retransmits) << "at " << offset;
  }
}

TEST_F(ReliableTest, MaxRetriesSetsTheVerdictTime) {
  ReliableConfig config;
  config.enabled = true;
  config.max_retries = 3;
  build(FaultProfile{}, config);
  std::vector<TimePoint> verdicts;
  a_->set_on_peer_dead([this, &verdicts](NodeId) {
    verdicts.push_back(sim_.now());
  });
  net_->set_link_up(NodeId{1}, NodeId{2}, false);
  const TimePoint sent_at = sim_.now();
  a_->send(NodeId{2}, expire(1));
  sim_.run();
  // Retransmissions at 10, 30 and 70 ms; the fourth firing, at 150 ms,
  // finds the retries spent and delivers the verdict.
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], sent_at + 150_ms);
  EXPECT_EQ(a_->stats().retransmits, 3u);
}

TEST_F(ReliableTest, VerdictIsPerAdjacency) {
  build(FaultProfile{});
  // A third node behind a partitioned channel beside the healthy 1-2 one.
  net_->connect(NodeId{1}, NodeId{3}, 10_us);
  ReliableConfig config;
  config.enabled = true;
  ReliableEndpoint c(sim_, *net_, NodeId{3}, config);
  std::vector<std::uint64_t> at_c;
  c.set_deliver([&at_c](NodeId, const Message& m) {
    at_c.push_back(seq_of(m));
  });
  net_->set_handler(NodeId{3}, [&c](NodeId from, const Message& m) {
    c.on_message(from, m);
  });
  std::vector<NodeId> dead;
  a_->set_on_peer_dead([&dead](NodeId peer) { dead.push_back(peer); });
  net_->set_link_up(NodeId{1}, NodeId{3}, false);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    a_->send(NodeId{2}, expire(i));
    a_->send(NodeId{3}, expire(i));
  }
  sim_.run();
  EXPECT_EQ(dead, std::vector<NodeId>{NodeId{3}});
  EXPECT_TRUE(a_->peer_dead(NodeId{3}));
  EXPECT_FALSE(a_->peer_dead(NodeId{2}));
  EXPECT_TRUE(at_c.empty());
  EXPECT_EQ(at_b_, iota(10));
  // The surviving conversation carries on after the other one's verdict.
  a_->send(NodeId{2}, expire(11));
  sim_.run();
  EXPECT_EQ(at_b_, iota(11));
  EXPECT_EQ(a_->unacked(NodeId{2}), 0u);
}

TEST_F(ReliableTest, ZeroRetriesOrReorderWindowIsRejected) {
  build(FaultProfile{});
  ReliableConfig no_retries;
  no_retries.enabled = true;
  no_retries.max_retries = 0;
  EXPECT_THROW(ReliableEndpoint(sim_, *net_, NodeId{3}, no_retries),
               AssertionError);
  ReliableConfig no_window;
  no_window.enabled = true;
  no_window.reorder_window = 0;
  EXPECT_THROW(ReliableEndpoint(sim_, *net_, NodeId{3}, no_window),
               AssertionError);
}

}  // namespace
}  // namespace qnetp::netmsg
