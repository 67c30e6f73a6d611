#include "netmsg/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace qnetp::netmsg {
namespace {

using namespace qnetp::literals;

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : net_(sim_) {
    net_.connect(NodeId{1}, NodeId{2}, 10_us);
    net_.set_handler(NodeId{1}, [this](NodeId from, const Message& m) {
      received_at_1_.emplace_back(from, m, sim_.now());
    });
    net_.set_handler(NodeId{2}, [this](NodeId from, const Message& m) {
      received_at_2_.emplace_back(from, m, sim_.now());
    });
  }

  static Message expire(std::uint64_t seq) {
    ExpireMsg m;
    m.circuit_id = CircuitId{1};
    m.origin_correlator = PairCorrelator{LinkId{1}, seq};
    return m;
  }
  static std::uint64_t seq_of(const Message& m) {
    return std::get<ExpireMsg>(m).origin_correlator.sequence;
  }

  des::Simulator sim_;
  ClassicalNetwork net_;
  std::vector<std::tuple<NodeId, Message, TimePoint>> received_at_1_;
  std::vector<std::tuple<NodeId, Message, TimePoint>> received_at_2_;
};

TEST_F(ChannelTest, DeliversWithPropagationDelay) {
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 1u);
  const auto& [from, msg, at] = received_at_2_[0];
  EXPECT_EQ(from, NodeId{1});
  EXPECT_EQ(seq_of(msg), 1u);
  EXPECT_EQ(at, TimePoint::origin() + 10_us);
}

TEST_F(ChannelTest, BidirectionalChannel) {
  net_.send(NodeId{2}, NodeId{1}, expire(5));
  sim_.run();
  ASSERT_EQ(received_at_1_.size(), 1u);
  EXPECT_EQ(std::get<0>(received_at_1_[0]), NodeId{2});
}

TEST_F(ChannelTest, FifoOrderPreserved) {
  for (std::uint64_t i = 0; i < 10; ++i)
    net_.send(NodeId{1}, NodeId{2}, expire(i));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(seq_of(std::get<1>(received_at_2_[i])), i);
}

TEST_F(ChannelTest, FifoPreservedWhenDelayShrinksMidFlight) {
  // First message sent with a large extra delay; second with none. The
  // second must NOT overtake the first.
  net_.set_extra_delay(1_ms);
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  net_.set_extra_delay(Duration::zero());
  net_.send(NodeId{1}, NodeId{2}, expire(2));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 2u);
  EXPECT_EQ(seq_of(std::get<1>(received_at_2_[0])), 1u);
  EXPECT_EQ(seq_of(std::get<1>(received_at_2_[1])), 2u);
  // Second message delivered no earlier than the first.
  EXPECT_GE(std::get<2>(received_at_2_[1]), std::get<2>(received_at_2_[0]));
}

TEST_F(ChannelTest, ExtraDelayAddsToPropagation) {
  net_.set_extra_delay(100_us);
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 1u);
  EXPECT_EQ(std::get<2>(received_at_2_[0]),
            TimePoint::origin() + 10_us + 100_us);
}

TEST_F(ChannelTest, DownLinkDropsMessages) {
  net_.set_link_up(NodeId{1}, NodeId{2}, false);
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  sim_.run();
  EXPECT_TRUE(received_at_2_.empty());
  EXPECT_EQ(net_.stats().total.dropped(), 1u);
  net_.set_link_up(NodeId{1}, NodeId{2}, true);
  net_.send(NodeId{1}, NodeId{2}, expire(2));
  sim_.run();
  EXPECT_EQ(received_at_2_.size(), 1u);
}

TEST_F(ChannelTest, UnknownChannelAsserts) {
  EXPECT_THROW(net_.send(NodeId{1}, NodeId{99}, expire(1)), AssertionError);
}

TEST_F(ChannelTest, StatsCountBytesAndMessages) {
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  net_.send(NodeId{2}, NodeId{1}, expire(2));
  sim_.run();
  EXPECT_EQ(net_.stats().total.delivered, 2u);
  EXPECT_GT(net_.stats().total.bytes, 0u);
}

TEST_F(ChannelTest, HandlerRemovedMidFlightCountsDrop) {
  // A node tearing down while messages are on the wire is a race, not a
  // programming error: the in-flight message is dropped on arrival.
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  net_.clear_handler(NodeId{2});
  sim_.run();
  EXPECT_TRUE(received_at_2_.empty());
  EXPECT_EQ(net_.stats().total.dropped(), 1u);
  EXPECT_EQ(net_.stats().total.delivered, 0u);
  // Reinstalling a handler resumes delivery.
  net_.set_handler(NodeId{2}, [this](NodeId from, const Message& m) {
    received_at_2_.emplace_back(from, m, sim_.now());
  });
  net_.send(NodeId{1}, NodeId{2}, expire(2));
  sim_.run();
  EXPECT_EQ(received_at_2_.size(), 1u);
}

TEST_F(ChannelTest, ReconnectPreservesFifoFloor) {
  // First message in flight with 1 ms extra delay; then the link is
  // re-connected with a shorter propagation and another message sent.
  // The second must not overtake the first.
  net_.set_extra_delay(1_ms);
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  net_.set_extra_delay(Duration::zero());
  net_.connect(NodeId{1}, NodeId{2}, 1_us);  // re-connect, faster link
  net_.send(NodeId{1}, NodeId{2}, expire(2));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 2u);
  EXPECT_EQ(seq_of(std::get<1>(received_at_2_[0])), 1u);
  EXPECT_EQ(seq_of(std::get<1>(received_at_2_[1])), 2u);
  EXPECT_GE(std::get<2>(received_at_2_[1]), std::get<2>(received_at_2_[0]));
}

TEST_F(ChannelTest, ReconnectUpdatesPropagationAndRevivesLink) {
  net_.set_link_up(NodeId{1}, NodeId{2}, false);
  net_.connect(NodeId{1}, NodeId{2}, 20_us);  // re-connect brings it up
  net_.send(NodeId{1}, NodeId{2}, expire(1));
  sim_.run();
  ASSERT_EQ(received_at_2_.size(), 1u);
  EXPECT_EQ(std::get<2>(received_at_2_[0]), TimePoint::origin() + 20_us);
}

TEST_F(ChannelTest, ConnectivityQuery) {
  EXPECT_TRUE(net_.connected(NodeId{1}, NodeId{2}));
  EXPECT_TRUE(net_.connected(NodeId{2}, NodeId{1}));
  EXPECT_FALSE(net_.connected(NodeId{1}, NodeId{3}));
}

}  // namespace
}  // namespace qnetp::netmsg
