#include "netmsg/transport.hpp"

#include <gtest/gtest.h>

namespace qnetp::netmsg {
namespace {

using namespace qnetp::literals;

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : net_(sim_),
        a_(sim_, net_, CircuitId{1}, NodeId{1}, NodeId{2}),
        b_(sim_, net_, CircuitId{1}, NodeId{2}, NodeId{1}) {
    net_.connect(NodeId{1}, NodeId{2}, 10_us);
    // Dispatch inbound messages to the right transport endpoint.
    net_.set_handler(NodeId{1}, [this](NodeId, const Message& m) {
      a_.on_receive(m);
    });
    net_.set_handler(NodeId{2}, [this](NodeId, const Message& m) {
      b_.on_receive(m);
    });
  }

  des::Simulator sim_;
  ClassicalNetwork net_;
  TransportConnection a_;
  TransportConnection b_;
};

TEST_F(TransportTest, DataMessagesPassThrough) {
  int got = 0;
  b_.set_on_message([&](const Message& m) {
    EXPECT_EQ(message_name(m), "EXPIRE");
    ++got;
  });
  ExpireMsg e;
  e.circuit_id = CircuitId{1};
  e.origin_correlator = PairCorrelator{LinkId{1}, 1};
  a_.send(e);
  sim_.run();
  EXPECT_EQ(got, 1);
}

TEST_F(TransportTest, KeepalivesConsumedSilently) {
  int got = 0;
  b_.set_on_message([&](const Message&) { ++got; });
  a_.send(KeepaliveMsg{CircuitId{1}});
  sim_.run();
  EXPECT_EQ(got, 0);
}

TEST_F(TransportTest, HealthyConnectionStaysUp) {
  bool a_down = false, b_down = false;
  a_.set_on_down([&] { a_down = true; });
  b_.set_on_down([&] { b_down = true; });
  a_.enable_keepalive(10_ms, 35_ms);
  b_.enable_keepalive(10_ms, 35_ms);
  sim_.run_until(TimePoint::origin() + 500_ms);
  EXPECT_FALSE(a_down);
  EXPECT_FALSE(b_down);
  EXPECT_FALSE(a_.is_down());
}

TEST_F(TransportTest, SeveredChannelTriggersOnDown) {
  bool a_down = false;
  a_.set_on_down([&] { a_down = true; });
  a_.enable_keepalive(10_ms, 35_ms);
  b_.enable_keepalive(10_ms, 35_ms);
  sim_.run_until(TimePoint::origin() + 100_ms);
  EXPECT_FALSE(a_down);
  net_.set_link_up(NodeId{1}, NodeId{2}, false);
  sim_.run_until(TimePoint::origin() + 300_ms);
  EXPECT_TRUE(a_down);
  EXPECT_TRUE(a_.is_down());
}

TEST_F(TransportTest, DownConnectionStopsSending) {
  a_.enable_keepalive(10_ms, 35_ms);
  net_.set_link_up(NodeId{1}, NodeId{2}, false);
  sim_.run_until(TimePoint::origin() + 200_ms);
  ASSERT_TRUE(a_.is_down());
  const auto dropped_before = net_.messages_dropped();
  ExpireMsg e;
  e.circuit_id = CircuitId{1};
  e.origin_correlator = PairCorrelator{LinkId{1}, 1};
  a_.send(e);  // silently ignored: connection is dead
  EXPECT_EQ(net_.messages_dropped(), dropped_before);
}

TEST_F(TransportTest, DataTrafficCountsAsLiveness) {
  // Only b_ probes; a_ never sends keepalives but b_ keeps hearing data.
  bool b_down = false;
  b_.set_on_down([&] { b_down = true; });
  b_.enable_keepalive(10_ms, 35_ms);
  // a_ sends a data message every 20 ms < 35 ms timeout.
  std::function<void()> pump = [&] {
    ExpireMsg e;
    e.circuit_id = CircuitId{1};
    e.origin_correlator = PairCorrelator{LinkId{1}, 1};
    a_.send(e);
    sim_.schedule(20_ms, pump);
  };
  sim_.schedule(Duration::zero(), pump);
  sim_.run_until(TimePoint::origin() + 300_ms);
  EXPECT_FALSE(b_down);
}

TEST_F(TransportTest, KeepaliveParameterValidation) {
  EXPECT_THROW(a_.enable_keepalive(Duration::zero(), 1_ms), AssertionError);
  EXPECT_THROW(a_.enable_keepalive(10_ms, 5_ms), AssertionError);
}

}  // namespace
}  // namespace qnetp::netmsg
