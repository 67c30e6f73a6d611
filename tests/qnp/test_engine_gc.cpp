// Engine record-GC tests: wholesale flow-table expiry of stranded
// in-transit pairs, TTL-horizon survival, duplicate/late TRACKs after
// expiry, and occupancy/consistency accounting across churn.
//
// Scenario used throughout: cut the classical 2-3 link of a 3-node
// chain while a keep request is streaming. Whatever in-transit entries
// the tail holds at the cut can never be resolved by the protocol (the
// TRACKs and EXPIREs that would release them are dropped), so only the
// record TTL's wholesale expiry reclaims them.
#include <algorithm>

#include <gtest/gtest.h>

#include "netsim/network.hpp"
#include "netsim/probe.hpp"

namespace qnetp::qnp {
namespace {

using namespace qnetp::literals;
using netmsg::Message;
using netmsg::TrackMsg;

class EngineGc : public ::testing::Test {
 protected:
  EngineGc() {
    netsim::NetworkConfig config;
    config.seed = 5;
    net_ = netsim::make_chain(3, config, qhw::simulation_preset(),
                              qhw::FiberParams::lab(2.0));
    probe_ = std::make_unique<netsim::DualProbe>(
        *net_, NodeId{1}, EndpointId{10}, NodeId{3}, EndpointId{20});
    const auto plan = net_->establish_circuit(
        NodeId{1}, NodeId{3}, EndpointId{10}, EndpointId{20}, 0.85);
    EXPECT_TRUE(plan.has_value());
    plan_ = *plan;
  }

  QnpEngine& head() { return net_->engine(NodeId{1}); }
  QnpEngine& mid() { return net_->engine(NodeId{2}); }
  QnpEngine& tail() { return net_->engine(NodeId{3}); }

  /// Stream a long keep request, then sever classical 2-3 mid-flight,
  /// stranding the tail's live in-transit entries. Returns the sim time
  /// of the cut.
  TimePoint stream_then_cut() {
    AppRequest r;
    r.id = RequestId{1};
    r.head_endpoint = EndpointId{10};
    r.tail_endpoint = EndpointId{20};
    r.type = netmsg::RequestType::keep;
    r.num_pairs = 200;  // stays active well past the cut
    EXPECT_TRUE(head().submit_request(plan_.install.circuit_id, r));
    net_->sharded_sim().run_until(net_->sharded_sim().now() + 150_ms);
    EXPECT_GT(tail().occupancy().live, 0u);  // pairs in flight at the cut
    net_->classical().set_link_up(NodeId{2}, NodeId{3}, false);
    return net_->sharded_sim().now();
  }

  /// The engine's record TTL for this circuit (see gc_records).
  Duration record_ttl() const {
    return std::max(plan_.cutoff * 8.0, Duration::seconds(1.0));
  }

  /// TRACKs arriving at the tail trigger gc_records before the end-node
  /// rule runs; an unknown correlator is then silently ignored, so this
  /// doubles as a benign GC trigger.
  void poke_tail_gc(std::uint64_t sequence) {
    TrackMsg track;
    track.circuit_id = plan_.install.circuit_id;
    track.request_id = RequestId{1};
    track.head_end_identifier = EndpointId{10};
    track.tail_end_identifier = EndpointId{20};
    // Link 2-3 is the second link of the chain.
    track.origin_correlator = PairCorrelator{LinkId{1}, sequence};
    track.link_correlator = PairCorrelator{LinkId{2}, sequence};
    tail().on_message(NodeId{2}, Message{track});
  }

  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<netsim::DualProbe> probe_;
  ctrl::CircuitPlan plan_;
};

TEST_F(EngineGc, StrandedPairsSurviveUntilTheTtlHorizon) {
  const TimePoint cut = stream_then_cut();
  const std::uint64_t live_at_cut = tail().occupancy().live;
  const std::uint64_t base = tail().counters().pairs_discarded_unassigned;

  // Entries live at the cut were stamped at most cutoff+slack ago (older
  // ones were resolved by the still-healthy protocol). Just short of
  // stamp+TTL the GC floor lies before all of them: none may expire.
  net_->sharded_sim().run_until(cut + record_ttl() - plan_.cutoff -
                               Duration::seconds(0.5));
  poke_tail_gc(999999);
  EXPECT_EQ(tail().counters().pairs_discarded_unassigned, base);
  EXPECT_GE(tail().occupancy().live, live_at_cut);

  // Past cut+TTL every stranded entry is a full TTL overdue: wholesale
  // expiry reclaims all of them (plus any straggler that landed right
  // after the cut) at once.
  net_->sharded_sim().run_until(cut + record_ttl() + Duration::seconds(0.5));
  poke_tail_gc(999999);
  EXPECT_GE(tail().counters().pairs_discarded_unassigned,
            base + live_at_cut);
  EXPECT_EQ(tail().occupancy().live, 0u);
  EXPECT_GE(tail().occupancy().expired_wholesale, live_at_cut);
  EXPECT_EQ(tail().consistency_check(), "");
}

TEST_F(EngineGc, LateTracksAfterWholesaleExpiryAreIgnored) {
  const TimePoint cut = stream_then_cut();
  const std::uint64_t live_at_cut = tail().occupancy().live;
  const std::uint64_t base = tail().counters().pairs_discarded_unassigned;
  net_->sharded_sim().run_until(cut + record_ttl() + Duration::seconds(0.5));

  // Replay TRACKs for the first thirty 2-3 link pairs: every correlator
  // was either delivered long ago or just wholesale-expired (the first
  // poke's gc pass reclaims the stranded entries). All must be ignored
  // without crashing, and none may deliver.
  const std::uint64_t delivered = tail().counters().pairs_delivered;
  for (std::uint64_t seq = 1; seq <= 30; ++seq) poke_tail_gc(seq);
  EXPECT_GE(tail().counters().pairs_discarded_unassigned,
            base + live_at_cut);
  EXPECT_EQ(tail().counters().pairs_delivered, delivered);
  EXPECT_EQ(tail().counters().cross_check_failures, 0u);
  EXPECT_EQ(tail().occupancy().live, 0u);
  EXPECT_EQ(tail().consistency_check(), "");
}

TEST_F(EngineGc, OccupancyCountersStayConsistentAcrossChurn) {
  AppRequest r;
  r.id = RequestId{1};
  r.head_endpoint = EndpointId{10};
  r.tail_endpoint = EndpointId{20};
  r.type = netmsg::RequestType::keep;
  r.num_pairs = 6;
  ASSERT_TRUE(head().submit_request(plan_.install.circuit_id, r));
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 30_s);
  ASSERT_EQ(probe_->pair_count(), 6u);

  for (QnpEngine* e : {&head(), &mid(), &tail()}) {
    EXPECT_EQ(e->consistency_check(), "");
    const EngineOccupancy occ = e->occupancy();
    EXPECT_GE(occ.peak, occ.live);
  }
  // The mid node saw real record churn: its peak must reflect it.
  EXPECT_GT(mid().occupancy().peak, 0u);

  // Teardown retires the circuit's tables; live occupancy drops to zero
  // while the wholesale-expiry total survives the circuit's erasure.
  const std::uint64_t expired_before = mid().occupancy().expired_wholesale;
  head().teardown(plan_.install.circuit_id, "gc occupancy test");
  net_->sharded_sim().run_until(net_->sharded_sim().now() + 100_ms);
  for (QnpEngine* e : {&head(), &mid(), &tail()}) {
    EXPECT_EQ(e->occupancy().live, 0u);
    EXPECT_EQ(e->consistency_check(), "");
  }
  EXPECT_EQ(mid().occupancy().expired_wholesale, expired_before);
}

}  // namespace
}  // namespace qnetp::qnp
