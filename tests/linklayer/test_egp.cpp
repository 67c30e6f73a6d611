#include "linklayer/egp.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "qbase/stats.hpp"

namespace qnetp::linklayer {
namespace {

using namespace qnetp::literals;
using qdevice::PairRegistry;
using qdevice::QuantumDevice;

class EgpTest : public ::testing::Test {
 protected:
  EgpTest()
      : rng_(7),
        dev_a_(sim_, rng_, registry_, qhw::simulation_preset(), NodeId{1}),
        dev_b_(sim_, rng_, registry_, qhw::simulation_preset(), NodeId{2}),
        link_(sim_, rng_, LinkId{12}, dev_a_, dev_b_,
              qhw::PhotonicLinkModel(qhw::simulation_preset(),
                                     qhw::FiberParams::lab(2.0))) {
    dev_a_.memory().add_link_pool(LinkId{12}, 2);
    dev_b_.memory().add_link_pool(LinkId{12}, 2);
    link_.set_delivery_handler(NodeId{1}, [this](const LinkPairDelivery& d) {
      at_a_.push_back(d);
    });
    link_.set_delivery_handler(NodeId{2}, [this](const LinkPairDelivery& d) {
      at_b_.push_back(d);
    });
    link_.set_failure_handler(
        NodeId{1}, [this](LinkLabel l, const std::string&) {
          failures_.push_back(l);
        });
    link_.set_failure_handler(NodeId{2},
                              [](LinkLabel, const std::string&) {});
  }

  /// Consume a delivered pair (protocol would swap/deliver it): free the
  /// qubits at both ends so generation can continue.
  void consume(const LinkPairDelivery& da, const LinkPairDelivery& db) {
    dev_a_.discard(da.local_qubit);
    dev_b_.discard(db.local_qubit);
    link_.poke();
  }

  des::Simulator sim_;
  Rng rng_;
  PairRegistry registry_;
  QuantumDevice dev_a_;
  QuantumDevice dev_b_;
  EgpLink link_;
  std::vector<LinkPairDelivery> at_a_;
  std::vector<LinkPairDelivery> at_b_;
  std::vector<LinkLabel> failures_;
  std::size_t consumed_ = 0;
};

TEST_F(EgpTest, FiniteRequestDeliversExactCount) {
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.9;
  req.continuous = false;
  req.num_pairs = 2;
  link_.submit(req);
  // Consume pairs as they arrive so memory frees up.
  sim_.schedule(Duration::zero(), [this] {});
  while (sim_.step()) {
    while (!at_a_.empty() && at_a_.size() == at_b_.size() &&
           at_a_.size() > consumed_) {
      consume(at_a_[consumed_], at_b_[consumed_]);
      ++consumed_;
    }
  }
  EXPECT_EQ(at_a_.size(), 2u);
  EXPECT_EQ(at_b_.size(), 2u);
  EXPECT_FALSE(link_.has_request(LinkLabel{5}));
}

TEST_F(EgpTest, DeliveryCarriesAllRequiredProperties) {
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.9;
  req.continuous = false;
  req.num_pairs = 1;
  link_.submit(req);
  sim_.run();
  ASSERT_EQ(at_a_.size(), 1u);
  ASSERT_EQ(at_b_.size(), 1u);
  const auto& da = at_a_[0];
  const auto& db = at_b_[0];
  // (i) purpose id at both ends.
  EXPECT_EQ(da.label, LinkLabel{5});
  EXPECT_EQ(db.label, LinkLabel{5});
  // (ii) same entanglement id at both ends.
  EXPECT_EQ(da.correlator, db.correlator);
  EXPECT_EQ(da.correlator.link, LinkId{12});
  // (iii) Bell state announced.
  EXPECT_EQ(da.announced, qstate::BellIndex::psi_plus());
  // (iv) fidelity honoured (oracle check).
  EXPECT_GE(da.pair->oracle_fidelity(sim_.now()), 0.9 - 0.01);
  // Distinct local qubits, same underlying pair.
  EXPECT_NE(da.local_qubit, db.local_qubit);
  EXPECT_EQ(da.pair->id(), db.pair->id());
}

TEST_F(EgpTest, CorrelatorsAreUniqueAndIncreasing) {
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.8;
  req.continuous = false;
  req.num_pairs = 4;
  link_.submit(req);
  std::uint64_t last = 0;
  while (sim_.step()) {
    while (at_a_.size() > consumed_ && at_b_.size() > consumed_) {
      EXPECT_GT(at_a_[consumed_].correlator.sequence, last);
      last = at_a_[consumed_].correlator.sequence;
      consume(at_a_[consumed_], at_b_[consumed_]);
      ++consumed_;
    }
  }
  EXPECT_EQ(at_a_.size(), 4u);
}

TEST_F(EgpTest, HigherFidelityMeansSlowerGeneration) {
  // Request F=0.8 then F=0.97: per-pair time must grow.
  SampleSet low_f_ms, high_f_ms;
  for (int round = 0; round < 2; ++round) {
    LinkRequest req;
    req.label = LinkLabel{static_cast<std::uint64_t>(10 + round)};
    req.min_fidelity = (round == 0) ? 0.8 : 0.97;
    req.continuous = false;
    req.num_pairs = 20;
    const TimePoint start = sim_.now();
    link_.submit(req);
    std::size_t target = at_a_.size() + 20;
    TimePoint last_start = start;
    while (at_a_.size() < target && sim_.step()) {
      while (at_a_.size() > consumed_ && at_b_.size() > consumed_) {
        ((round == 0) ? low_f_ms : high_f_ms)
            .add((sim_.now() - last_start).as_ms());
        last_start = sim_.now();
        consume(at_a_[consumed_], at_b_[consumed_]);
        ++consumed_;
      }
    }
  }
  ASSERT_EQ(low_f_ms.count(), 20u);
  ASSERT_EQ(high_f_ms.count(), 20u);
  EXPECT_GT(high_f_ms.mean(), low_f_ms.mean() * 1.5);
}

TEST_F(EgpTest, UnachievableFidelityFails) {
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.99999;
  link_.submit(req);
  EXPECT_EQ(failures_.size(), 1u);
  EXPECT_EQ(failures_[0], LinkLabel{5});
  EXPECT_FALSE(link_.has_request(LinkLabel{5}));
  sim_.run();
  EXPECT_TRUE(at_a_.empty());
}

TEST_F(EgpTest, MemoryExhaustionStallsGeneration) {
  // Continuous request but nobody consumes: after 2 pairs (pool size) the
  // link stalls instead of over-allocating.
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.9;
  req.continuous = true;
  link_.submit(req);
  sim_.run_until(TimePoint::origin() + 2_s);
  EXPECT_EQ(at_a_.size(), 2u);
  EXPECT_GT(link_.stalls(), 0u);
  // Consuming both pairs lets generation resume.
  consume(at_a_[0], at_b_[0]);
  consume(at_a_[1], at_b_[1]);
  sim_.run_until(TimePoint::origin() + 4_s);
  EXPECT_GT(at_a_.size(), 2u);
}

TEST_F(EgpTest, CancelStopsContinuousGeneration) {
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.9;
  req.continuous = true;
  link_.submit(req);
  sim_.run_until(TimePoint::origin() + 100_ms);
  const auto count = at_a_.size();
  link_.cancel(LinkLabel{5});
  // Reserved qubits must be released by the abort.
  EXPECT_EQ(dev_a_.memory().in_use_count(),
            at_a_.size() - 0);  // only delivered pairs hold qubits
  sim_.run_until(TimePoint::origin() + 1_s);
  EXPECT_EQ(at_a_.size(), count);
  EXPECT_FALSE(link_.busy());
}

TEST_F(EgpTest, TwoPurposesShareLinkFairly) {
  // Two circuits with equal LPR on one link: equal time share. Consume
  // everything immediately so memory never stalls.
  LinkRequest r1;
  r1.label = LinkLabel{1};
  r1.min_fidelity = 0.9;
  r1.lpr_weight = 10.0;
  LinkRequest r2 = r1;
  r2.label = LinkLabel{2};
  link_.submit(r1);
  link_.submit(r2);

  std::map<LinkLabel, int> counts;
  link_.set_delivery_handler(NodeId{1}, [&](const LinkPairDelivery& d) {
    counts[d.label]++;
    dev_a_.discard(d.local_qubit);
  });
  link_.set_delivery_handler(NodeId{2}, [&](const LinkPairDelivery& d) {
    dev_b_.discard(d.local_qubit);
    link_.poke();
  });
  sim_.run_until(TimePoint::origin() + 20_s);
  const int total = counts[LinkLabel{1}] + counts[LinkLabel{2}];
  ASSERT_GT(total, 100);
  EXPECT_NEAR(static_cast<double>(counts[LinkLabel{1}]) / total, 0.5, 0.1);
}

TEST_F(EgpTest, MeanGenerationTimeMatchesFig5Anchor) {
  // End-to-end through the EGP machinery: F=0.95 pairs over the 2 m lab
  // link arrive with ~10 ms mean spacing when consumed immediately.
  LinkRequest req;
  req.label = LinkLabel{5};
  req.min_fidelity = 0.95;
  req.continuous = true;
  link_.submit(req);
  std::vector<double> arrivals_ms;
  link_.set_delivery_handler(NodeId{1}, [&](const LinkPairDelivery& d) {
    arrivals_ms.push_back(sim_.now().as_ms());
    dev_a_.discard(d.local_qubit);
  });
  link_.set_delivery_handler(NodeId{2}, [&](const LinkPairDelivery& d) {
    dev_b_.discard(d.local_qubit);
    link_.poke();
  });
  sim_.run_until(TimePoint::origin() + 30_s);
  ASSERT_GT(arrivals_ms.size(), 500u);
  const double mean_gap =
      arrivals_ms.back() / static_cast<double>(arrivals_ms.size());
  EXPECT_GT(mean_gap, 6.0);
  EXPECT_LT(mean_gap, 14.0);
}

}  // namespace
}  // namespace qnetp::linklayer
