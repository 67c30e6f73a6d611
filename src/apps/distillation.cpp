#include "apps/distillation.hpp"

#include "qbase/assert.hpp"

namespace qnetp::apps {

DistillationService::DistillationService(netsim::Network& net, NodeId head,
                                         EndpointId head_endpoint,
                                         NodeId tail,
                                         EndpointId tail_endpoint,
                                         Consumer consumer,
                                         std::size_t rounds)
    : net_(net),
      head_(head),
      tail_(tail),
      head_endpoint_(head_endpoint),
      tail_endpoint_(tail_endpoint),
      consumer_(std::move(consumer)),
      rounds_(rounds) {
  QNETP_ASSERT(rounds_ >= 1);
  levels_.resize(rounds_ + 1);
  auto make_handlers = [this](bool at_head) {
    qnp::EndpointHandlers handlers;
    handlers.on_pair = [this, at_head](const qnp::PairDelivery& d) {
      on_delivery(at_head, d);
    };
    return handlers;
  };
  net_.engine(head_).register_endpoint(head_endpoint_, make_handlers(true));
  net_.engine(tail_).register_endpoint(tail_endpoint_, make_handlers(false));
}

bool DistillationService::start(CircuitId circuit, RequestId request,
                                std::uint64_t raw_pairs,
                                std::string* reason) {
  qnp::AppRequest r;
  r.id = request;
  r.head_endpoint = head_endpoint_;
  r.tail_endpoint = tail_endpoint_;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = raw_pairs;
  r.final_state = qstate::BellIndex::phi_plus();
  return net_.engine(head_).submit_request(circuit, r, reason);
}

void DistillationService::on_delivery(bool at_head,
                                      const qnp::PairDelivery& d) {
  auto& held = arriving_[d.sequence];
  if (at_head) {
    held.head = d;
    held.has_head = true;
  } else {
    held.tail = d;
    held.has_tail = true;
  }
  if (held.has_head && held.has_tail) {
    held.raw_fidelity =
        held.head.pair->oracle_fidelity(net_.node_sim(head_).now());
    levels_[0].push_back(held);
    arriving_.erase(d.sequence);
    try_distill();
  }
}

void DistillationService::release(const Held& held) {
  if (held.head.qubit.valid()) {
    net_.engine(head_).release_app_qubit(held.head.qubit);
  }
  if (held.tail.qubit.valid()) {
    net_.engine(tail_).release_app_qubit(held.tail.qubit);
  }
}

void DistillationService::try_distill() {
  // Entanglement pumping: combine two level-k survivors into one level
  // k+1 candidate; pairs that survive all rounds go to the consumer.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t level = 0; level < rounds_; ++level) {
      while (levels_[level].size() >= 2) {
        progressed = true;
        Held keep = levels_[level].front();
        levels_[level].pop_front();
        Held burn = levels_[level].front();
        levels_[level].pop_front();
        QNETP_ASSERT(keep.head.pair != nullptr && burn.head.pair != nullptr);

        ++attempts_;
        const TimePoint now = net_.node_sim(head_).now();
        const double gate_noise =
            net_.device(head_).hardware().swap_noise().gate_depolarizing;
        auto& rng = net_.node(head_).rng();
        const bool ok = keep.head.pair->distill_with(*burn.head.pair,
                                                     gate_noise, rng, now);
        release(burn);  // its qubits were measured either way
        if (!ok) {
          release(keep);
          continue;
        }
        ++successes_;
        levels_[level + 1].push_back(keep);
      }
    }
    // Drain fully distilled pairs to the consumer.
    while (!levels_[rounds_].empty()) {
      Held done = levels_[rounds_].front();
      levels_[rounds_].pop_front();
      const TimePoint now = net_.node_sim(head_).now();
      const double after = done.head.pair->oracle_fidelity(now);
      gain_sum_ += after - done.raw_fidelity;
      ++gain_count_;

      DistilledPair out;
      out.pair = done.head.pair;
      out.head_qubit = done.head.qubit;
      out.tail_qubit = done.tail.qubit;
      out.fidelity_raw = done.raw_fidelity;
      out.fidelity_after = after;
      out.level = rounds_;
      out.at = now;
      if (consumer_) {
        consumer_(out);
      } else {
        release(done);
      }
    }
  }
}

double DistillationService::mean_fidelity_gain() const {
  // Gain is accounted once per fully distilled pair.
  if (gain_count_ == 0) return 0.0;
  return gain_sum_ / static_cast<double>(gain_count_);
}

}  // namespace qnetp::apps
