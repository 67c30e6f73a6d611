#include "netsim/probe.hpp"

#include <algorithm>

namespace qnetp::netsim {

Probe::Probe(Network& net, NodeId node, EndpointId endpoint,
             bool auto_consume)
    : net_(net), node_(node), endpoint_(endpoint),
      auto_consume_(auto_consume) {
  qnp::EndpointHandlers handlers;
  handlers.on_pair = [this](const qnp::PairDelivery& d) {
    Record r;
    r.delivery = d;
    if (d.pair != nullptr) {
      r.oracle_fidelity =
          d.pair->oracle_fidelity(d.state, net_.node_sim(node_).now());
    }
    deliveries_.push_back(r);
    if (auto_consume_ && d.qubit.valid() && !d.tracking_pending) {
      net_.engine(node_).release_app_qubit(d.qubit);
    }
  };
  handlers.on_tracking = [this](const qnp::PairDelivery& d) {
    Record r;
    r.delivery = d;
    if (d.pair != nullptr) {
      r.oracle_fidelity =
          d.pair->oracle_fidelity(d.state, net_.node_sim(node_).now());
    }
    tracking_updates_.push_back(r);
    if (auto_consume_ && d.qubit.valid()) {
      net_.engine(node_).release_app_qubit(d.qubit);
    }
  };
  handlers.on_expire = [this](CircuitId, RequestId, QubitId qubit) {
    ++expires_;
    if (auto_consume_ && qubit.valid()) {
      net_.engine(node_).release_app_qubit(qubit);
    }
  };
  handlers.on_circuit_down = [this](CircuitId, const std::string&) {
    circuit_down_ = true;
  };
  net_.engine(node_).register_endpoint(endpoint_, std::move(handlers));
}

DualProbe::DualProbe(Network& net, NodeId head, EndpointId head_endpoint,
                     NodeId tail, EndpointId tail_endpoint)
    : net_(net), head_node_(head), tail_node_(tail) {
  auto make_handlers = [this](bool at_head) {
    qnp::EndpointHandlers handlers;
    handlers.on_pair = [this, at_head](const qnp::PairDelivery& d) {
      if (d.tracking_pending) return;  // EARLY: wait for tracking info
      on_delivery(at_head, d);
    };
    handlers.on_tracking = [this, at_head](const qnp::PairDelivery& d) {
      on_delivery(at_head, d);
    };
    handlers.on_expire = [this, at_head](CircuitId, RequestId,
                                         QubitId qubit) {
      if (qubit.valid()) {
        net_.engine(at_head ? head_node_ : tail_node_)
            .release_app_qubit(qubit);
      }
    };
    handlers.on_complete = [this, at_head](CircuitId, RequestId id) {
      if (at_head) head_completions_[id] = net_.node_sim(head_node_).now();
    };
    handlers.on_circuit_down = [this, at_head](CircuitId,
                                               const std::string&) {
      // A half can wait forever once the far end expired its side after
      // our delivery (the head refunds the demux slot and re-delivers
      // under a fresh sequence). The circuit is gone — release this
      // node's share of those orphans; the entries stay so unmatched()
      // still reports them.
      for (auto& [key, half] : pending_) {
        if (half.is_head != at_head || !half.delivery.qubit.valid()) {
          continue;
        }
        net_.engine(at_head ? head_node_ : tail_node_)
            .release_app_qubit(half.delivery.qubit);
        half.delivery.qubit = QubitId::invalid();
      }
    };
    return handlers;
  };
  net_.engine(head).register_endpoint(head_endpoint, make_handlers(true));
  net_.engine(tail).register_endpoint(tail_endpoint, make_handlers(false));
}

void DualProbe::on_delivery(bool at_head, const qnp::PairDelivery& d) {
  (at_head ? head_count_ : tail_count_)++;
  const Key key{d.request, d.sequence};
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    pending_[key] = Half{d, at_head};
    return;
  }
  Half first = it->second;
  pending_.erase(it);
  finish(first, Half{d, at_head});
}

void DualProbe::finish(const Half& a, const Half& b) {
  const Half& head_half = a.is_head ? a : b;
  const Half& tail_half = a.is_head ? b : a;

  PairRecord rec;
  rec.request = head_half.delivery.request;
  rec.sequence = head_half.delivery.sequence;
  rec.state_head = head_half.delivery.state;
  rec.state_tail = tail_half.delivery.state;
  rec.outcome_head = head_half.delivery.measure_outcome;
  rec.outcome_tail = tail_half.delivery.measure_outcome;
  rec.states_agree = (rec.state_head == rec.state_tail);
  rec.same_pair_object = (head_half.delivery.pair != nullptr &&
                          head_half.delivery.pair == tail_half.delivery.pair);
  rec.head_at = head_half.delivery.delivered_at;
  rec.tail_at = tail_half.delivery.delivered_at;
  rec.completed_at = net_.node_sim(head_node_).now();
  // Joint fidelity while both qubits are still alive, against the state
  // the network claims.
  if (head_half.delivery.pair != nullptr) {
    rec.fidelity = head_half.delivery.pair->oracle_fidelity(
        rec.state_head, net_.node_sim(head_node_).now());
  }
  pairs_.push_back(rec);

  if (head_half.delivery.qubit.valid()) {
    net_.engine(head_node_).release_app_qubit(head_half.delivery.qubit);
  }
  if (tail_half.delivery.qubit.valid()) {
    net_.engine(tail_node_).release_app_qubit(tail_half.delivery.qubit);
  }
}

std::optional<TimePoint> DualProbe::head_completion(RequestId id) const {
  const auto it = head_completions_.find(id);
  if (it == head_completions_.end()) return std::nullopt;
  return it->second;
}

double DualProbe::mean_fidelity() const {
  if (pairs_.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& p : pairs_) acc += p.fidelity;
  return acc / static_cast<double>(pairs_.size());
}

std::size_t DualProbe::state_mismatches() const {
  std::size_t n = 0;
  for (const auto& p : pairs_) {
    if (!p.states_agree) ++n;
  }
  return n;
}

std::vector<DualProbe::PairRecord> DualProbe::pairs_for(RequestId id) const {
  std::vector<PairRecord> result;
  for (const auto& p : pairs_) {
    if (p.request == id) result.push_back(p);
  }
  std::sort(result.begin(), result.end(),
            [](const PairRecord& x, const PairRecord& y) {
              return x.sequence < y.sequence;
            });
  return result;
}

}  // namespace qnetp::netsim
