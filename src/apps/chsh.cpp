#include "apps/chsh.hpp"

#include <cmath>

#include "qbase/assert.hpp"

namespace qnetp::apps {

using qstate::BlochAxis;

ChshApp::ChshApp(netsim::Network& net, NodeId alice,
                 EndpointId alice_endpoint, NodeId bob,
                 EndpointId bob_endpoint)
    : net_(net),
      alice_(alice),
      bob_(bob),
      alice_endpoint_(alice_endpoint),
      bob_endpoint_(bob_endpoint) {
  auto make_handlers = [this](bool alice_side) {
    qnp::EndpointHandlers handlers;
    handlers.on_pair = [this, alice_side](const qnp::PairDelivery& d) {
      on_delivery(alice_side, d);
    };
    handlers.on_complete = [this](CircuitId, RequestId) {
      completed_ = true;
    };
    return handlers;
  };
  net_.engine(alice_).register_endpoint(alice_endpoint_,
                                        make_handlers(true));
  net_.engine(bob_).register_endpoint(bob_endpoint_, make_handlers(false));
}

bool ChshApp::start(CircuitId circuit, RequestId request,
                    std::uint64_t pairs, std::string* reason) {
  qnp::AppRequest r;
  r.id = request;
  r.head_endpoint = alice_endpoint_;
  r.tail_endpoint = bob_endpoint_;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = pairs;
  r.final_state = qstate::BellIndex::phi_plus();
  return net_.engine(alice_).submit_request(circuit, r, reason);
}

void ChshApp::on_delivery(bool alice_side, const qnp::PairDelivery& d) {
  const auto it = pending_.find(d.sequence);
  if (it == pending_.end()) {
    pending_[d.sequence] = Half{d, alice_side};
    return;
  }
  const Half first = it->second;
  pending_.erase(it);
  consume(first, Half{d, alice_side});
}

void ChshApp::consume(const Half& a, const Half& b) {
  const Half& alice_half = a.is_alice ? a : b;
  const Half& bob_half = a.is_alice ? b : a;
  QNETP_ASSERT(alice_half.delivery.pair != nullptr);

  auto& rng = net_.node(alice_).rng();
  const int alice_setting = rng.bernoulli(0.5) ? 1 : 0;  // 0: Z, 1: X
  const int bob_setting = rng.bernoulli(0.5) ? 1 : 0;    // 0: b, 1: b'
  const BlochAxis alice_axis =
      (alice_setting == 0) ? BlochAxis::pauli_z() : BlochAxis::pauli_x();
  const BlochAxis bob_axis = BlochAxis::xz_plane(
      (bob_setting == 0) ? M_PI / 4.0 : -M_PI / 4.0);

  // Delivered side 0 is at the head-end (Alice is the circuit head here).
  auto& pair = *alice_half.delivery.pair;
  const TimePoint now = net_.node_sim(alice_).now();
  pair.advance_to(now);
  // Measure through the pair object so both qubits collapse consistently;
  // outcomes map to +1 (0) and -1 (1).
  Rng& sampler = net_.node(alice_).rng();
  qstate::TwoQubitState state = pair.state_at(now);
  const auto [oa, ob] =
      state.measure_both_along(alice_axis, bob_axis, sampler);

  const int product = ((oa == 0) == (ob == 0)) ? +1 : -1;
  auto& cell = report_.cells[static_cast<std::size_t>(alice_setting)]
                            [static_cast<std::size_t>(bob_setting)];
  ++cell.rounds;
  cell.sum += product;
  ++report_.pairs_consumed;

  if (alice_half.delivery.qubit.valid()) {
    net_.engine(alice_).release_app_qubit(alice_half.delivery.qubit);
  }
  if (bob_half.delivery.qubit.valid()) {
    net_.engine(bob_).release_app_qubit(bob_half.delivery.qubit);
  }
}

}  // namespace qnetp::apps
