#include "apps/teleport.hpp"

#include <cmath>

#include "qbase/assert.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::apps {

using qstate::Cplx;
using qstate::Mat2;

namespace {
/// Random pure qubit state (uniform on the Bloch sphere).
Mat2 random_pure_state(Rng& rng) {
  const double z = rng.uniform(-1.0, 1.0);
  const double phi = rng.uniform(0.0, 2.0 * M_PI);
  const double theta = std::acos(z);
  const Cplx a{std::cos(theta / 2.0), 0.0};
  const Cplx b = std::polar(std::sin(theta / 2.0), phi);
  return Mat2{a * std::conj(a), a * std::conj(b), b * std::conj(a),
              b * std::conj(b)};
}

double state_fidelity(const Mat2& psi, const Mat2& rho) {
  // <psi|rho|psi> for pure psi given as a density matrix: Tr[psi rho].
  Cplx acc = 0;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) acc += psi(i, j) * rho(j, i);
  return acc.real();
}
}  // namespace

TeleportApp::TeleportApp(netsim::Network& net, NodeId sender,
                         EndpointId sender_endpoint, NodeId receiver,
                         EndpointId receiver_endpoint)
    : net_(net),
      sender_(sender),
      receiver_(receiver),
      sender_endpoint_(sender_endpoint),
      receiver_endpoint_(receiver_endpoint) {
  qnp::EndpointHandlers sender_handlers;
  sender_handlers.on_pair = [this](const qnp::PairDelivery& d) {
    on_pair(d);
  };
  sender_handlers.on_complete = [this](CircuitId, RequestId) {
    completed_ = true;
  };
  net_.engine(sender_).register_endpoint(sender_endpoint_, sender_handlers);

  qnp::EndpointHandlers receiver_handlers;
  receiver_handlers.on_pair = [this](const qnp::PairDelivery& d) {
    receiver_qubits_[d.sequence] = d.qubit;
    const auto it = sender_pending_.find(d.sequence);
    if (it != sender_pending_.end()) {
      const qnp::PairDelivery sender_copy = it->second;
      sender_pending_.erase(it);
      on_pair(sender_copy);
    }
  };
  net_.engine(receiver_).register_endpoint(receiver_endpoint_,
                                           receiver_handlers);
}

bool TeleportApp::start(CircuitId circuit, RequestId request,
                        std::uint64_t count, std::string* reason) {
  qnp::AppRequest r;
  r.id = request;
  r.head_endpoint = sender_endpoint_;
  r.tail_endpoint = receiver_endpoint_;
  r.type = netmsg::RequestType::keep;
  r.num_pairs = count;
  // Phi+ delivery frame: the standard teleportation corrections apply
  // unmodified.
  r.final_state = qstate::BellIndex::phi_plus();
  return net_.engine(sender_).submit_request(circuit, r, reason);
}

void TeleportApp::on_pair(const qnp::PairDelivery& d) {
  const auto rx = receiver_qubits_.find(d.sequence);
  if (rx == receiver_qubits_.end()) {
    // Receiver's half not delivered yet; defer.
    sender_pending_[d.sequence] = d;
    return;
  }
  const QubitId receiver_qubit = rx->second;
  receiver_qubits_.erase(rx);

  QNETP_ASSERT(d.pair != nullptr);
  auto& rng = net_.node(sender_).rng();
  const Mat2 psi = random_pure_state(rng);
  // Bell measurement between the data qubit and the sender's pair half;
  // the receiver's half becomes the output after the Pauli correction.
  const TimePoint now = net_.node_sim(sender_).now();
  const auto [out, m] = qstate::teleport(psi, d.pair->state_at(now), rng);

  TeleportRecord rec;
  rec.sequence = d.sequence;
  rec.bsm_outcome = m;
  rec.output_fidelity = state_fidelity(psi, out);
  rec.at = now;
  records_.push_back(rec);

  // Both physical qubits are consumed by the procedure.
  if (d.qubit.valid()) net_.engine(sender_).release_app_qubit(d.qubit);
  if (receiver_qubit.valid()) {
    net_.engine(receiver_).release_app_qubit(receiver_qubit);
  }
}

double TeleportApp::mean_output_fidelity() const {
  if (records_.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : records_) acc += r.output_fidelity;
  return acc / static_cast<double>(records_.size());
}

}  // namespace qnetp::apps
