// Probe: a synthetic application endpoint used by tests and benchmarks.
//
// Registers endpoint handlers with a node's QNP engine, records every
// delivery (with the oracle fidelity evaluated at the delivery instant),
// expiries, tracking updates and circuit loss, and — unless configured
// otherwise — consumes delivered qubits immediately so communication
// memory is recycled (the "measure directly" style consumption every
// evaluation scenario in the paper uses).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "netsim/network.hpp"
#include "qnp/request.hpp"

namespace qnetp::netsim {

class Probe {
 public:
  struct Record {
    qnp::PairDelivery delivery;
    double oracle_fidelity = 0.0;  ///< vs the tracked state, at delivery
  };

  /// Attach to `endpoint` at `node`. auto_consume releases KEEP qubits
  /// back to the network immediately after recording.
  Probe(Network& net, NodeId node, EndpointId endpoint,
        bool auto_consume = true);

  NodeId node() const { return node_; }
  EndpointId endpoint() const { return endpoint_; }

  const std::vector<Record>& deliveries() const { return deliveries_; }
  std::size_t delivered_count() const { return deliveries_.size(); }
  const std::vector<Record>& tracking_updates() const {
    return tracking_updates_;
  }
  std::size_t expire_count() const { return expires_; }
  bool circuit_down() const { return circuit_down_; }

 private:
  Network& net_;
  NodeId node_;
  EndpointId endpoint_;
  bool auto_consume_;
  std::vector<Record> deliveries_;
  std::vector<Record> tracking_updates_;
  std::size_t expires_ = 0;
  bool circuit_down_ = false;
};

/// DualProbe: an application spanning both end-points of one circuit.
///
/// Holds each delivered qubit until the SAME pair (request, sequence) has
/// arrived at both ends, audits the joint state at that instant — while
/// both qubits are still alive, and after the head-end's Pauli correction
/// — then releases both qubits. This is the faithful way to measure
/// delivered end-to-end fidelity (what the paper reads from its
/// simulator) while keeping communication memory recycled.
class DualProbe {
 public:
  struct PairRecord {
    RequestId request;
    std::uint64_t sequence = 0;
    qstate::BellIndex state_head;
    qstate::BellIndex state_tail;
    int outcome_head = -1;
    int outcome_tail = -1;
    double fidelity = 0.0;  ///< joint oracle fidelity vs claimed state
    bool states_agree = false;
    bool same_pair_object = false;
    TimePoint head_at;
    TimePoint tail_at;
    TimePoint completed_at;  ///< max(head_at, tail_at)
  };

  DualProbe(Network& net, NodeId head, EndpointId head_endpoint,
            NodeId tail, EndpointId tail_endpoint);

  const std::vector<PairRecord>& pairs() const { return pairs_; }
  std::size_t pair_count() const { return pairs_.size(); }

  std::optional<TimePoint> head_completion(RequestId id) const;
  std::size_t head_delivery_count() const { return head_count_; }
  std::size_t tail_delivery_count() const { return tail_count_; }
  /// Deliveries never matched by the far end (should stay 0).
  std::size_t unmatched() const { return pending_.size(); }

  double mean_fidelity() const;
  std::size_t state_mismatches() const;
  std::vector<PairRecord> pairs_for(RequestId id) const;

 private:
  struct Half {
    qnp::PairDelivery delivery;
    bool is_head = false;
  };
  void on_delivery(bool at_head, const qnp::PairDelivery& d);
  void finish(const Half& first, const Half& second);

  Network& net_;
  NodeId head_node_;
  NodeId tail_node_;
  using Key = std::pair<RequestId, std::uint64_t>;
  std::map<Key, Half> pending_;
  std::vector<PairRecord> pairs_;
  std::map<RequestId, TimePoint> head_completions_;
  std::size_t head_count_ = 0;
  std::size_t tail_count_ = 0;
};

}  // namespace qnetp::netsim
