// EntangledPair: the simulator's ground-truth record of one entangled
// pair of qubits, wherever its two qubits currently live.
//
// The state is advanced lazily: each side remembers when it was last
// brought up to date and the memory-decay model of the physical qubit
// currently holding it. Before any operation or oracle read the state is
// advanced to the current instant, so idle decoherence is exact without
// per-tick events.
//
// The pair also carries the *announced* Bell index: what the classical
// world believes the state is. The quantum state may differ (readout
// errors, decoherence) — that divergence is precisely what the paper's
// fidelity analysis measures.
#pragma once

#include <memory>

#include "qbase/ids.hpp"
#include "qbase/units.hpp"
#include "qstate/bell.hpp"
#include "qstate/channels.hpp"
#include "qstate/two_qubit_state.hpp"

namespace qnetp::qdevice {

class EntangledPair {
 public:
  struct Side {
    NodeId node;
    QubitId qubit;
    qstate::MemoryDecay decay;
  };

  EntangledPair(PairId id, qstate::TwoQubitState state,
                qstate::BellIndex announced, Side side0, Side side1,
                TimePoint now);

  PairId id() const { return id_; }
  qstate::BellIndex announced_bell() const { return announced_; }

  const Side& side(int i) const;
  /// Which side (0/1) lives at the given node/qubit; -1 if neither.
  int side_of(NodeId node, QubitId qubit) const;

  /// Re-home one side onto a different physical qubit (move to storage):
  /// the decay model changes from `now` on.
  void rehome_side(int side, QubitId new_qubit, qstate::MemoryDecay decay,
                   TimePoint now);

  /// Advance both sides' decoherence to `now`.
  void advance_to(TimePoint now);

  /// Extra dephasing applied to one side (nuclear-spin dephasing caused by
  /// entanglement attempts at the same node).
  void apply_extra_dephasing(int side, double lambda);

  /// Apply an arbitrary channel to one side (gate noise).
  void apply_channel(int side, const qstate::Channel& ch, TimePoint now);

  /// Oracle: fidelity w.r.t. the announced Bell state as of `now`.
  double oracle_fidelity(TimePoint now);
  /// Oracle: fidelity w.r.t. an arbitrary Bell state as of `now`.
  double oracle_fidelity(qstate::BellIndex idx, TimePoint now);

  /// Measure one side; both sides are advanced to `now` first. The state
  /// collapses in place so a later measurement of the other side sees the
  /// correct correlations.
  int measure_side(int side, qstate::Basis basis, TimePoint now, Rng& rng);

  /// Apply the Pauli that moves the pair's announced frame from its
  /// current value to `target` (acting on `side`), updating both the
  /// physical state and the announced index.
  void pauli_correct_to(int side, qstate::BellIndex target, TimePoint now);

  /// One side was discarded: trace it out. The surviving side keeps its
  /// (now unentangled) reduced state so any later operation on it is
  /// physically honest.
  void break_side(int discarded_side, TimePoint now);
  bool broken() const { return broken_; }

  /// The physical qubit of one side was consumed (measured): the side's
  /// state is now a classical record and must no longer decay.
  void freeze_side(int side, TimePoint now);

  /// DEJMPS entanglement distillation (Sec. 4.3): consume `other` (held
  /// between the same two nodes) to probabilistically raise this pair's
  /// fidelity. `other` is broken either way (its qubits are measured by
  /// the protocol). Returns whether the round succeeded; on failure this
  /// pair is broken too.
  bool distill_with(EntangledPair& other, double gate_depolarizing,
                    Rng& rng, TimePoint now);

  /// Direct access for the swap contraction (state as of `now`).
  const qstate::TwoQubitState& state_at(TimePoint now);

  /// Scratch annotation for oracle-based protocols (the Fig. 10 baseline
  /// caches its keep/discard verdict here so both end-nodes of the pair
  /// apply the same — physically impossible, but that is the point of the
  /// paper's oracle comparison). -1 = unset.
  int oracle_tag = -1;

 private:
  struct SideState {
    Side info;
    TimePoint last_advance;
  };

  PairId id_;
  qstate::TwoQubitState state_;
  qstate::BellIndex announced_;
  SideState sides_[2];
  bool broken_ = false;
};

using PairPtr = std::shared_ptr<EntangledPair>;

}  // namespace qnetp::qdevice
