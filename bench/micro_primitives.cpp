// Micro-benchmarks of the simulator's hot primitives (google-benchmark).
//
// These bound the cost of the exact density-matrix substrate: the
// evaluation's credibility rests on the simulation being exact, and these
// numbers show exactness is affordable (microseconds per operation).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "des/simulator.hpp"
#include "netmsg/codec.hpp"
#include "netsim/network.hpp"
#include "qhw/params.hpp"
#include "qbase/rng.hpp"
#include "qdevice/entangled_pair.hpp"
#include "qstate/channels.hpp"
#include "qstate/distill.hpp"
#include "qstate/swap.hpp"
#include "qstate/two_qubit_state.hpp"

using namespace qnetp;
using namespace qnetp::literals;
using qstate::BellIndex;
using qstate::Channel;
using qstate::TwoQubitState;

static void BM_Mat4Multiply(benchmark::State& state) {
  const auto a = qstate::bell_projector(BellIndex::phi_plus());
  const auto b = qstate::bell_projector(BellIndex::psi_minus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_Mat4Multiply);

static void BM_ChannelApplyToSide(benchmark::State& state) {
  TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
  const Channel depol = Channel::depolarizing(0.01);
  for (auto _ : state) {
    s.apply_channel(0, depol);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ChannelApplyToSide);

static void BM_MemoryDecayInterval(benchmark::State& state) {
  const qstate::MemoryDecay decay{3600_s, 60_s};
  TwoQubitState s = TwoQubitState::bell(BellIndex::phi_plus());
  for (auto _ : state) {
    s.apply_channel(0, decay.for_interval(1_ms));
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_MemoryDecayInterval);

static void BM_EntanglementSwap(benchmark::State& state) {
  Rng rng(1);
  const auto a = TwoQubitState::werner(0.95, BellIndex::phi_plus());
  const auto b = TwoQubitState::werner(0.9, BellIndex::psi_plus());
  qstate::SwapNoise noise;
  noise.gate_depolarizing = 0.0013;
  noise.readout_flip_prob = 0.002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::entanglement_swap(a, b, noise, rng));
  }
}
BENCHMARK(BM_EntanglementSwap);

static void BM_Teleport(benchmark::State& state) {
  Rng rng(2);
  const qstate::Mat2 psi{0.36, 0.48, 0.48, 0.64};
  const auto pair = TwoQubitState::werner(0.95, BellIndex::phi_plus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::teleport(psi, pair, rng));
  }
}
BENCHMARK(BM_Teleport);

static void BM_Dejmps(benchmark::State& state) {
  Rng rng(3);
  const auto w = TwoQubitState::werner(0.8, BellIndex::phi_plus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::dejmps(w, w, 0.0013, rng));
  }
}
BENCHMARK(BM_Dejmps);

// Dual-representation qstate substrate (see also bench/qstate_hotpath for
// the legacy-Kraus comparison and the BENCH_qstate.json emitter).

static void BM_QStateApplyChannelBellDiag(benchmark::State& state) {
  // Pauli mixture on the Bell-diagonal fast path: closed-form XOR mix.
  TwoQubitState s = TwoQubitState::werner(0.95, BellIndex::phi_plus());
  const Channel depol = Channel::depolarizing(0.01);
  for (auto _ : state) {
    s.apply_channel(0, depol);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_QStateApplyChannelBellDiag);

static void BM_QStateApplyChannelExact(benchmark::State& state) {
  // Same channel on the exact Mat4 path: cached PTM structured matvec.
  TwoQubitState s(TwoQubitState::werner(0.95, BellIndex::phi_plus()).rho());
  const Channel depol = Channel::depolarizing(0.01);
  for (auto _ : state) {
    s.apply_channel(0, depol);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_QStateApplyChannelExact);

static void BM_QStateOracleFidelity(benchmark::State& state) {
  // The per-event hot loop: lazy decoherence advance + Bell-basis readout
  // on a pair with finite-T1 memories (exact-path fallback).
  using namespace qnetp::literals;
  qdevice::EntangledPair pair(
      PairId{1}, TwoQubitState::werner(0.95, BellIndex::psi_plus()),
      BellIndex::psi_plus(),
      qdevice::EntangledPair::Side{NodeId{1}, QubitId{1},
                                   qstate::MemoryDecay{3600_s, 60_s}},
      qdevice::EntangledPair::Side{NodeId{2}, QubitId{2},
                                   qstate::MemoryDecay{360_s, 60_s}},
      TimePoint::origin());
  TimePoint now = TimePoint::origin();
  for (auto _ : state) {
    now += 1_ms;
    benchmark::DoNotOptimize(pair.oracle_fidelity(now));
  }
}
BENCHMARK(BM_QStateOracleFidelity);

static void BM_QStateOracleFidelityNoDecay(benchmark::State& state) {
  // Same loop on no-decay memories: the decay pipeline is skipped
  // entirely and readout is an array lookup.
  using namespace qnetp::literals;
  qdevice::EntangledPair pair(
      PairId{1}, TwoQubitState::werner(0.95, BellIndex::psi_plus()),
      BellIndex::psi_plus(),
      qdevice::EntangledPair::Side{NodeId{1}, QubitId{1},
                                   qstate::MemoryDecay{}},
      qdevice::EntangledPair::Side{NodeId{2}, QubitId{2},
                                   qstate::MemoryDecay{}},
      TimePoint::origin());
  TimePoint now = TimePoint::origin();
  for (auto _ : state) {
    now += 1_ms;
    benchmark::DoNotOptimize(pair.oracle_fidelity(now));
  }
}
BENCHMARK(BM_QStateOracleFidelityNoDecay);

static void BM_QStateSwapBellDiag(benchmark::State& state) {
  // Entanglement swap of two Bell-diagonal pairs: XOR-convolution fast
  // path (compare BM_EntanglementSwap, which seeds the same inputs).
  Rng rng(31);
  const auto a = TwoQubitState::werner(0.95, BellIndex::phi_plus());
  const auto b = TwoQubitState::werner(0.9, BellIndex::psi_plus());
  qstate::SwapNoise noise;
  noise.gate_depolarizing = 0.0013;
  noise.readout_flip_prob = 0.002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::entanglement_swap(a, b, noise, rng));
  }
}
BENCHMARK(BM_QStateSwapBellDiag);

static void BM_QStateSwapExact(benchmark::State& state) {
  // The same swap with exact-path inputs: full tensor contraction.
  Rng rng(37);
  const TwoQubitState a(
      TwoQubitState::werner(0.95, BellIndex::phi_plus()).rho());
  const TwoQubitState b(
      TwoQubitState::werner(0.9, BellIndex::psi_plus()).rho());
  qstate::SwapNoise noise;
  noise.gate_depolarizing = 0.0013;
  noise.readout_flip_prob = 0.002;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::entanglement_swap(a, b, noise, rng));
  }
}
BENCHMARK(BM_QStateSwapExact);

static void BM_QStateDejmps(benchmark::State& state) {
  // DEJMPS round on Bell-diagonal inputs: closed-form coefficients.
  Rng rng(41);
  const auto w = TwoQubitState::werner(0.8, BellIndex::phi_plus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(qstate::dejmps(w, w, 0.0013, rng));
  }
}
BENCHMARK(BM_QStateDejmps);

static void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(Duration::us(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

// DES kernel primitives (see also bench/des_kernel for the legacy-kernel
// comparison and the BENCH_des.json emitter).

static void BM_DesSchedule(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(Duration::us(i), [] {});
    }
    benchmark::DoNotOptimize(sim.events_pending());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DesSchedule);

static void BM_DesScheduleCancel(benchmark::State& state) {
  std::vector<des::EventHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    des::Simulator sim;
    handles.clear();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.schedule(Duration::us(i + 1), [] {}));
    }
    for (const auto& h : handles) sim.cancel(h);
    benchmark::DoNotOptimize(sim.events_pending());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DesScheduleCancel);

static void BM_DesDispatchWithCapture(benchmark::State& state) {
  // Dispatch cost with a realistic (~48-byte) closure capture.
  struct Payload {
    std::uint64_t a, b, c, d, e;
    std::uint64_t* sink;
  };
  std::uint64_t sink = 0;
  for (auto _ : state) {
    des::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      const Payload p{static_cast<std::uint64_t>(i), 1, 2, 3, 4, &sink};
      sim.schedule(Duration::us(i), [p] { *p.sink += p.a; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DesDispatchWithCapture);

static void BM_DesScheduleCancelDispatchMix(benchmark::State& state) {
  // The cutoff-heavy mix: every pair schedules a cutoff timer and a work
  // event; 80% of the cutoffs are cancelled before they fire.
  Rng rng(7);
  std::vector<des::EventHandle> cutoffs;
  cutoffs.reserve(512);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    des::Simulator sim;
    cutoffs.clear();
    for (int i = 0; i < 512; ++i) {
      cutoffs.push_back(sim.schedule(
          Duration::us(static_cast<double>(500 + rng.uniform_int(1000))),
          [&sink, i] { sink += static_cast<std::uint64_t>(i); }));
      sim.schedule(
          Duration::us(static_cast<double>(1 + rng.uniform_int(400))),
          [&sink, i] { sink ^= static_cast<std::uint64_t>(i); });
    }
    for (int i = 0; i < 512; ++i) {
      if (rng.uniform_int(100) < 80) sim.cancel(cutoffs[static_cast<std::size_t>(i)]);
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DesScheduleCancelDispatchMix);

static void BM_CodecTrackRoundTrip(benchmark::State& state) {
  netmsg::TrackMsg m;
  m.circuit_id = CircuitId{7};
  m.request_id = RequestId{42};
  m.head_end_identifier = EndpointId{1};
  m.tail_end_identifier = EndpointId{2};
  m.origin_correlator = PairCorrelator{LinkId{1}, 17};
  m.link_correlator = PairCorrelator{LinkId{2}, 99};
  m.outcome_state = BellIndex::psi_minus();
  m.epoch = 1234;
  m.pair_sequence = 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(netmsg::decode(netmsg::encode(m)));
  }
}
BENCHMARK(BM_CodecTrackRoundTrip);

static void BM_GeometricSampling(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.geometric_attempts(1.2e-3));
  }
}
BENCHMARK(BM_GeometricSampling);

// QNP engine hot path, measured through a live 3-node chain with one
// installed circuit (the fixture is built once; the engines, EGP links
// and classical fabric are all real).

namespace {

struct EngineFixture {
  std::unique_ptr<netsim::Network> net;
  CircuitId circuit;
  qnp::QnpEngine* head = nullptr;
  bool completed = false;
  std::uint64_t next_id = 1;

  EngineFixture() {
    netsim::NetworkConfig config;
    config.seed = 99;
    net = netsim::make_chain(3, config, qhw::simulation_preset(),
                             qhw::FiberParams::lab(2.0));
    const auto plan = net->establish_circuit(NodeId{1}, NodeId{3},
                                             EndpointId{1}, EndpointId{2},
                                             0.72);
    if (!plan.has_value()) std::abort();
    circuit = plan->install.circuit_id;
    head = &net->engine(NodeId{1});

    qnp::EndpointHandlers hh;
    hh.on_pair = [this](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        head->release_app_qubit(d.qubit);
      }
    };
    hh.on_tracking = [this](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) head->release_app_qubit(d.qubit);
    };
    hh.on_expire = [this](CircuitId, RequestId, QubitId q) {
      if (q.valid()) head->release_app_qubit(q);
    };
    hh.on_complete = [this](CircuitId, RequestId) { completed = true; };
    head->register_endpoint(EndpointId{1}, std::move(hh));

    qnp::EndpointHandlers th;
    th.on_pair = [this](const qnp::PairDelivery& d) {
      if (d.qubit.valid() && !d.tracking_pending) {
        net->engine(NodeId{3}).release_app_qubit(d.qubit);
      }
    };
    th.on_tracking = [this](const qnp::PairDelivery& d) {
      if (d.qubit.valid()) net->engine(NodeId{3}).release_app_qubit(d.qubit);
    };
    th.on_expire = [this](CircuitId, RequestId, QubitId q) {
      if (q.valid()) net->engine(NodeId{3}).release_app_qubit(q);
    };
    net->engine(NodeId{3}).register_endpoint(EndpointId{2}, std::move(th));
  }

  qnp::AppRequest keep(std::uint64_t pairs) {
    qnp::AppRequest req;
    req.id = RequestId{next_id++};
    req.head_endpoint = EndpointId{1};
    req.tail_endpoint = EndpointId{2};
    req.type = netmsg::RequestType::keep;
    req.num_pairs = pairs;
    req.delta_t = 1_s;
    return req;
  }
};

EngineFixture& engine_fixture() {
  static EngineFixture f;
  return f;
}

}  // namespace

static void BM_EngineSubmitAndComplete(benchmark::State& state) {
  // End-to-end engine hot path: submit a 1-pair KEEP request and
  // dispatch DES events until the completion callback fires (EGP
  // generation, swap, track, delivery, flow-table retirement).
  auto& f = engine_fixture();
  for (auto _ : state) {
    f.completed = false;
    const bool ok = f.head->submit_request(f.circuit, f.keep(1));
    std::size_t guard = 0;
    des::Simulator& loop = f.net->node_sim(NodeId{1});
    while (ok && !f.completed && loop.events_pending() > 0 &&
           ++guard < 2000000) {
      loop.step();
    }
    benchmark::DoNotOptimize(f.completed);
  }
}
BENCHMARK(BM_EngineSubmitAndComplete);

static void BM_EngineSubmitPoliced(benchmark::State& state) {
  // The synchronous admission path alone: a demand far beyond the
  // circuit's rate with a hard deadline is policed (rejected) inside
  // submit_request, no DES events involved.
  auto& f = engine_fixture();
  for (auto _ : state) {
    qnp::AppRequest req = f.keep(1000000);
    req.delta_t = Duration::ms(1);
    req.deadline = Duration::ms(1);
    benchmark::DoNotOptimize(f.head->submit_request(f.circuit, req));
  }
}
BENCHMARK(BM_EngineSubmitPoliced);

static void BM_EngineKeepaliveOnMessage(benchmark::State& state) {
  // Classical receive path: codec round trip + engine dispatch of a
  // message the flow table ignores (keepalive chatter).
  auto& f = engine_fixture();
  for (auto _ : state) {
    f.net->classical().send(NodeId{1}, NodeId{2},
                            netmsg::KeepaliveMsg{f.circuit});
    f.net->sharded_sim().run_until(f.net->sharded_sim().now() + 1_ms);
  }
}
BENCHMARK(BM_EngineKeepaliveOnMessage);

static void BM_EngineOccupancyConsistency(benchmark::State& state) {
  // The engine's bookkeeping scans: occupancy counters plus the full
  // internal consistency audit over its record tables.
  auto& f = engine_fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.head->occupancy().live);
    benchmark::DoNotOptimize(f.head->consistency_check().size());
  }
}
BENCHMARK(BM_EngineOccupancyConsistency);

BENCHMARK_MAIN();
