// sim_flood — the paper's core experiment at production scale on the
// single-threaded scenario::Engine: one puzzle-protected server on the
// Fig. 16 topology, legitimate clients, and a mixed botnet of patched
// connection-flood solvers plus a spoofed-SYN flood. Every layer of the
// simulated stack works here: the event core and links move millions of
// events, the listener mints an HMAC per challenge, verifies every solution
// ACK and ticks over a listen queue the spoofed flood keeps full.
//
// One round is a fresh Engine run over the same spec (so every round does
// the same simulated work); the first construction is the cold set-up.
#include <iostream>

#include "bench.hpp"
#include "sim_checks.hpp"
#include "scenario/engine.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using tcpz::SimTime;
namespace scenario = tcpz::scenario;

constexpr SimTime kStep = SimTime::milliseconds(100);

scenario::Spec flood_spec(std::uint64_t seed) {
  scenario::Spec s;
  s.seed = seed;
  s.duration = SimTime::seconds(12);
  s.attack_start = SimTime::seconds(1);
  s.attack_end = SimTime::seconds(11);
  // Legitimate clients pace their requests within their solver capacity
  // (4 parallel searches of ~0.37 s each at the Nash difficulty), so no
  // legitimate attempt is refused or fails: every failure would be the
  // defense's fault.
  s.workload.n_clients = 40;
  s.workload.request_rate = 2.0;
  s.workload.cpu.solver_lanes = 4;
  s.workload.max_pending_solves = 16;
  // Production-scale server (8x the paper's testbed), as in the mega-botnet
  // bench: the worker pool out-drains the solver-pinned attacker admission,
  // so legitimate clients ride through the flood.
  s.servers.policies = {tcpz::defense::PolicySpec::puzzles()};
  s.servers.n_workers = 8192;
  s.servers.service_rate = 8800.0;
  s.servers.listen_backlog = 16'384;
  s.servers.accept_backlog = 4096;
  scenario::AttackSpec solvers;
  solvers.name = "conn_flood_patched";
  solvers.count = 40;
  solvers.strategy = tcpz::offense::StrategySpec::conn_flood(/*patched=*/true);
  // The solvers join once the spoofed flood has filled the listen queue and
  // latched protection on: every attacker handshake is then paid in hashes.
  solvers.start = SimTime::milliseconds(2500);
  scenario::AttackSpec spoofers;
  spoofers.name = "syn_flood";
  spoofers.count = 20;
  spoofers.rate = 1000.0;
  spoofers.strategy = tcpz::offense::StrategySpec::syn_flood();
  s.attacks = {solvers, spoofers};
  return s;
}

struct RoundOut {
  RoundSample sample;
  scenario::Result result;
  std::vector<double> step_ms;
};

/// Steps one constructed engine through the spec in 100 ms slices of
/// simulated time; `record_steps` keeps each slice's host time.
RoundOut drive(scenario::Engine& engine, const scenario::Spec& spec,
               bool record_steps) {
  RoundOut out;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (SimTime t = kStep; t <= spec.duration; t += kStep) {
    if (record_steps) {
      const auto s0 = Clock::now();
      engine.run_until(t);
      out.step_ms.push_back(since(s0) * 1e3);
    } else {
      engine.run_until(t);
    }
  }
  out.result = engine.collect();
  out.sample.wall_s = since(t0);
  out.sample.cpu_s = process_cpu_s() - cpu0;
  out.sample.handshakes =
      static_cast<double>(out.result.cluster.established_total);
  return out;
}

}  // namespace

void run_sim_flood(const Options& opt, Report& report) {
  SetupClock setup_clock(1);
  const scenario::Spec spec = flood_spec(opt.seed);

  auto cold = std::make_unique<scenario::Engine>(spec);
  const double setup_s = setup_clock.stop();
  RoundOut first = drive(*cold, spec, opt.trace);
  cold.reset();

  std::vector<double> step_ms = first.step_ms;
  std::vector<RoundSample> rounds = {first.sample};
  std::uint64_t n_rounds = 1;
  const auto more = measure_rounds(opt.seconds - first.sample.wall_s, 1, [&] {
    scenario::Engine engine(spec);
    RoundOut r = drive(engine, spec, opt.trace);
    step_ms.insert(step_ms.end(), r.step_ms.begin(), r.step_ms.end());
    ++n_rounds;
    // Same spec, same seed: every round must replay the first exactly.
    report.check(r.result.events_processed == first.result.events_processed &&
                     r.result.cluster.established_total ==
                         first.result.cluster.established_total,
                 "sim_flood rounds diverged on a fixed seed");
    return r.sample;
  });
  rounds.insert(rounds.end(), more.begin(), more.end());

  const scenario::Result& res = first.result;
  check_sim_result(report, spec, res, "sim_flood");
  const LegitTally legit = legit_tally(res);
  report.count_ops(legit.attempted * n_rounds, legit.failed * n_rounds);

  if (!opt.trace) {
    report_end_to_end(report, setup_s, rounds);
    return;
  }
  std::vector<double> wall;
  for (const RoundSample& r : rounds) wall.push_back(r.wall_s);
  const double wall_med = round_time(wall);
  report.metric("trace.wall_s", wall_med, "s");
  report.metric("scenario.step_p50_ms", percentile(step_ms, 50), "ms");
  report.metric("scenario.step_p90_ms", percentile(step_ms, 90), "ms");
  report.metric("net.events", static_cast<double>(res.events_processed),
                "count");
  report.metric("net.ns_per_event",
                wall_med * 1e9 / static_cast<double>(res.events_processed),
                "ns");
  report_listener_counts(report, res);

  // obs: the same scenario through scenario::run with the flight recorder
  // on and off, alternated so drift hits both sides alike.
  std::vector<double> on, off;
  for (int i = 0; i < 2; ++i) {
    scenario::Spec traced = spec;
    traced.obs.trace = true;
    auto t0 = Clock::now();
    (void)scenario::run(spec);
    off.push_back(since(t0));
    t0 = Clock::now();
    (void)scenario::run(traced);
    on.push_back(since(t0));
  }
  report.metric("obs.traced_wall_ratio", median(on) / median(off), "x");

  Ledger ledger;
  probe_crypto(ledger, opt.seed, 100'000);
  report_ledger(report, ledger);
}

}  // namespace perfbench
