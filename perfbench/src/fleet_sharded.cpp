// fleet_sharded — the scale path: a 4-replica DSR fleet sharing a rotating
// puzzle secret and a replay cache, serving a 1M-user hybrid fluid
// population through two 1000-bot hordes (a spoofed-SYN flood and a patched
// connection flood), run on par::run with 2 shards. The only workload where
// the sharded engine, the load balancer and the fluid model do work, and
// the only one where the listener admits aggregate fluid mass.
//
// A round is one par::run of the spec. The cold set-up is a first run of
// the same spec over zero simulated time.
#include <cmath>
#include <iostream>

#include "bench.hpp"
#include "par/engine.hpp"
#include "sim_checks.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using tcpz::SimTime;
namespace scenario = tcpz::scenario;

constexpr int kShards = 2;

scenario::Spec fleet_spec(std::uint64_t seed) {
  scenario::Spec s;
  s.seed = seed;
  // WAN-scale links give the conservative lookahead room: rounds are
  // duration / 5 ms, so barrier cost stays small next to event work.
  s.net.link_delay = SimTime::milliseconds(5);
  s.duration = SimTime::seconds(6);
  s.attack_start = SimTime::seconds(1);
  s.attack_end = SimTime::seconds(5);
  s.workload.model = tcpz::workload::ModelSpec::hybrid(1'000'000, 1e-3);
  s.workload.model->request_rate = 5e-3;
  s.workload.request_rate = 5e-3;
  s.servers.count = 4;
  s.servers.policies = {tcpz::defense::PolicySpec::puzzles()};
  s.servers.n_workers = 8192;
  s.servers.service_rate = 8800.0;
  s.fleet.enabled = true;
  s.fleet.divide_capacity = false;
  s.fleet.rotation_interval = SimTime::milliseconds(1500);
  s.fleet.rotation_overlap = SimTime::seconds(1);
  s.fleet.shared_replay_cache = true;
  scenario::AttackSpec syn;
  syn.name = "syn_horde";
  syn.count = 1000;
  syn.rate = 40.0;
  syn.strategy = tcpz::offense::StrategySpec::syn_flood();
  scenario::AttackSpec conn;
  conn.name = "conn_horde";
  conn.count = 1000;
  conn.rate = 40.0;
  conn.strategy = tcpz::offense::StrategySpec::conn_flood(/*patched=*/true);
  // Solvers join after the spoofed flood has latched protection on.
  conn.start = SimTime::seconds(2);
  s.attacks = {syn, conn};
  return s;
}

RoundSample timed_run(const scenario::Spec& spec, int shards,
                      scenario::Result& out) {
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  out = tcpz::par::run(spec, {.shards = shards});
  return {since(t0), process_cpu_s() - cpu0,
          static_cast<double>(out.cluster.established_total)};
}

}  // namespace

void run_fleet_sharded(const Options& opt, Report& report) {
  SetupClock setup_clock(kShards);
  const scenario::Spec spec = fleet_spec(opt.seed);
  scenario::Spec empty = spec;
  empty.duration = SimTime::zero();
  (void)tcpz::par::run(empty, {.shards = kShards});
  const double setup_s = setup_clock.stop();

  scenario::Result first;
  std::uint64_t n_rounds = 0;
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto rounds = measure_rounds(measure_s, kShards, [&] {
    scenario::Result r;
    const RoundSample s = timed_run(spec, kShards, r);
    if (n_rounds++ == 0) {
      first = std::move(r);
    } else {
      // A fixed (seed, shards) pair is deterministic.
      report.check(r.events_processed == first.events_processed &&
                       r.cluster.established_total ==
                           first.cluster.established_total,
                   "fleet_sharded rounds diverged on a fixed seed");
    }
    return s;
  });

  // The same spec on one shard: the sharded result must agree within the
  // tolerances the parallel engine's own tests hold it to.
  scenario::Result single;
  const RoundSample one = timed_run(spec, 1, single);

  check_sim_result(report, spec, first, "fleet_sharded");
  const LegitTally legit = legit_tally(first);
  report.count_ops(legit.attempted * n_rounds, legit.failed * n_rounds);
  for (std::size_t g = 0; g < spec.attacks.size(); ++g) {
    const auto a1 = static_cast<double>(single.groups[g].total_attempts());
    const auto a2 = static_cast<double>(first.groups[g].total_attempts());
    report.check(a1 > 0 && std::fabs(a2 / a1 - 1.0) <= 0.05,
                 "fleet_sharded: horde attempts differ from the 1-shard run");
  }
  const std::size_t bins = spec.duration_bins();
  report.check(std::fabs(single.client_success_pct(0, bins) -
                         first.client_success_pct(0, bins)) <= 10.0,
               "fleet_sharded: client success differs from the 1-shard run");
  const auto e1 = static_cast<double>(single.cluster.established_total);
  const auto e2 = static_cast<double>(first.cluster.established_total);
  report.check(e1 > 0 && std::fabs(e2 / e1 - 1.0) <= 0.15,
               "fleet_sharded: established differs from the 1-shard run");

  // Secret rotations follow the spec's cadence exactly: one at every
  // multiple of the interval strictly inside the run.
  const auto expected_rotations = static_cast<std::uint64_t>(
      (spec.duration.nanos() - 1) / spec.fleet.rotation_interval.nanos());
  report.check(first.secret_rotations == expected_rotations,
               "fleet_sharded: " + std::to_string(first.secret_rotations) +
                   " secret rotations, expected " +
                   std::to_string(expected_rotations));

  // The fluid ledger: every user created is completed, failed, refused or
  // still pooled. Pools hold no negative mass, and at most the demand of
  // one response timeout plus the SYN retries at 1, 2 and 4 s.
  std::uint64_t created = 0, done = 0;
  for (const auto& f : first.fluid) {
    created += f.total_attempts;
    done += f.total_completions + f.total_failures + f.solves_refused;
  }
  const auto& model = *spec.workload.model;
  const double pool_bound =
      static_cast<double>(model.fluid_users()) * model.request_rate *
      (spec.workload.response_timeout.to_seconds() + 1 + 2 + 4);
  report.check(created > 0 && done <= created &&
                   static_cast<double>(created - done) <= pool_bound,
               "fleet_sharded: fluid ledger does not balance: created " +
                   std::to_string(created) + ", completed + failed + refused " +
                   std::to_string(done));
  std::cerr << "fleet_sharded: fluid created=" << created << " settled=" << done
            << " rotations=" << first.secret_rotations
            << " wall_2shards=" << rounds.front().wall_s
            << " wall_1shard=" << one.wall_s << "\n";

  if (!opt.trace) {
    report_end_to_end(report, setup_s, rounds);
    return;
  }
  std::vector<double> wall, cpu;
  for (const RoundSample& r : rounds) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
  }
  const double wall2 = round_time(wall);
  report.metric("trace.wall_s", wall2, "s");
  report.metric("par.speedup", one.wall_s / wall2, "x");
  report.metric("par.event_ratio",
                static_cast<double>(first.events_processed) /
                    static_cast<double>(single.events_processed),
                "x");
  report.metric("par.cpu_per_wall", round_time(cpu) / wall2, "x");
  report.metric("net.events", static_cast<double>(first.events_processed),
                "count");
  report.metric("net.ns_per_event",
                wall2 * 1e9 / static_cast<double>(first.events_processed), "ns");
  std::uint64_t dispatched = 0;
  for (const auto& b : first.lb.backends) dispatched += b.dispatched_packets;
  report.metric("fleet.dispatched_packets", static_cast<double>(dispatched),
                "count");
  report.metric("fleet.secret_rotations",
                static_cast<double>(first.secret_rotations), "count");
  report.metric("fleet.replay_cache_hits",
                static_cast<double>(first.replay_cache_hits), "count");
  report.metric("workload.fluid_established",
                static_cast<double>(first.cluster.fluid_established), "count");
  report_listener_counts(report, first);
  Ledger ledger;
  probe_crypto(ledger, opt.seed, 100'000);
  report_ledger(report, ledger);
}

}  // namespace perfbench
