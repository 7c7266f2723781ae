#include "sim_checks.hpp"

#include <algorithm>
#include <iostream>

namespace perfbench {

using tcpz::scenario::Result;
using tcpz::scenario::Spec;

LegitTally legit_tally(const Result& res) {
  LegitTally t;
  for (const auto& c : res.clients) {
    t.attempted += c.total_attempts;
    t.failed += c.total_failures + c.solves_refused;
  }
  return t;
}

double solve_capacity(const Spec& spec, double extra_s) {
  const double per_solution = spec.servers.difficulty.expected_solve_hashes();
  double capacity = 0;
  for (const auto& g : spec.attacks) {
    if (g.strategy.kind != tcpz::offense::StrategySpec::Kind::kConnFlood ||
        !g.strategy.patched) {
      continue;
    }
    const tcpz::SimTime start = g.start.value_or(spec.attack_start);
    const tcpz::SimTime end = g.end.value_or(spec.attack_end);
    capacity += g.count * g.cpu.cores * g.cpu.hash_rate *
                ((end - start).to_seconds() + extra_s) / per_solution;
  }
  return capacity;
}

void check_sim_result(Report& report, const Spec& spec, const Result& res,
                      const std::string& label) {
  double attacker_est = 0;
  for (const auto& s : res.servers) {
    for (double b : s.established_attacker.raw_bins()) attacker_est += b;
  }
  // Slack: solutions to challenges received before a group stops may land
  // up to one puzzle lifetime later, so allow one expiry window of solving
  // past each attack window, and 10% for the sampled per-solve work.
  const double capacity =
      solve_capacity(spec, spec.servers.puzzle_expiry_ms / 1000.0) * 1.10;
  const double free_path = static_cast<double>(
      res.cluster.established_queue + res.cluster.established_cookie);
  report.check(attacker_est <= capacity + free_path,
               label + ": attacker handshakes " + std::to_string(attacker_est) +
                   " exceed solve capacity " + std::to_string(capacity) +
                   " + free-path admissions " + std::to_string(free_path));

  // Agents count a handshake when they send its final ACK, the server when
  // that ACK is admitted. The difference is the final ACKs the server
  // rejected (each in a counter: a solution past the rotation overlap, an
  // expired or wrong one, a replay, or an accept queue full) plus those
  // still on the wire at the end. The attack windows end before the run
  // does, so then only legitimate clients are active, each with at most one
  // final ACK in flight at their request rates.
  const auto& k = res.cluster;
  const std::uint64_t rejected =
      k.solutions_bad_ackno + k.solutions_expired + k.solutions_invalid +
      k.solutions_duplicate + k.solutions_replay_filtered +
      k.acks_ignored_accept_full;
  std::uint64_t agents = 0;
  for (const auto& c : res.clients) agents += c.total_established;
  for (const auto& g : res.groups) agents += g.total_established();
  const std::uint64_t server = k.established_total;
  report.check(agents >= server + rejected &&
                   agents - server - rejected <= res.clients.size(),
               label + ": server established " + std::to_string(server) +
                   " + rejected final ACKs " + std::to_string(rejected) +
                   " vs agents' tallies " + std::to_string(agents));
  std::cerr << label << ": established server=" << server
            << " rejected=" << rejected << " agents=" << agents
            << " attacker=" << attacker_est << " solve_capacity=" << capacity
            << " free_path=" << free_path << "\n";
}

void report_listener_counts(Report& report, const Result& res) {
  const auto& c = res.cluster;
  report.metric("tcp.listener.syns_received",
                static_cast<double>(c.syns_received), "count");
  report.metric("tcp.listener.challenges_sent",
                static_cast<double>(c.challenges_sent), "count");
  report.metric("tcp.listener.solutions_valid",
                static_cast<double>(c.solutions_valid), "count");
  report.metric("tcp.listener.synack_retx", static_cast<double>(c.synack_retx),
                "count");
  double peak = 0;
  for (const auto& s : res.servers) {
    peak = std::max(peak, s.listen_queue.max_in(tcpz::SimTime::zero(),
                                                tcpz::SimTime::seconds(1'000'000)));
  }
  report.metric("tcp.listener.half_open_peak", peak, "count");
}

}  // namespace perfbench
