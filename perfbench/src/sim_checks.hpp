// Correctness checks and counter reports shared by the simulated workloads
// (sim_flood on scenario::Engine, fleet_sharded on par::run).
#pragma once

#include <string>

#include "bench.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

/// Legitimate discrete-client connection attempts of one run and how many
/// of them failed (timed out, reset, or refused before reaching the wire).
struct LegitTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
[[nodiscard]] LegitTally legit_tally(const tcpz::scenario::Result& res);

/// The botnet's solve capacity in handshakes, from the spec alone: for each
/// patched connection-flood group, bots x cores x hash rate x (attack window
/// + extra_s) / k*2^(m-1) — the paper's rate-limiting bound (§4.1).
[[nodiscard]] double solve_capacity(const tcpz::scenario::Spec& spec,
                                    double extra_s);

/// Checks that hold for any simulated run of `spec`:
///  * attacker handshakes admitted through puzzles stay within the solve
///    capacity (plus what the plain queue path admitted before protection
///    engaged, which costs no solving);
///  * server-side established_total agrees with the agents' own tallies up
///    to handshakes still in flight when the run ended.
void check_sim_result(Report& report, const tcpz::scenario::Spec& spec,
                      const tcpz::scenario::Result& res,
                      const std::string& label);

/// tcp.listener.* counts of a simulated run, summed over servers.
void report_listener_counts(Report& report, const tcpz::scenario::Result& res);

}  // namespace perfbench
