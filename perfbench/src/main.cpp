// perfbench — one command for every workload of the tcpz benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, every name in kPerLayer (layers the workload never enters read 0).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

/// Per-layer metrics every traced run prints (see README.md for the layer
/// each belongs to and the end-to-end metric it should move).
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"scenario.step_p50_ms", "ms"},
    {"scenario.step_p90_ms", "ms"},
    {"net.events", "count"},
    {"net.ns_per_event", "ns"},
    {"tcp.listener.syn_ns", "ns"},
    {"tcp.listener.solution_ack_ns", "ns"},
    {"tcp.listener.bogus_ack_ns", "ns"},
    {"tcp.listener.tick_ns", "ns"},
    {"tcp.listener.accept_ns", "ns"},
    {"tcp.listener.allocs_per_segment", "allocs/segment"},
    {"tcp.listener.syns_received", "count"},
    {"tcp.listener.challenges_sent", "count"},
    {"tcp.listener.solutions_valid", "count"},
    {"tcp.listener.synack_retx", "count"},
    {"tcp.listener.half_open_peak", "count"},
    {"defense.on_syn_ns", "ns"},
    {"defense.on_ack_ns", "ns"},
    {"defense.on_tick_ns", "ns"},
    {"puzzle.make_challenge_ns", "ns"},
    {"puzzle.verify_ns", "ns"},
    {"puzzle.solve_us", "us"},
    {"crypto.hmac_ns", "ns"},
    {"crypto.sha256_block_ns", "ns"},
    {"wire.connect_p50_ms", "ms"},
    {"wire.connect_p99_ms", "ms"},
    {"wire.rx_per_wakeup", "datagrams"},
    {"wire.datagrams_per_handshake", "datagrams"},
    {"wire.host_cpu_us_per_handshake", "us"},
    {"tcp.wire_format.encode_ns", "ns"},
    {"tcp.wire_format.decode_ns", "ns"},
    {"par.speedup", "x"},
    {"par.event_ratio", "x"},
    {"par.cpu_per_wall", "x"},
    {"fleet.dispatched_packets", "count"},
    {"fleet.secret_rotations", "count"},
    {"fleet.replay_cache_hits", "count"},
    {"workload.fluid_established", "count"},
    {"obs.traced_wall_ratio", "x"},
    {"trace.wall_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <sim_flood|server_path|"
               "wire_storm|fleet_sharded> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  std::exit(2);
}

}  // namespace

// Counting allocator: each thread counts its own allocations, so a span on
// one thread can attribute heap traffic to the calls it wraps without any
// cross-thread synchronisation.
void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t perfbench::thread_allocs() { return t_allocs; }

int main(int argc, char** argv) {
  (void)perfbench::process_start();
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !(opt.seconds > 0)) usage("--seed and --seconds > 0 needed");

  perfbench::Report report;
  try {
    if (opt.workload == "sim_flood") {
      perfbench::run_sim_flood(opt, report);
    } else if (opt.workload == "server_path") {
      perfbench::run_server_path(opt, report);
    } else if (opt.workload == "wire_storm") {
      perfbench::run_wire_storm(opt, report);
    } else if (opt.workload == "fleet_sharded") {
      perfbench::run_fleet_sharded(opt, report);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (opt.trace) {
    std::set<std::string> have;
    for (const auto& name : report.metric_names()) have.insert(name);
    for (const auto& [name, unit] : kPerLayer) {
      if (!have.contains(name)) report.metric(name, 0.0, unit);
    }
  }
  std::cout << report.json() << std::endl;
  return 0;
}
