// Shared plumbing of the perfbench workloads: options, the result report,
// host timers, and the span ledger the traced runs record into.
//
// Tracing is the benchmark's own: spans wrap the benchmark's calls into a
// layer (listener entry points, wire codec, crypto) and the timing
// decorators below wrap the defense policy and the puzzle engine the
// listener is built with. A span that starts while another is open on the
// same thread is its child; a layer's self time is its total time minus
// the time of its children. Untraced runs construct no span and install no
// decorator, so their timings carry none of this.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "defense/policy.hpp"
#include "puzzle/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Wall seconds elapsed since `t0`.
[[nodiscard]] inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
/// User + system CPU seconds of the whole process.
[[nodiscard]] double process_cpu_s();
/// CPU seconds of the calling thread.
[[nodiscard]] double thread_cpu_s();
/// Peak resident set of the process, in MB.
[[nodiscard]] double peak_rss_mb();
/// The time the process started its static initialisation, right after
/// choosing its CPU (see SetupClock) — the origin of every workload's cold
/// set-up time.
[[nodiscard]] Clock::time_point process_start();
/// Heap allocations made by the calling thread so far.
[[nodiscard]] std::uint64_t thread_allocs();

/// Times a workload's cold set-up, from the start of the process to
/// stop(), on the fastest CPUs of the moment. A shared host slows each CPU
/// by up to half, for seconds at a time, depending on what its neighbours
/// run there, and a set-up of a millisecond or less reads whichever CPU it
/// landed on. So, at static initialisation and before it starts its clock,
/// the process times a short memory-bound loop of the benchmark's own
/// (a few milliseconds in all, touching none of the program's code or
/// data) on every CPU it may use and pins itself to the fastest.
/// Constructing a SetupClock widens the pin to the fastest `width` CPUs,
/// one per thread the set-up keeps busy; stop(), or destruction, gives
/// every thread of the process all its CPUs back.
class SetupClock {
 public:
  explicit SetupClock(int width);
  ~SetupClock();
  SetupClock(const SetupClock&) = delete;
  SetupClock& operator=(const SetupClock&) = delete;
  /// Seconds from the process's start to now; releases the pin. Call
  /// once, as soon as the set-up is done.
  [[nodiscard]] double stop();

 private:
  void release();
  bool released_ = false;
};

/// What one run prints: correctness, the legitimate operations attempted
/// and failed, and the metrics.
class Report {
 public:
  /// Records a correctness check; a failed one is explained on stderr and
  /// clears `correct`.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::vector<std::string> metric_names() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One fixed unit of work of a workload, as measured.
struct RoundSample {
  double wall_s = 0;
  double cpu_s = 0;
  double handshakes = 0;  ///< established by the server side in the round
};

/// Moves every thread of the process, and every thread it starts while
/// moved, from one window of `width` CPUs to the next, over the CPUs the
/// process may use. On a shared host each CPU's speed depends on what its
/// neighbours run there, often for tens of seconds, and the scheduler
/// keeps a busy thread where it is; rotating round by round lets each run
/// see every CPU, so its fastest rounds no longer depend on where it
/// happened to start. Restores the original affinity on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Moves to the next window.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t width_;
  std::size_t at_ = 0;
};

/// Repeats `round` (returning a RoundSample) until `seconds` of wall time
/// have passed, and at least three times: every run measures whole rounds
/// of the same work. Each round runs on the next window of
/// `cpus_per_round` CPUs (see CpuRotation).
template <typename F>
[[nodiscard]] std::vector<RoundSample> measure_rounds(double seconds,
                                                      int cpus_per_round,
                                                      F&& round) {
  std::vector<RoundSample> rounds;
  CpuRotation rotation(cpus_per_round);
  const auto t0 = Clock::now();
  do {
    rotation.next();
    rounds.push_back(round());
  } while (rounds.size() < 3 || since(t0) < seconds);
  return rounds;
}

/// The percentile of round times the end-to-end figures are read at. A
/// shared host lends each CPU at a speed that swings by up to half with
/// its neighbours' load (SHA-256 throughput most of all), in phases of
/// seconds, so the median of a run's rounds reads whichever phase filled
/// most of the run. The fastest tenth of the rounds, taken over every CPU
/// (see CpuRotation), is the program's speed on a core the host lends in
/// full, and a run of 10 s or more holds enough such rounds to read it.
/// Rates are read at the mirrored percentile.
inline constexpr double kRoundPercentile = 10;

/// A run's round times read at kRoundPercentile.
[[nodiscard]] double round_time(std::vector<double> seconds);

/// Emits the five end-to-end metrics from a cold set-up time and the
/// measured rounds: per-round wall and CPU time at kRoundPercentile, and
/// handshake rate at the mirrored percentile.
void report_end_to_end(Report& report, double setup_s,
                       const std::vector<RoundSample>& rounds);

// -- span ledger -------------------------------------------------------------

enum class Layer : int {
  kListenerSyn,
  kListenerSolutionAck,
  kListenerBogusAck,
  kListenerTick,
  kListenerAccept,
  kDefenseSyn,
  kDefenseAck,
  kDefenseTick,
  kPuzzleMakeChallenge,
  kPuzzleVerify,
  kPuzzleSolve,
  kCryptoHmac,
  kCryptoSha256Block,
  kWireEncode,
  kWireDecode,
  kCount,
};

struct LayerStat {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t child_ns = 0;
  /// Self time per call in ns (0 when never called).
  [[nodiscard]] double self_ns() const {
    return calls ? static_cast<double>(total_ns - child_ns) /
                       static_cast<double>(calls)
                 : 0.0;
  }
};

/// Per-layer accumulators. A ledger is written by one thread at a time;
/// another thread reads it only after joining the writer.
struct Ledger {
  std::array<LayerStat, static_cast<int>(Layer::kCount)> at{};
  LayerStat& operator[](Layer l) { return at[static_cast<int>(l)]; }
  const LayerStat& operator[](Layer l) const {
    return at[static_cast<int>(l)];
  }
};

/// RAII span: charges its duration to `ledger[layer]` and to the enclosing
/// span of the same thread, if any, as child time.
class Span {
 public:
  Span(Ledger& ledger, Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerStat& stat_;
  Span* parent_;
  std::int64_t child_ns_ = 0;
  Clock::time_point t0_;
};

/// Times a DefensePolicy's three decision points.
class TimedPolicy final : public tcpz::defense::DefensePolicy {
 public:
  TimedPolicy(std::unique_ptr<tcpz::defense::DefensePolicy> inner,
              Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void observe(tcpz::SimTime now, const tcpz::defense::QueueView& q) override {
    inner_->observe(now, q);
  }
  [[nodiscard]] tcpz::defense::SynDecision on_syn(
      tcpz::SimTime now, const tcpz::defense::QueueView& q) override {
    const Span span(*ledger_, Layer::kDefenseSyn);
    return inner_->on_syn(now, q);
  }
  [[nodiscard]] tcpz::defense::AckDecision on_ack(
      tcpz::SimTime now, const tcpz::defense::QueueView& q) const override {
    const Span span(*ledger_, Layer::kDefenseAck);
    return inner_->on_ack(now, q);
  }
  [[nodiscard]] tcpz::defense::TickDecision on_tick(
      tcpz::SimTime now, const tcpz::defense::QueueView& q,
      const tcpz::tcp::ListenerCounters& counters) override {
    const Span span(*ledger_, Layer::kDefenseTick);
    return inner_->on_tick(now, q, counters);
  }
  [[nodiscard]] bool protection_active(
      const tcpz::defense::QueueView& q) const override {
    return inner_->protection_active(q);
  }
  [[nodiscard]] bool requires_engine() const override {
    return inner_->requires_engine();
  }

 private:
  std::unique_ptr<tcpz::defense::DefensePolicy> inner_;
  Ledger* ledger_;
};

/// Times a PuzzleEngine's challenge minting, solving and verification.
class TimedEngine final : public tcpz::puzzle::PuzzleEngine {
 public:
  TimedEngine(std::shared_ptr<const tcpz::puzzle::PuzzleEngine> inner,
              Ledger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}
  [[nodiscard]] tcpz::puzzle::Challenge make_challenge(
      const tcpz::puzzle::FlowBinding& flow, std::uint32_t ts,
      tcpz::puzzle::Difficulty diff) const override {
    const Span span(*ledger_, Layer::kPuzzleMakeChallenge);
    return inner_->make_challenge(flow, ts, diff);
  }
  [[nodiscard]] tcpz::puzzle::Solution solve(
      const tcpz::puzzle::Challenge& c, const tcpz::puzzle::FlowBinding& flow,
      tcpz::Rng& rng, std::uint64_t& hash_ops) const override {
    const Span span(*ledger_, Layer::kPuzzleSolve);
    return inner_->solve(c, flow, rng, hash_ops);
  }
  [[nodiscard]] tcpz::puzzle::VerifyOutcome verify(
      const tcpz::puzzle::FlowBinding& flow,
      const tcpz::puzzle::Solution& solution, tcpz::puzzle::Difficulty diff,
      std::uint32_t now_ms) const override {
    const Span span(*ledger_, Layer::kPuzzleVerify);
    return inner_->verify(flow, solution, diff, now_ms);
  }
  [[nodiscard]] const tcpz::puzzle::EngineConfig& config() const override {
    return inner_->config();
  }

 private:
  std::shared_ptr<const tcpz::puzzle::PuzzleEngine> inner_;
  Ledger* ledger_;
};

/// Times the crypto layer on its own: `n` HMACs under `secret` over
/// pre-image-shaped messages and `n` SHA-256 compressions, each call a span
/// of the benchmark's own.
void probe_crypto(Ledger& ledger, std::uint64_t seed, int n);

/// Emits every per-layer metric of the ledger-backed groups (listener self
/// times, defense, puzzle, crypto, wire codec). Layers the workload never
/// entered read 0.
void report_ledger(Report& report, const Ledger& ledger);

// -- workloads ---------------------------------------------------------------

void run_sim_flood(const Options& opt, Report& report);
void run_server_path(const Options& opt, Report& report);
void run_wire_storm(const Options& opt, Report& report);
void run_fleet_sharded(const Options& opt, Report& report);

}  // namespace perfbench
