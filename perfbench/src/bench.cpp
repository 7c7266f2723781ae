#include "bench.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <sstream>

#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

thread_local Span* t_open_span = nullptr;

/// Sets the affinity of every thread of the process: those it already runs
/// (listed in /proc/self/task) and, through the calling thread's mask,
/// those it starts later.
void set_process_affinity(const cpu_set_t& set) {
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) (void)sched_setaffinity(tid, sizeof set, &set);
    }
    closedir(dir);
  }
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Where the crypto probe leaves its results, so no call can be elided.
volatile std::uint8_t g_sink = 0;

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

cpu_set_t cpu_set_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return set;
}

/// Seconds a fixed, memory-bound loop takes on the CPU the calling thread
/// runs on: the best of three passes of dependent loads and stores over a
/// 64 KiB buffer of the benchmark's own.
double memory_probe_s() {
  static std::uint64_t buf[8192];
  double best = 1e9;
  for (int pass = 0; pass < 3; ++pass) {
    const auto t0 = Clock::now();
    std::uint64_t h = 1;
    for (std::size_t i = 0; i < 40'000; ++i) {
      h = h * 6364136223846793005ULL + buf[(h >> 20) & 8191];
      buf[i & 8191] ^= h;
    }
    best = std::min(best, since(t0));
  }
  g_sink = static_cast<std::uint8_t>(buf[0]);
  return best;
}

/// The CPUs the process may use, fastest first by memory_probe_s(), and
/// the process pinned to the fastest: see SetupClock.
struct CpuRanking {
  std::vector<int> allowed;
  std::vector<int> by_speed;
};

CpuRanking rank_cpus() {
  CpuRanking r;
  r.allowed = allowed_cpus();
  std::vector<std::pair<double, int>> speed;
  for (const int c : r.allowed) {
    set_process_affinity(cpu_set_of({c}));
    speed.emplace_back(memory_probe_s(), c);
  }
  std::sort(speed.begin(), speed.end());
  for (const auto& [s, c] : speed) r.by_speed.push_back(c);
  if (!r.by_speed.empty()) set_process_affinity(cpu_set_of({r.by_speed[0]}));
  return r;
}

// Initialised in this order, so the process starts its clock on the CPU
// the ranking chose. Static initialisation order across translation units
// is unspecified; the main translation unit reads process_start() first
// thing, which fixes both no later than main's entry.
const CpuRanking g_cpus = rank_cpus();
const Clock::time_point g_start = Clock::now();

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Clock::time_point process_start() { return g_start; }

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

std::vector<std::string> Report::metric_names() const {
  std::vector<std::string> names;
  for (const Metric& m : metrics_) names.push_back(m.name);
  return names;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    out << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double round_time(std::vector<double> seconds) {
  return percentile(std::move(seconds), kRoundPercentile);
}

void report_end_to_end(Report& report, double setup_s,
                       const std::vector<RoundSample>& rounds) {
  std::vector<double> wall, cpu, rate;
  for (const RoundSample& r : rounds) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    rate.push_back(r.handshakes / r.wall_s);
  }
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", round_time(wall), "s");
  report.metric("cpu_s", round_time(cpu), "s");
  report.metric("handshakes_per_s", percentile(rate, 100 - kRoundPercentile),
                "1/s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

SetupClock::SetupClock(int width) {
  const auto n = std::min(static_cast<std::size_t>(std::max(width, 1)),
                          g_cpus.by_speed.size());
  if (n > 1) {
    set_process_affinity(cpu_set_of(std::vector<int>(
        g_cpus.by_speed.begin(),
        g_cpus.by_speed.begin() + static_cast<std::ptrdiff_t>(n))));
  }
}

SetupClock::~SetupClock() { release(); }

double SetupClock::stop() {
  const double setup_s = since(process_start());
  release();
  return setup_s;
}

void SetupClock::release() {
  if (released_) return;
  released_ = true;
  if (!g_cpus.allowed.empty()) set_process_affinity(cpu_set_of(g_cpus.allowed));
}

CpuRotation::CpuRotation(int width)
    : cpus_(allowed_cpus()), width_(static_cast<std::size_t>(width)) {
  width_ = std::min(width_, cpus_.size());
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) set_process_affinity(cpu_set_of(cpus_));
}

void CpuRotation::next() {
  if (width_ == 0) return;
  std::vector<int> window;
  for (std::size_t i = 0; i < width_; ++i) {
    window.push_back(cpus_[(at_ + i) % cpus_.size()]);
  }
  at_ = (at_ + 1) % cpus_.size();
  set_process_affinity(cpu_set_of(window));
}

Span::Span(Ledger& ledger, Layer layer)
    : stat_(ledger[layer]), parent_(t_open_span), t0_(Clock::now()) {
  t_open_span = this;
}

Span::~Span() {
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  ++stat_.calls;
  stat_.total_ns += ns;
  stat_.child_ns += child_ns_;
  if (parent_) parent_->child_ns_ += ns;
  t_open_span = parent_;
}

void probe_crypto(Ledger& ledger, std::uint64_t seed, int n) {
  const auto secret = tcpz::crypto::SecretKey::from_seed(seed);
  tcpz::Rng rng(seed);
  std::uint8_t msg[43];  // the pre-image message length
  std::uint8_t block[64];
  tcpz::crypto::Sha256::State state = tcpz::crypto::Sha256::initial_state();
  for (int i = 0; i < n; ++i) {
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    {
      const Span span(ledger, Layer::kCryptoHmac);
      g_sink = secret.hmac().mac(std::span<const std::uint8_t>(msg, sizeof msg))[0];
    }
    {
      const Span span(ledger, Layer::kCryptoSha256Block);
      tcpz::crypto::Sha256::compress(state, block);
    }
  }
  g_sink = static_cast<std::uint8_t>(state[0]);
}

void report_ledger(Report& report, const Ledger& l) {
  report.metric("tcp.listener.syn_ns", l[Layer::kListenerSyn].self_ns(), "ns");
  report.metric("tcp.listener.solution_ack_ns",
                l[Layer::kListenerSolutionAck].self_ns(), "ns");
  report.metric("tcp.listener.bogus_ack_ns",
                l[Layer::kListenerBogusAck].self_ns(), "ns");
  report.metric("tcp.listener.tick_ns", l[Layer::kListenerTick].self_ns(),
                "ns");
  report.metric("tcp.listener.accept_ns", l[Layer::kListenerAccept].self_ns(),
                "ns");
  report.metric("defense.on_syn_ns", l[Layer::kDefenseSyn].self_ns(), "ns");
  report.metric("defense.on_ack_ns", l[Layer::kDefenseAck].self_ns(), "ns");
  report.metric("defense.on_tick_ns", l[Layer::kDefenseTick].self_ns(), "ns");
  report.metric("puzzle.make_challenge_ns",
                l[Layer::kPuzzleMakeChallenge].self_ns(), "ns");
  report.metric("puzzle.verify_ns", l[Layer::kPuzzleVerify].self_ns(), "ns");
  report.metric("puzzle.solve_us", l[Layer::kPuzzleSolve].self_ns() / 1e3,
                "us");
  report.metric("crypto.hmac_ns", l[Layer::kCryptoHmac].self_ns(), "ns");
  report.metric("crypto.sha256_block_ns",
                l[Layer::kCryptoSha256Block].self_ns(), "ns");
  report.metric("tcp.wire_format.encode_ns", l[Layer::kWireEncode].self_ns(),
                "ns");
  report.metric("tcp.wire_format.decode_ns", l[Layer::kWireDecode].self_ns(),
                "ns");
}

}  // namespace perfbench
