// server_path — per-core handshake capacity of the paper's kernel path: one
// tcp::Listener running the opportunistic puzzle policy with the real
// Sha256PuzzleEngine, fed in-process with no event core, links or sockets.
//
// The input is an open-loop stream on the listener's own clock: after a
// burst of spoofed SYNs fills the listen queue (which latches protection
// on), slots arrive every 25 us in seeded blocks of ten — six spoofed SYNs,
// two legitimate handshakes whose challenges the client solves, and two
// bogus-solution attempts (a SYN, then an ACK with garbage solution bytes
// that binds the stateless ISS, so the listener pays the full verify). The
// maintenance tick runs every 100 ms and drains the accept queue.
//
// A preparation pass plays the stream once against a listener, solving
// each legitimate challenge as it arrives, and records every segment with
// its time. The listener is deterministic for a fixed secret and seed, so
// each measured round replays that recording against a fresh listener and
// must reproduce the same counters.
#include <algorithm>
#include <iostream>
#include <map>
#include <queue>

#include "bench.hpp"
#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "tcp/connector.hpp"
#include "tcp/listener.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using tcpz::SimTime;
namespace tcp = tcpz::tcp;
namespace puzzle = tcpz::puzzle;

constexpr std::uint32_t kServer = tcp::ipv4(10, 1, 0, 1);
constexpr std::size_t kBacklog = 1024;
constexpr puzzle::Difficulty kDifficulty{2, 8};
constexpr SimTime kStart = SimTime::seconds(1);
constexpr SimTime kSlot = SimTime::microseconds(25);
constexpr int kBlocks = 6000;  // 60k slots: 1.5 s of listener time
constexpr SimTime kTick = SimTime::milliseconds(100);
constexpr SimTime kSolveDelay = SimTime::milliseconds(20);
constexpr SimTime kBogusDelay = SimTime::milliseconds(5);

enum class Kind : std::uint8_t {
  kSpoofSyn,
  kLegitSyn,
  kBogusSyn,
  kSolutionAck,
  kBogusAck,
  kTick,
};

struct Input {
  SimTime at;
  Kind kind;
  tcp::Segment seg;
};

struct Tally {
  std::uint64_t syns = 0;
  std::uint64_t legit = 0;
  std::uint64_t bogus = 0;
  std::uint64_t warmup = 0;
};

tcp::ListenerConfig listener_config(Ledger* ledger) {
  tcp::ListenerConfig cfg;
  cfg.local_addr = kServer;
  cfg.listen_backlog = kBacklog;
  cfg.accept_backlog = kBacklog;
  cfg.difficulty = kDifficulty;
  const auto spec = tcpz::defense::PolicySpec::puzzles();
  if (ledger) {
    cfg.policy = [spec, ledger] {
      return std::make_unique<TimedPolicy>(spec.build(), ledger);
    };
  } else {
    cfg.policy = spec.factory();
  }
  return cfg;
}

struct Server {
  tcpz::crypto::SecretKey secret;
  std::shared_ptr<const puzzle::PuzzleEngine> engine;
  std::uint64_t seed;
  Ledger* ledger;

  [[nodiscard]] std::unique_ptr<tcp::Listener> make() const {
    return std::make_unique<tcp::Listener>(listener_config(ledger), secret,
                                           seed, engine);
  }
};

tcp::Segment spoofed_syn(tcpz::Rng& rng, SimTime now) {
  tcp::Segment s;
  s.saddr = static_cast<std::uint32_t>(rng.next());
  s.daddr = kServer;
  s.sport = static_cast<std::uint16_t>(1024 + rng.uniform_u64(60000));
  s.dport = 80;
  s.seq = static_cast<std::uint32_t>(rng.next());
  s.flags = tcp::kSyn;
  s.options.mss = 1460;
  s.options.wscale = 7;
  s.options.ts = tcp::TimestampsOption{
      static_cast<std::uint32_t>(now.nanos() / 1'000'000), 0};
  return s;
}

/// The preparation pass: plays the stream against `listener`, solving as a
/// client would, and returns the recorded schedule. Every challenge and
/// solution is re-checked with OpenSSL on the way.
std::vector<Input> record(const Server& server, tcp::Listener& listener,
                          std::uint64_t seed, Report& report, Tally& tally) {
  tcpz::Rng rng(seed);
  // Solving needs only the challenge bytes, so the client's engine holds
  // an unrelated secret.
  std::shared_ptr<const puzzle::PuzzleEngine> client_engine =
      std::make_shared<puzzle::Sha256PuzzleEngine>(
          tcpz::crypto::SecretKey::from_seed(0));
  if (server.ledger) {
    client_engine = std::make_shared<TimedEngine>(client_engine, server.ledger);
  }

  struct Pending {
    SimTime at;
    std::uint64_t order;
    Kind kind;
    tcp::Segment seg;
    bool operator>(const Pending& o) const {
      return at != o.at ? at > o.at : order > o.order;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue;
  std::uint64_t order = 0;
  auto push = [&](SimTime at, Kind kind, tcp::Segment seg = {}) {
    queue.push({at, order++, kind, std::move(seg)});
  };

  // Warm-up: fill the listen queue so the opportunistic latch engages.
  for (std::size_t i = 0; i < kBacklog; ++i) {
    const SimTime at = kStart + SimTime::nanoseconds(static_cast<std::int64_t>(i));
    push(at, Kind::kSpoofSyn, spoofed_syn(rng, at));
    ++tally.warmup;
  }
  const SimTime stream0 = kStart + SimTime::milliseconds(1);
  const SimTime end = stream0 + kSlot * (kBlocks * 10) + kTick;
  for (SimTime t = kStart + kTick; t <= end; t += kTick) push(t, Kind::kTick);
  std::uint32_t client_index = 0;
  for (int b = 0; b < kBlocks; ++b) {
    std::array<Kind, 10> block = {Kind::kSpoofSyn, Kind::kSpoofSyn,
                                  Kind::kSpoofSyn, Kind::kSpoofSyn,
                                  Kind::kSpoofSyn, Kind::kSpoofSyn,
                                  Kind::kLegitSyn, Kind::kLegitSyn,
                                  Kind::kBogusSyn, Kind::kBogusSyn};
    for (std::size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.uniform_u64(i + 1)]);
    }
    for (int i = 0; i < 10; ++i) {
      const SimTime at = stream0 + kSlot * (b * 10 + i);
      const Kind kind = block[static_cast<std::size_t>(i)];
      if (kind == Kind::kSpoofSyn) {
        push(at, kind, spoofed_syn(rng, at));
        continue;
      }
      // A connecting client (legitimate, or the bogus-solution attacker):
      // the SYN comes from its connector, which is fed the SYN-ACK below.
      tcp::Segment syn;
      syn.saddr = (kind == Kind::kLegitSyn ? tcp::ipv4(10, 2, 0, 0)
                                           : tcp::ipv4(10, 3, 0, 0)) +
                  static_cast<std::uint32_t>(rng.uniform_u64(65536));
      syn.sport = static_cast<std::uint16_t>(1024 + client_index++ % 60000);
      push(at, kind, syn);
    }
  }

  std::map<std::pair<std::uint32_t, std::uint16_t>, tcp::Connector> clients;
  std::vector<Input> schedule;
  std::uint64_t accepted = 0;
  while (!queue.empty()) {
    Pending p = queue.top();
    queue.pop();
    if (p.kind == Kind::kTick) {
      schedule.push_back({p.at, p.kind, {}});
      (void)listener.on_tick(p.at);
      while (const auto conn = listener.accept(p.at)) {
        ++accepted;
        listener.close(conn->flow);
      }
      continue;
    }
    if (p.kind == Kind::kLegitSyn || p.kind == Kind::kBogusSyn) {
      tcp::ConnectorConfig cc;
      cc.local_addr = p.seg.saddr;
      cc.local_port = p.seg.sport;
      cc.remote_addr = kServer;
      auto [it, fresh] = clients.try_emplace({cc.local_addr, cc.local_port}, cc,
                                             rng.next());
      report.check(fresh, "server_path: client flow reused");
      auto out = it->second.start(p.at);
      p.seg = out.segments.at(0);
    }
    schedule.push_back({p.at, p.kind, p.seg});
    tally.syns += p.seg.is_syn() ? 1 : 0;
    const auto replies = listener.on_segment(p.at, p.seg);
    report.check(listener.listen_depth() <= kBacklog,
                 "server_path: half-open state exceeded the listen backlog");
    if (p.kind != Kind::kLegitSyn && p.kind != Kind::kBogusSyn) continue;

    const auto key = std::make_pair(p.seg.saddr, p.seg.sport);
    tcp::Connector& client = clients.at(key);
    if (replies.size() != 1 || !replies[0].options.challenge) {
      report.check(false, "server_path: a protected SYN drew no challenge");
      continue;
    }
    auto out = client.on_segment(p.at, replies[0]);
    if (!out.solve) {
      report.check(false, "server_path: client could not parse a challenge");
      continue;
    }
    const puzzle::Challenge& challenge = *out.solve;
    const puzzle::FlowBinding flow = client.flow_binding();
    const auto preimage = reference::preimage(
        server.secret.bytes(), flow, challenge.timestamp, challenge.sol_len);
    report.check(std::equal(preimage.begin(), preimage.end(),
                            challenge.preimage.begin(),
                            challenge.preimage.end()),
                 "server_path: challenge pre-image differs from HMAC-SHA256");
    puzzle::Solution solution;
    SimTime reply_at;
    if (p.kind == Kind::kLegitSyn) {
      std::uint64_t ops = 0;
      solution = client_engine->solve(challenge, flow, rng, ops);
      report.check(reference::solution_valid(preimage, challenge.diff, solution),
                   "server_path: client solution fails the SHA-256 check");
      reply_at = p.at + kSolveDelay;
      ++tally.legit;
    } else {
      solution.timestamp = challenge.timestamp;
      do {
        solution.values.clear();
        for (unsigned i = 0; i < challenge.diff.k; ++i) {
          puzzle::SolutionValue v(challenge.sol_len, 0);
          for (auto& byte : v) byte = static_cast<std::uint8_t>(rng.next());
          solution.values.push_back(v);
        }
      } while (reference::solution_valid(preimage, challenge.diff, solution));
      reply_at = p.at + kBogusDelay;
      ++tally.bogus;
    }
    auto ack = client.on_solved(p.at, solution);
    push(reply_at,
         p.kind == Kind::kLegitSyn ? Kind::kSolutionAck : Kind::kBogusAck,
         ack.segments.at(0));
    clients.erase(key);
  }
  report.check(accepted == tally.legit,
               "server_path: accepted " + std::to_string(accepted) +
                   " connections, expected " + std::to_string(tally.legit));
  return schedule;
}

/// One measured replay of the schedule against a fresh listener. Returns
/// the connections accepted; `half_open_peak` tracks the listen depth at
/// every tick.
template <bool kTraced>
std::uint64_t replay(tcp::Listener& listener, const std::vector<Input>& schedule,
                     Ledger& ledger, std::uint64_t& allocs,
                     std::size_t& half_open_peak) {
  std::uint64_t accepted = 0;
  for (const Input& in : schedule) {
    if (in.kind == Kind::kTick) {
      half_open_peak = std::max(half_open_peak, listener.listen_depth());
      if constexpr (kTraced) {
        {
          const Span span(ledger, Layer::kListenerTick);
          (void)listener.on_tick(in.at);
        }
        for (;;) {
          std::optional<tcp::AcceptedConnection> conn;
          {
            const Span span(ledger, Layer::kListenerAccept);
            conn = listener.accept(in.at);
          }
          if (!conn) break;
          ++accepted;
          listener.close(conn->flow);
        }
      } else {
        (void)listener.on_tick(in.at);
        while (const auto conn = listener.accept(in.at)) {
          ++accepted;
          listener.close(conn->flow);
        }
      }
      continue;
    }
    if constexpr (kTraced) {
      const Layer layer = in.kind == Kind::kSolutionAck ? Layer::kListenerSolutionAck
                          : in.kind == Kind::kBogusAck  ? Layer::kListenerBogusAck
                                                        : Layer::kListenerSyn;
      const std::uint64_t a0 = thread_allocs();
      {
        const Span span(ledger, layer);
        (void)listener.on_segment(in.at, in.seg);
      }
      allocs += thread_allocs() - a0;
    } else {
      (void)listener.on_segment(in.at, in.seg);
    }
  }
  return accepted;
}

bool same_counters(const tcp::ListenerCounters& a,
                   const tcp::ListenerCounters& b) {
#define TCPZ_X(name, help) \
  if (a.name != b.name) return false;
  TCPZ_LISTENER_COUNTER_FIELDS(TCPZ_X)
#undef TCPZ_X
  return true;
}

}  // namespace

void run_server_path(const Options& opt, Report& report) {
  SetupClock setup_clock(1);
  Ledger ledger;
  const auto secret = tcpz::crypto::SecretKey::from_seed(opt.seed * 2 + 1);
  const puzzle::EngineConfig ecfg{};
  std::shared_ptr<const puzzle::PuzzleEngine> engine =
      std::make_shared<puzzle::Sha256PuzzleEngine>(secret, ecfg);
  if (opt.trace) engine = std::make_shared<TimedEngine>(engine, &ledger);
  const Server server{secret, engine, opt.seed, opt.trace ? &ledger : nullptr};

  auto prep = server.make();
  const double setup_s = setup_clock.stop();
  Tally tally;
  const std::vector<Input> schedule =
      record(server, *prep, opt.seed, report, tally);
  const tcp::ListenerCounters expected = prep->counters();
  prep.reset();

  // The listener's counters must equal the benchmark's own tally of what
  // it sent: every legitimate solution admitted, every bogus one rejected.
  report.check(expected.syns_received == tally.syns,
               "server_path: syns_received differs from SYNs sent");
  report.check(expected.plain_synacks == tally.warmup &&
                   expected.challenges_sent == tally.syns - tally.warmup,
               "server_path: SYNs past the warm-up were not all challenged");
  report.check(expected.solutions_valid == tally.legit &&
                   expected.established_puzzle == tally.legit &&
                   expected.established_total == tally.legit,
               "server_path: not every legitimate solution was admitted");
  report.check(expected.solutions_invalid == tally.bogus,
               "server_path: not every bogus solution was rejected");

  // Measured rounds. A traced run spends half its time here, for the
  // checks, and half on the span-recording replays below.
  std::size_t half_open_peak = 0;
  std::uint64_t rounds_done = 0;
  Ledger unused;
  std::uint64_t no_allocs = 0;
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto rounds = measure_rounds(measure_s, 1, [&] {
    auto listener = server.make();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const std::uint64_t accepted =
        replay<false>(*listener, schedule, unused, no_allocs, half_open_peak);
    RoundSample s{since(t0), process_cpu_s() - cpu0,
                  static_cast<double>(listener->counters().established_total)};
    ++rounds_done;
    report.check(accepted == tally.legit &&
                     same_counters(listener->counters(), expected),
                 "server_path: a replay diverged from the recorded stream");
    return s;
  });
  report.check(half_open_peak <= kBacklog,
               "server_path: half-open state exceeded the listen backlog");
  report.count_ops(tally.legit * rounds_done, 0);

  if (!opt.trace) {
    report_end_to_end(report, setup_s, rounds);
    return;
  }
  // Listener and decorator spans come from these replays only; the
  // solves are the preparation pass's.
  const LayerStat solves = ledger[Layer::kPuzzleSolve];
  ledger = Ledger{};
  ledger[Layer::kPuzzleSolve] = solves;
  std::uint64_t allocs = 0;
  std::uint64_t segments = 0;
  std::vector<double> wall;
  const auto t_end = Clock::now() + std::chrono::duration<double>(opt.seconds / 2);
  do {
    auto listener = server.make();
    const auto t0 = Clock::now();
    (void)replay<true>(*listener, schedule, ledger, allocs, half_open_peak);
    wall.push_back(since(t0));
    for (const Input& in : schedule) segments += in.kind != Kind::kTick;
  } while (Clock::now() < t_end || wall.size() < 3);
  report.metric("trace.wall_s", round_time(wall), "s");
  report.metric("tcp.listener.allocs_per_segment",
                static_cast<double>(allocs) / static_cast<double>(segments),
                "allocs/segment");
  report.metric("tcp.listener.syns_received",
                static_cast<double>(expected.syns_received), "count");
  report.metric("tcp.listener.challenges_sent",
                static_cast<double>(expected.challenges_sent), "count");
  report.metric("tcp.listener.solutions_valid",
                static_cast<double>(expected.solutions_valid), "count");
  report.metric("tcp.listener.synack_retx",
                static_cast<double>(expected.synack_retx), "count");
  report.metric("tcp.listener.half_open_peak",
                static_cast<double>(half_open_peak), "count");

  // The wire codec on the same segments, called by the benchmark itself.
  for (const Input& in : schedule) {
    if (in.kind == Kind::kTick) continue;
    tcpz::Bytes bytes;
    {
      const Span span(ledger, Layer::kWireEncode);
      bytes = tcp::encode_segment(in.seg);
    }
    tcp::WireDecodeResult decoded;
    {
      const Span span(ledger, Layer::kWireDecode);
      decoded = tcp::decode_segment(bytes);
    }
    report.check(decoded.segment.has_value(),
                 "server_path: the wire codec rejected its own encoding");
  }
  probe_crypto(ledger, opt.seed, 100'000);
  report_ledger(report, ledger);
}

}  // namespace perfbench
