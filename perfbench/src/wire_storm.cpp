// wire_storm — the defense on real sockets: a wire::Host on loopback UDP
// with puzzles always on at a small difficulty, facing a closed loop of
// legitimate patched connects (at most four in flight, solved for real on
// the client thread) and a fixed-rate spoofed-SYN flood from one more
// thread. The only workload with real syscalls, real time and real client
// solving; the event core is idle.
//
// Threads: the host's loop, the client loop (this thread) and the flood —
// three of the machine's four. A round is a fixed number of completed
// handshakes; the flood runs through every round at its fixed rate.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>
#include <optional>
#include <unordered_map>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "crypto/secret.hpp"
#include "defense/spec.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "tcp/connector.hpp"
#include "tcp/wire_format.hpp"
#include "util/rng.hpp"
#include "wire/host.hpp"

namespace perfbench {
namespace {

using tcpz::SimTime;
namespace tcp = tcpz::tcp;
namespace puzzle = tcpz::puzzle;

constexpr std::uint32_t kServer = tcp::ipv4(10, 1, 0, 1);
constexpr std::uint32_t kClient = tcp::ipv4(10, 2, 0, 1);
constexpr puzzle::Difficulty kDifficulty{1, 6};
constexpr std::size_t kInFlight = 4;
constexpr int kHandshakesPerRound = 2000;
constexpr double kFloodPerSecond = 5'000;
/// Handshakes whose challenge and solution are kept for the OpenSSL
/// re-check after the run (a fixed number, so memory does not depend on
/// how fast the run went).
constexpr std::size_t kRecheck = 4096;

/// A bound, non-blocking loopback UDP socket; closed on destruction.
class UdpSocket {
 public:
  UdpSocket() : fd_(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
      ::close(fd_);
      throw std::runtime_error("bind() failed");
    }
  }
  ~UdpSocket() { ::close(fd_); }
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

/// UDP datagrams this network namespace's kernel dropped for a full receive
/// buffer so far (the RcvbufErrors field of /proc/net/snmp).
std::uint64_t udp_rcvbuf_errors() {
  std::ifstream snmp("/proc/net/snmp");
  std::string line, header;
  while (std::getline(snmp, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
      continue;
    }
    std::istringstream names(header), values(line);
    std::string name, value;
    while (names >> name && values >> value) {
      if (name == "RcvbufErrors") return std::stoull(value);
    }
  }
  return 0;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

/// The spoofed-SYN flood: kFloodPerSecond SYNs from random sources, paced
/// in 1 ms batches; replies are drained and discarded.
class Flood {
 public:
  Flood(std::uint16_t host_port, std::uint64_t seed)
      : to_(loopback(host_port)), rng_(seed) {}
  ~Flood() {
    if (thread_.joinable()) stop();
  }
  Flood(const Flood&) = delete;
  Flood& operator=(const Flood&) = delete;
  void start() { thread_ = std::thread([this] { run(); }); }
  void stop() {
    stop_.store(true);
    thread_.join();
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] double cpu_s() const { return cpu_s_; }

 private:
  void run() {
    const double cpu0 = thread_cpu_s();
    const auto t0 = Clock::now();
    std::uint8_t buf[2048];
    for (std::uint64_t batch = 1; !stop_.load(); ++batch) {
      const auto due = static_cast<std::uint64_t>(
          kFloodPerSecond * static_cast<double>(batch) / 1000.0);
      while (sent_ < due) {
        tcp::Segment s;
        s.saddr = static_cast<std::uint32_t>(rng_.next()) | 0x0100'0000u;
        s.daddr = kServer;
        s.sport = static_cast<std::uint16_t>(1024 + rng_.uniform_u64(60000));
        s.dport = 80;
        s.seq = static_cast<std::uint32_t>(rng_.next());
        s.flags = tcp::kSyn;
        s.options.mss = 1460;
        const tcpz::Bytes b = tcp::encode_segment(s);
        (void)::sendto(sock_.fd(), b.data(), b.size(), 0,
                       reinterpret_cast<const sockaddr*>(&to_), sizeof to_);
        ++sent_;
      }
      while (::recv(sock_.fd(), buf, sizeof buf, 0) > 0) {
      }
      std::this_thread::sleep_until(t0 + std::chrono::milliseconds(batch));
    }
    cpu_s_ = thread_cpu_s() - cpu0;
  }

  UdpSocket sock_;
  sockaddr_in to_;
  tcpz::Rng rng_;
  std::uint64_t sent_ = 0;
  double cpu_s_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Recheck {
  puzzle::FlowBinding flow;
  puzzle::Challenge challenge;
  puzzle::Solution solution;
};

/// The closed loop of legitimate patched clients.
class Clients {
 public:
  Clients(std::uint16_t host_port, std::uint64_t seed,
          std::shared_ptr<const puzzle::PuzzleEngine> solver, Ledger* ledger)
      : to_(loopback(host_port)),
        rng_(seed),
        solver_(std::move(solver)),
        ledger_(ledger) {
    recheck_.reserve(kRecheck);
  }

  /// Completes `n` handshakes with at most kInFlight in flight.
  void run_round(int n) {
    int started = 0;
    int finished = 0;
    std::uint8_t buf[2048];
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    auto next_retransmit_check = Clock::now();
    while (finished < n) {
      if (Clock::now() > deadline) {
        throw std::runtime_error("wire_storm: a round stalled for 60 s");
      }
      while (started < n && inflight_ < kInFlight) {
        start_one();
        ++started;
      }
      // The client busy-polls its socket: a closed loop this short is
      // bound by wake-up latency, and the host's side of it is what the
      // workload measures.
      bool idle = true;
      for (;;) {
        const ssize_t len = ::recv(sock_.fd(), buf, sizeof buf, 0);
        if (len <= 0) break;
        idle = false;
        tcp::WireDecodeResult d;
        if (ledger_) {
          const Span span(*ledger_, Layer::kWireDecode);
          d = tcp::decode_segment({buf, static_cast<std::size_t>(len)});
        } else {
          d = tcp::decode_segment({buf, static_cast<std::size_t>(len)});
        }
        if (d.segment) finished += on_segment(*d.segment);
      }
      if (idle && Clock::now() >= next_retransmit_check) {
        retransmit();
        next_retransmit_check = Clock::now() + std::chrono::milliseconds(5);
      }
    }
  }

  [[nodiscard]] std::uint64_t established() const { return established_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t syns_sent() const { return syns_sent_; }
  [[nodiscard]] const std::vector<double>& connect_ms() const {
    return connect_ms_;
  }
  [[nodiscard]] const std::vector<Recheck>& recheck() const { return recheck_; }

 private:
  struct Slot {
    std::optional<tcp::Connector> conn;
    Clock::time_point started;
  };

  void send(const tcp::Segment& seg) {
    if (seg.is_syn()) ++syns_sent_;
    tcpz::Bytes b;
    if (ledger_) {
      const Span span(*ledger_, Layer::kWireEncode);
      b = tcp::encode_segment(seg);
    } else {
      b = tcp::encode_segment(seg);
    }
    (void)::sendto(sock_.fd(), b.data(), b.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to_), sizeof to_);
  }

  void start_one() {
    // Ports cycle through 40k values; a flow is long closed on the host
    // (it closes on accept) before its port comes round again.
    const auto port = static_cast<std::uint16_t>(20'000 + next_port_++ % 40'000);
    Slot& slot = slots_[port];
    tcp::ConnectorConfig cc;
    cc.local_addr = kClient;
    cc.local_port = port;
    cc.remote_addr = kServer;
    // A datagram the kernel drops costs one short retransmit, not the
    // stack's 1 s default; the retries leave a lost SYN seconds to recover.
    cc.syn_timeout = SimTime::milliseconds(100);
    cc.max_syn_retries = 6;
    slot.conn.emplace(cc, rng_.next());
    slot.started = Clock::now();
    ++inflight_;
    for (const auto& s : slot.conn->start(since_start()).segments) send(s);
  }

  /// Returns 1 when the segment finished a handshake.
  int on_segment(const tcp::Segment& seg) {
    const auto it = slots_.find(seg.dport);
    if (it == slots_.end() || !it->second.conn) return 0;
    Slot& slot = it->second;
    const SimTime now = since_start();
    auto out = slot.conn->on_segment(now, seg);
    if (out.solve) {
      const puzzle::FlowBinding flow = slot.conn->flow_binding();
      std::uint64_t ops = 0;
      const puzzle::Solution sol = solver_->solve(*out.solve, flow, rng_, ops);
      if (recheck_.size() < kRecheck) recheck_.push_back({flow, *out.solve, sol});
      out = slot.conn->on_solved(now, sol);
    }
    for (const auto& s : out.segments) send(s);
    if (out.established) {
      connect_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - slot.started)
              .count());
      ++established_;
      release(it);
      return 1;
    }
    if (out.failed) {
      ++failed_;
      release(it);
      return 1;
    }
    return 0;
  }

  void retransmit() {
    const SimTime now = since_start();
    for (auto it = slots_.begin(); it != slots_.end();) {
      auto next = std::next(it);
      if (it->second.conn) {
        auto out = it->second.conn->on_tick(now);
        for (const auto& s : out.segments) send(s);
        if (out.failed) {
          ++failed_;
          release(it);
        }
      }
      it = next;
    }
  }

  void release(std::unordered_map<std::uint16_t, Slot>::iterator it) {
    slots_.erase(it);
    --inflight_;
  }

  [[nodiscard]] SimTime since_start() const {
    return SimTime::nanoseconds(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
            .count());
  }

  UdpSocket sock_;
  sockaddr_in to_;
  tcpz::Rng rng_;
  std::shared_ptr<const puzzle::PuzzleEngine> solver_;
  Ledger* ledger_;
  Clock::time_point t0_ = Clock::now();
  std::unordered_map<std::uint16_t, Slot> slots_;
  std::size_t inflight_ = 0;
  std::uint32_t next_port_ = 0;
  std::uint64_t established_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t syns_sent_ = 0;
  std::vector<double> connect_ms_;
  std::vector<Recheck> recheck_;
};

}  // namespace

void run_wire_storm(const Options& opt, Report& report) {
  SetupClock setup_clock(2);  // this thread and the host's loop
  Ledger host_ledger;
  Ledger client_ledger;
  Ledger* host_l = opt.trace ? &host_ledger : nullptr;
  const auto secret = tcpz::crypto::SecretKey::from_seed(opt.seed * 2 + 1);

  tcpz::wire::HostConfig hc;
  hc.listener.local_addr = kServer;
  hc.listener.listen_backlog = 1024;
  hc.listener.accept_backlog = 1024;
  hc.listener.difficulty = kDifficulty;
  auto policy = tcpz::defense::PolicySpec::puzzles();
  policy.always_challenge = true;
  if (host_l) {
    hc.listener.policy = [policy, host_l] {
      return std::make_unique<TimedPolicy>(policy.build(), host_l);
    };
  } else {
    hc.listener.policy = policy.factory();
  }
  std::shared_ptr<const puzzle::PuzzleEngine> engine =
      std::make_shared<puzzle::Sha256PuzzleEngine>(secret);
  if (host_l) engine = std::make_shared<TimedEngine>(engine, host_l);

  tcpz::wire::Host host(hc, secret, opt.seed, engine);
  host.start();
  const double setup_s = setup_clock.stop();

  std::shared_ptr<const puzzle::PuzzleEngine> solver =
      std::make_shared<puzzle::Sha256PuzzleEngine>(
          tcpz::crypto::SecretKey::from_seed(0));
  if (opt.trace) solver = std::make_shared<TimedEngine>(solver, &client_ledger);
  Clients clients(host.bound_port(), opt.seed, solver,
                  opt.trace ? &client_ledger : nullptr);
  Flood flood(host.bound_port(), opt.seed ^ 0x5eed);

  const std::uint64_t drops0 = udp_rcvbuf_errors();
  const double client_cpu0 = thread_cpu_s();
  const double cpu0 = process_cpu_s();
  flood.start();
  // One CPU each for the host loop, this client thread and the flood.
  const auto rounds = measure_rounds(opt.seconds, 3, [&] {
    const double c0 = process_cpu_s();
    const auto r0 = Clock::now();
    clients.run_round(kHandshakesPerRound);
    return RoundSample{since(r0), process_cpu_s() - c0, kHandshakesPerRound};
  });
  flood.stop();
  const double cpu_s = process_cpu_s() - cpu0;
  const double client_cpu = thread_cpu_s() - client_cpu0;
  // Let the last solution ACKs land and one tick drain them.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  host.stop();
  host.join();

  const auto& c = host.counters();
  const auto& st = host.stats();
  const std::uint64_t est = clients.established();
  report.count_ops(est + clients.failed(), clients.failed());
  // A client counts its handshake when it sends the solution ACK; an ACK
  // the kernel dropped for a full socket buffer (the flood shares the
  // host's) never reaches the listener. Allow exactly those drops.
  const std::uint64_t drops = udp_rcvbuf_errors() - drops0;
  report.check(st.accepted == c.established_total &&
                   c.established_total == c.solutions_valid &&
                   st.accepted <= est && st.accepted + drops >= est,
               "wire_storm: host accepted " + std::to_string(st.accepted) +
                   " connections, clients established " + std::to_string(est) +
                   " with " + std::to_string(drops) + " datagrams dropped");
  report.check(c.solutions_invalid == 0,
               "wire_storm: a legitimate solution was rejected");
  report.check(c.syns_received <= clients.syns_sent() + flood.sent() &&
                   c.challenges_sent == c.syns_received,
               "wire_storm: not every SYN received was challenged");
  report.check(host.listener().listen_depth() <= hc.listener.listen_backlog,
               "wire_storm: half-open state exceeded the listen backlog");
  for (const Recheck& r : clients.recheck()) {
    const auto p = reference::preimage(secret.bytes(), r.flow,
                                       r.challenge.timestamp,
                                       r.challenge.sol_len);
    report.check(std::equal(p.begin(), p.end(), r.challenge.preimage.begin(),
                            r.challenge.preimage.end()) &&
                     reference::solution_valid(p, r.challenge.diff, r.solution),
                 "wire_storm: a challenge or solution fails the OpenSSL check");
  }
  std::cerr << "wire_storm: handshakes=" << est << " flood_sent=" << flood.sent()
            << " rx=" << st.rx_datagrams << " tx=" << st.tx_datagrams
            << " wakeups=" << st.wakeups << " kernel_drops=" << drops << "\n";

  if (!opt.trace) {
    report_end_to_end(report, setup_s, rounds);
    return;
  }
  std::vector<double> wall;
  for (const RoundSample& r : rounds) wall.push_back(r.wall_s);
  report.metric("trace.wall_s", round_time(wall), "s");
  const auto hs = static_cast<double>(est);
  report.metric("wire.connect_p50_ms", percentile(clients.connect_ms(), 50),
                "ms");
  report.metric("wire.connect_p99_ms", percentile(clients.connect_ms(), 99),
                "ms");
  report.metric("wire.rx_per_wakeup",
                static_cast<double>(st.rx_datagrams) /
                    static_cast<double>(st.wakeups),
                "datagrams");
  report.metric("wire.datagrams_per_handshake",
                static_cast<double>(st.rx_datagrams + st.tx_datagrams) / hs,
                "datagrams");
  report.metric("wire.host_cpu_us_per_handshake",
                (cpu_s - client_cpu - flood.cpu_s()) * 1e6 / hs, "us");
  report.metric("tcp.listener.syns_received",
                static_cast<double>(c.syns_received), "count");
  report.metric("tcp.listener.challenges_sent",
                static_cast<double>(c.challenges_sent), "count");
  report.metric("tcp.listener.solutions_valid",
                static_cast<double>(c.solutions_valid), "count");
  report.metric("tcp.listener.synack_retx", static_cast<double>(c.synack_retx),
                "count");

  Ledger merged = host_ledger;
  for (const Layer l : {Layer::kPuzzleSolve, Layer::kWireEncode,
                        Layer::kWireDecode}) {
    merged[l] = client_ledger[l];
  }
  probe_crypto(merged, opt.seed, 100'000);
  report_ledger(report, merged);
}

}  // namespace perfbench
