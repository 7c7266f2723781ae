// Self-test of the benchmark's own code: the order statistics it reports,
// the CPU placement of its set-up and rounds, and the independent OpenSSL
// checker it validates the program with.
//
//   perfbench_selftest      exits 0 when every case passes
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "crypto/secret.hpp"
#include "puzzle/engine.hpp"
#include "reference.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::string to_hex(const perfbench::reference::Digest& d) {
  std::string s;
  char buf[3];
  for (const auto b : d) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    s += buf;
  }
  return s;
}

std::vector<std::uint8_t> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

void test_stats() {
  using perfbench::median;
  using perfbench::percentile;
  expect(near(median({}), 0.0), "median of nothing is 0");
  expect(near(median({7}), 7.0), "median of one sample");
  expect(near(median({3, 1, 2}), 2.0), "median of odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  const std::vector<double> v = {10, 20, 30, 40, 50};
  expect(near(percentile(v, 0), 10), "p0 is the minimum");
  expect(near(percentile(v, 100), 50), "p100 is the maximum");
  expect(near(percentile(v, 25), 20), "p25 on a rank");
  expect(near(percentile(v, 90), 46), "p90 interpolates between ranks");
  expect(near(percentile({5, 1}, 50), 3), "p50 of two samples");
}

void test_round_time() {
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);  // 20 rounds, 1..20 s
  expect(near(perfbench::round_time(v), 2.9),
         "round time is the 10th percentile of the rounds");
}

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

// Runs first: the process starts pinned to its fastest CPU (see
// SetupClock), and stopping the set-up clock gives it every CPU back.
void test_setup_clock() {
  const std::size_t at_start = allowed_cpus().size();
  perfbench::SetupClock clock(2);
  const std::size_t widened = allowed_cpus().size();
  const double setup_s = clock.stop();
  const std::size_t all = allowed_cpus().size();
  expect(at_start == 1, "the process starts pinned to one CPU");
  expect(widened == std::min<std::size_t>(2, all),
         "a width-2 set-up runs on two CPUs");
  expect(setup_s > 0, "the set-up time is positive");
}

void test_cpu_rotation() {
  const std::vector<int> before = allowed_cpus();
  {
    perfbench::CpuRotation rotation(1);
    std::set<int> visited;
    for (std::size_t i = 0; i < before.size(); ++i) {
      rotation.next();
      const std::vector<int> now = allowed_cpus();
      expect(now.size() == 1, "a width-1 window holds one CPU");
      if (!now.empty()) visited.insert(now[0]);
    }
    expect(visited == std::set<int>(before.begin(), before.end()),
           "one rotation visits every allowed CPU");
  }
  expect(allowed_cpus() == before, "the rotation restores the affinity");
  {
    perfbench::CpuRotation wide(static_cast<int>(before.size()) + 3);
    wide.next();
    expect(allowed_cpus() == before,
           "a window wider than the machine holds every allowed CPU");
  }
}

void test_fips180() {
  using perfbench::reference::sha256;
  expect(to_hex(sha256(bytes("abc"))) ==
             "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
         "FIPS 180-2 B.1: SHA-256(\"abc\")");
  expect(to_hex(sha256(bytes(
             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))) ==
             "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
         "FIPS 180-2 B.2: SHA-256 of the 448-bit message");
  expect(to_hex(sha256({})) ==
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "SHA-256 of the empty message");
}

void test_rfc4231() {
  using perfbench::reference::hmac_sha256;
  // Test Case 1.
  expect(to_hex(hmac_sha256(std::vector<std::uint8_t>(20, 0x0b),
                            bytes("Hi There"))) ==
             "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
         "RFC 4231 test case 1");
  // Test Case 2.
  expect(to_hex(hmac_sha256(bytes("Jefe"),
                            bytes("what do ya want for nothing?"))) ==
             "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
         "RFC 4231 test case 2");
  // Test Case 3.
  expect(to_hex(hmac_sha256(std::vector<std::uint8_t>(20, 0xaa),
                            std::vector<std::uint8_t>(50, 0xdd))) ==
             "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
         "RFC 4231 test case 3");
  // Test Case 6: a key longer than one block is hashed first.
  expect(to_hex(hmac_sha256(
             std::vector<std::uint8_t>(131, 0xaa),
             bytes("Test Using Larger Than Block-Size Key - Hash Key First"))) ==
             "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
         "RFC 4231 test case 6");
}

// The checker must accept what a correct engine produces and reject a
// tampered solution — otherwise a benchmark "correct" flag means nothing.
void test_checker_against_engine() {
  const auto secret = tcpz::crypto::SecretKey::from_seed(99);
  const tcpz::puzzle::Sha256PuzzleEngine engine(secret, {.sol_len = 4});
  tcpz::Rng rng(5);
  const tcpz::puzzle::Difficulty diff{2, 8};
  for (std::uint32_t i = 0; i < 20; ++i) {
    const tcpz::puzzle::FlowBinding flow{0x0a020001 + i, 0x0a010001,
                                         static_cast<std::uint16_t>(4000 + i),
                                         80, 12345 * i};
    const auto c = engine.make_challenge(flow, 1000 + i, diff);
    const auto p = perfbench::reference::preimage(secret.bytes(), flow,
                                                  1000 + i, 4);
    expect(std::vector<std::uint8_t>(c.preimage.begin(), c.preimage.end()) == p,
           "reference pre-image matches the engine's challenge");
    std::uint64_t ops = 0;
    auto sol = engine.solve(c, flow, rng, ops);
    expect(perfbench::reference::solution_valid(p, diff, sol),
           "reference accepts an engine solution");
    sol.values[0][0] ^= 0xff;
    sol.values[0][1] ^= 0xff;
    // A flipped value can still pass the 8-bit condition by chance; the
    // engine's own verdict decides which answer is right.
    const bool engine_ok = engine.verify(flow, sol, diff, 1000 + i).ok;
    expect(perfbench::reference::solution_valid(p, diff, sol) == engine_ok,
           "reference and engine agree on a tampered solution");
  }
}

}  // namespace

int main() {
  test_stats();
  test_round_time();
  test_setup_clock();
  test_cpu_rotation();
  test_fips180();
  test_rfc4231();
  test_checker_against_engine();
  if (g_failures == 0) std::printf("perfbench selftest: all cases passed\n");
  return g_failures == 0 ? 0 : 1;
}
