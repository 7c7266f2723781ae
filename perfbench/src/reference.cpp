#include "reference.hpp"

#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/sha.h>

#include <stdexcept>
#include <string_view>

namespace perfbench::reference {
namespace {

constexpr std::string_view kPreimageLabel = "tcpz-puzzle-preimage-v1";

void put_be(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = bytes - 1; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// First `bits` bits of a and b agree.
bool prefix_equal(std::span<const std::uint8_t> a,
                  std::span<const std::uint8_t> b, unsigned bits) {
  for (unsigned i = 0; i < bits; ++i) {
    const unsigned byte = i / 8;
    const unsigned shift = 7 - i % 8;
    const int ba = byte < a.size() ? (a[byte] >> shift) & 1 : 0;
    const int bb = byte < b.size() ? (b[byte] >> shift) & 1 : 0;
    if (ba != bb) return false;
  }
  return true;
}

}  // namespace

Digest sha256(std::span<const std::uint8_t> data) {
  Digest d{};
  SHA256(data.data(), data.size(), d.data());
  return d;
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  Digest d{};
  unsigned int len = 0;
  if (HMAC(EVP_sha256(), key.data(), static_cast<int>(key.size()),
           message.data(), message.size(), d.data(), &len) == nullptr ||
      len != d.size()) {
    throw std::runtime_error("OpenSSL HMAC failed");
  }
  return d;
}

std::vector<std::uint8_t> preimage(std::span<const std::uint8_t> secret,
                                   const tcpz::puzzle::FlowBinding& flow,
                                   std::uint32_t ts_ms, std::uint8_t sol_len) {
  std::vector<std::uint8_t> msg(kPreimageLabel.begin(), kPreimageLabel.end());
  put_be(msg, ts_ms, 4);
  put_be(msg, flow.isn, 4);
  put_be(msg, flow.saddr, 4);
  put_be(msg, flow.daddr, 4);
  put_be(msg, flow.sport, 2);
  put_be(msg, flow.dport, 2);
  const Digest mac = hmac_sha256(secret, msg);
  return {mac.begin(), mac.begin() + sol_len};
}

bool solution_valid(std::span<const std::uint8_t> p,
                    tcpz::puzzle::Difficulty diff,
                    const tcpz::puzzle::Solution& solution) {
  if (solution.values.size() != diff.k) return false;
  for (unsigned i = 1; i <= diff.k; ++i) {
    std::span<const std::uint8_t> s = solution.values[i - 1];
    if (s.size() != p.size()) return false;
    std::vector<std::uint8_t> msg(p.begin(), p.end());
    msg.push_back(static_cast<std::uint8_t>(i));
    msg.insert(msg.end(), s.begin(), s.end());
    if (!prefix_equal(sha256(msg), p, diff.m)) return false;
  }
  return true;
}

}  // namespace perfbench::reference
