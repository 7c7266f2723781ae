// Independent re-check of the puzzle scheme with OpenSSL's libcrypto.
//
// The program carries its own SHA-256 and HMAC (src/crypto/). The benchmark
// never trusts them to check their own output: every challenge pre-image
// and every solution it validates is recomputed here from the paper's
// definition (§4, after Juels & Brainard) with OpenSSL's HMAC-SHA256 and
// SHA-256:
//
//   P   = first l bytes of HMAC(secret, label ‖ T ‖ ISN ‖ saddr ‖ daddr ‖
//                                       sport ‖ dport)   (big-endian fields)
//   s_i is valid iff the first m bits of SHA-256(P ‖ i ‖ s_i) equal the
//   first m bits of P, for i = 1..k.
//
// The label is the program's domain-separation string for pre-images; it is
// part of the wire contract (a client never computes P, but two servers of
// one fleet must agree on it).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "puzzle/types.hpp"

namespace perfbench::reference {

using Digest = std::array<std::uint8_t, 32>;

[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Digest hmac_sha256(std::span<const std::uint8_t> key,
                                 std::span<const std::uint8_t> message);

/// The challenge pre-image P for `flow` at server timestamp `ts_ms`.
[[nodiscard]] std::vector<std::uint8_t> preimage(
    std::span<const std::uint8_t> secret, const tcpz::puzzle::FlowBinding& flow,
    std::uint32_t ts_ms, std::uint8_t sol_len);

/// True iff every s_i of `solution` meets the m-bit condition against P and
/// there are exactly k values of |P| bytes each.
[[nodiscard]] bool solution_valid(std::span<const std::uint8_t> preimage,
                                  tcpz::puzzle::Difficulty diff,
                                  const tcpz::puzzle::Solution& solution);

}  // namespace perfbench::reference
