// ECDSA over secp256k1 with RFC-6979-style deterministic nonces and
// low-s normalization, matching Bitcoin's transaction signatures as the
// paper specifies (§4.2.4). Verification enforces the low-s rule too:
// a high-s signature (s > n/2) is rejected, so the (r, s) → (r, n−s)
// malleation of a valid signature does not yield a second valid
// encoding — the accountability layer relies on signature bytes being
// canonical.
#pragma once

#include <optional>
#include <unordered_map>

#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace zlb::crypto {

/// 64-byte compact signature (r || s, big-endian halves).
struct Signature {
  U256 r;
  U256 s;

  [[nodiscard]] std::array<std::uint8_t, 64> to_bytes() const;
  [[nodiscard]] static std::optional<Signature> from_bytes(BytesView data);
  friend bool operator==(const Signature& a, const Signature& b) {
    return a.r == b.r && a.s == b.s;
  }
};

/// 33-byte compressed public key.
struct PublicKey {
  std::array<std::uint8_t, 33> data{};

  [[nodiscard]] std::string hex() const {
    return to_hex(BytesView(data.data(), data.size()));
  }
  friend bool operator==(const PublicKey& a, const PublicKey& b) {
    return a.data == b.data;
  }
  friend bool operator<(const PublicKey& a, const PublicKey& b) {
    return a.data < b.data;
  }
};

class PrivateKey {
 public:
  /// Derives a valid key deterministically from a 32-byte seed (hashes
  /// until the scalar lands in [1, n-1]).
  [[nodiscard]] static PrivateKey from_seed(BytesView seed);
  [[nodiscard]] static PrivateKey from_scalar(const U256& d);

  [[nodiscard]] const U256& scalar() const { return d_; }
  [[nodiscard]] PublicKey public_key() const;

  /// Signs the SHA-256 digest of `message`.
  [[nodiscard]] Signature sign(BytesView message) const;
  /// Signs a precomputed 32-byte digest.
  [[nodiscard]] Signature sign_digest(const Hash32& digest) const;

 private:
  explicit PrivateKey(const U256& d) : d_(d) {}
  U256 d_;
};

/// Verifies `sig` over sha256(message) against `pub`. Returns false for
/// malformed keys/signatures (including non-canonical high-s) rather
/// than throwing.
[[nodiscard]] bool verify(const PublicKey& pub, BytesView message,
                          const Signature& sig);
[[nodiscard]] bool verify_digest(const PublicKey& pub, const Hash32& digest,
                                 const Signature& sig);
/// Same check against an already-decompressed public key — the hot path
/// when the caller caches decompression (chain/utxo, batch verifier).
[[nodiscard]] bool verify_digest(const AffinePoint& pub, const Hash32& digest,
                                 const Signature& sig);
/// Same check against the public key's fixed-window table (u1·G + u2·Q
/// without doublings, about 3x faster than the ladder). The table must
/// come from build_fixed_table on a point that passed on_curve — this
/// overload cannot re-check the key.
[[nodiscard]] bool verify_digest(const FixedWindowTable& pub,
                                 const Hash32& digest, const Signature& sig);

struct PublicKeyHasher {
  std::size_t operator()(const PublicKey& pub) const noexcept {
    // FNV-1a over all 33 bytes: key bytes are attacker-chosen (they
    // need not be valid curve points to enter a cache), so a prefix
    // hash would invite bucket-flooding.
    std::uint64_t v = 1469598103934665603ull;
    for (const std::uint8_t b : pub.data) {
      v = (v ^ b) * 1099511628211ull;
    }
    return static_cast<std::size_t>(v);
  }
};

/// Memoizes point decompression per public key. Decompression costs a
/// field exponentiation (square root), so verifying many signatures
/// from the same key — every UTXO spend, every consensus vote — should
/// pay it once. Not thread-safe; entries are stable (node-based map).
class PubkeyCache {
 public:
  /// Decompressed point, or nullptr if `pub` is not a valid curve
  /// point. Both outcomes are memoized.
  [[nodiscard]] const AffinePoint* get(const PublicKey& pub);
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<PublicKey, std::optional<AffinePoint>, PublicKeyHasher>
      map_;
};

}  // namespace zlb::crypto
