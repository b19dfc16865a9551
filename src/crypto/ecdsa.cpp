#include "crypto/ecdsa.hpp"

#include <stdexcept>
#include <utility>

namespace zlb::crypto {

namespace {

U256 digest_to_scalar(const Hash32& digest) {
  const U256 z = U256::from_bytes(BytesView(digest.data(), digest.size()));
  return normalize(z, curve().n);
}

/// Simplified RFC 6979: nonce = HMAC(d || digest, counter), rejected and
/// retried until it lands in [1, n-1]. Deterministic and key-bound, which
/// is all the protocol relies on (no nonce reuse across messages).
U256 deterministic_nonce(const U256& d, const Hash32& digest,
                         std::uint32_t counter) {
  const auto key_bytes = d.to_bytes();
  Bytes msg(digest.begin(), digest.end());
  msg.push_back(static_cast<std::uint8_t>(counter >> 24));
  msg.push_back(static_cast<std::uint8_t>(counter >> 16));
  msg.push_back(static_cast<std::uint8_t>(counter >> 8));
  msg.push_back(static_cast<std::uint8_t>(counter));
  const Hash32 h = hmac_sha256(BytesView(key_bytes.data(), key_bytes.size()),
                               BytesView(msg.data(), msg.size()));
  return normalize(U256::from_bytes(BytesView(h.data(), h.size())),
                   curve().n);
}

/// (u1, u2) = (z/s, r/s) mod n, or nullopt for a malformed signature.
std::optional<std::pair<U256, U256>> verify_scalars(const Hash32& digest,
                                                    const Signature& sig) {
  const Modulus& order = curve().n;
  if (sig.r.is_zero() || sig.s.is_zero()) return std::nullopt;
  if (cmp(sig.r, order.m) >= 0) return std::nullopt;
  // Reject non-canonical high-s (covers s >= n as well): the signer
  // always emits s <= n/2, so anything above is a malleated copy.
  if (cmp(sig.s, curve().n_half) > 0) return std::nullopt;
  const U256 w = inv_mod(sig.s, order);
  return std::make_pair(mul_mod(digest_to_scalar(digest), w, order),
                        mul_mod(sig.r, w, order));
}

/// Does u1·G + u2·Q (Jacobian) have affine x ≡ r (mod n)?
bool matches_r(const JacobianPoint& r_point, const U256& r) {
  if (r_point.is_identity()) return false;
  // Compare in Jacobian space: affine x equals X/Z² (mod p), and the
  // candidate affine x values congruent to r mod n below p are r and
  // r + n. Checking r·Z² == X avoids the field inversion of to_affine.
  const Modulus& fp = curve().p;
  const U256 z2 = sqr_mod(r_point.z, fp);
  if (mul_mod(r, z2, fp) == r_point.x) return true;
  U256 r_plus_n;
  if (add_carry(r_plus_n, r, curve().n.m) == 0 && cmp(r_plus_n, fp.m) < 0) {
    return mul_mod(r_plus_n, z2, fp) == r_point.x;
  }
  return false;
}

}  // namespace

std::array<std::uint8_t, 64> Signature::to_bytes() const {
  std::array<std::uint8_t, 64> out{};
  const auto rb = r.to_bytes();
  const auto sb = s.to_bytes();
  std::copy(rb.begin(), rb.end(), out.begin());
  std::copy(sb.begin(), sb.end(), out.begin() + 32);
  return out;
}

std::optional<Signature> Signature::from_bytes(BytesView data) {
  if (data.size() != 64) return std::nullopt;
  return Signature{U256::from_bytes(data.subspan(0, 32)),
                   U256::from_bytes(data.subspan(32, 32))};
}

PrivateKey PrivateKey::from_seed(BytesView seed) {
  Hash32 h = sha256(seed);
  while (true) {
    const U256 d = U256::from_bytes(BytesView(h.data(), h.size()));
    if (!d.is_zero() && cmp(d, curve().n.m) < 0) return PrivateKey(d);
    h = sha256(BytesView(h.data(), h.size()));
  }
}

PrivateKey PrivateKey::from_scalar(const U256& d) {
  if (d.is_zero() || cmp(d, curve().n.m) >= 0) {
    throw std::invalid_argument("PrivateKey: scalar out of range");
  }
  return PrivateKey(d);
}

PublicKey PrivateKey::public_key() const {
  const AffinePoint q = to_affine(scalar_mul_base(d_));
  PublicKey pk;
  pk.data = compress(q);
  return pk;
}

Signature PrivateKey::sign(BytesView message) const {
  return sign_digest(sha256(message));
}

Signature PrivateKey::sign_digest(const Hash32& digest) const {
  const Modulus& order = curve().n;
  const U256 z = digest_to_scalar(digest);
  for (std::uint32_t counter = 0;; ++counter) {
    const U256 k = deterministic_nonce(d_, digest, counter);
    if (k.is_zero()) continue;
    const AffinePoint rp = to_affine(scalar_mul_base(k));
    const U256 r = normalize(rp.x, order);
    if (r.is_zero()) continue;
    const U256 kinv = inv_mod(k, order);
    U256 s = mul_mod(r, d_, order);
    s = add_mod(s, z, order);
    s = mul_mod(s, kinv, order);
    if (s.is_zero()) continue;
    // Low-s normalization (BIP 62): replace s by n - s if s > n/2.
    if (cmp(s, curve().n_half) > 0) s = sub_mod(U256(), s, order);
    return Signature{r, s};
  }
}

bool verify(const PublicKey& pub, BytesView message, const Signature& sig) {
  return verify_digest(pub, sha256(message), sig);
}

bool verify_digest(const PublicKey& pub, const Hash32& digest,
                   const Signature& sig) {
  const auto q_affine = decompress(BytesView(pub.data.data(), 33));
  if (!q_affine) return false;
  return verify_digest(*q_affine, digest, sig);
}

bool verify_digest(const AffinePoint& pub, const Hash32& digest,
                   const Signature& sig) {
  // Reject the identity and off-curve points: the Jacobian formulas
  // never consult the curve's b coefficient, so arithmetic on a point
  // from another curve would be self-consistent (invalid-curve attack)
  // if a caller ever feeds this overload untrusted coordinates.
  if (!on_curve(pub)) return false;
  const auto u = verify_scalars(digest, sig);
  if (!u) return false;
  return matches_r(
      double_scalar_mul(u->first, u->second, JacobianPoint::from_affine(pub)),
      sig.r);
}

bool verify_digest(const FixedWindowTable& pub, const Hash32& digest,
                   const Signature& sig) {
  const auto u = verify_scalars(digest, sig);
  if (!u) return false;
  return matches_r(double_scalar_mul(u->first, u->second, pub), sig.r);
}

const AffinePoint* PubkeyCache::get(const PublicKey& pub) {
  const auto it = map_.find(pub);
  if (it != map_.end()) return it->second ? &*it->second : nullptr;
  const auto decoded = decompress(BytesView(pub.data.data(), 33));
  const auto& slot = map_.emplace(pub, decoded).first->second;
  return slot ? &*slot : nullptr;
}

}  // namespace zlb::crypto
