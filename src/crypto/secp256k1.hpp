// secp256k1 elliptic-curve group operations (y² = x³ + 7 over F_p) in
// Jacobian coordinates. Scalar multiplication runs on the fast paths a
// verifier-bound blockchain needs: precomputed fixed-window tables (64
// windows of 4 bits) for the generator and for any long-lived public
// key, wNAF recoding with mixed Jacobian+affine addition for arbitrary
// points, and an interleaved Shamir ladder for the u1·G + u2·Q shape
// of ECDSA verification against a key without a table. Plus compressed
// point (de)serialization and the curve constants.
#pragma once

#include <memory>
#include <optional>

#include "crypto/u256.hpp"

namespace zlb::crypto {

/// Curve constants (field prime p, group order n, generator G).
/// `n_half` caches ⌊n/2⌋ for BIP-62 low-s checks.
struct CurveParams {
  Modulus p;
  Modulus n;
  U256 gx;
  U256 gy;
  U256 n_half;
};

[[nodiscard]] const CurveParams& curve();

/// Affine point; `infinity` marks the group identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  friend bool operator==(const AffinePoint& a, const AffinePoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// Jacobian point (X/Z², Y/Z³); Z == 0 marks infinity.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  [[nodiscard]] static JacobianPoint identity() { return {}; }
  [[nodiscard]] bool is_identity() const { return z.is_zero(); }
  [[nodiscard]] static JacobianPoint from_affine(const AffinePoint& a);
};

[[nodiscard]] AffinePoint to_affine(const JacobianPoint& p);
[[nodiscard]] JacobianPoint jacobian_double(const JacobianPoint& p);
[[nodiscard]] JacobianPoint jacobian_add(const JacobianPoint& a,
                                         const JacobianPoint& b);
/// a + b with b affine (Z2 = 1): saves ~5 field mults per addition.
[[nodiscard]] JacobianPoint jacobian_add_mixed(const JacobianPoint& a,
                                               const AffinePoint& b);
/// k·P via width-5 wNAF (k is reduced mod n; every curve point has
/// order n, so the result is unchanged).
[[nodiscard]] JacobianPoint scalar_mul(const U256& k, const JacobianPoint& p);

/// Fixed-window table of a point P: win[w][d-1] = d·16^w·P in affine
/// coordinates, for windows w in [0, 64) and digits d in [1, 15]. k·P
/// then needs one mixed addition per non-zero nibble of k and no
/// doublings at all. 960 points, ~69 KB: worth it for keys that verify
/// many signatures (the generator, committee members), not per call.
struct FixedWindowTable {
  std::array<std::array<AffinePoint, 15>, 64> win;
};
/// Builds P's table (one batch inversion for all 960 points). P must be
/// a curve point other than the identity: callers check on_curve first.
[[nodiscard]] std::unique_ptr<FixedWindowTable> build_fixed_table(
    const AffinePoint& p);
/// k·P from P's table: 64 table lookups + mixed additions.
[[nodiscard]] JacobianPoint scalar_mul_fixed(const U256& k,
                                             const FixedWindowTable& table);
/// k·G: scalar_mul_fixed on the generator's table (built once, on
/// first use).
[[nodiscard]] JacobianPoint scalar_mul_base(const U256& k);
/// u1·G + u2·Q via an interleaved Shamir ladder (shared doubling run,
/// wNAF digits for both scalars) — ECDSA verification for a key
/// without a table.
[[nodiscard]] JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                              const JacobianPoint& q);
/// u1·G + u2·Q for a key with a table: two doubling-free table walks
/// into one accumulator (≤ 128 mixed additions).
[[nodiscard]] JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                              const FixedWindowTable& q);

/// Is (x, y) on the curve? (Rejects infinity.)
[[nodiscard]] bool on_curve(const AffinePoint& p);

/// 33-byte compressed SEC1 encoding (02/03 | x-be).
[[nodiscard]] std::array<std::uint8_t, 33> compress(const AffinePoint& p);
/// Parses a compressed encoding; nullopt if not a valid curve point.
[[nodiscard]] std::optional<AffinePoint> decompress(BytesView data);

}  // namespace zlb::crypto
