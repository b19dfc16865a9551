#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <vector>

namespace zlb::crypto {

namespace {

CurveParams make_params() {
  const Modulus n = Modulus::make(U256::from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"));
  CurveParams cp{
      Modulus::make(U256::from_hex(
          "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")),
      n,
      U256::from_hex(
          "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
      U256::from_hex(
          "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
      shr1(n.m)};
  return cp;
}

}  // namespace

const CurveParams& curve() {
  static const CurveParams params = make_params();
  return params;
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& a) {
  if (a.infinity) return identity();
  return JacobianPoint{a.x, a.y, U256(1)};
}

AffinePoint to_affine(const JacobianPoint& p) {
  if (p.is_identity()) return AffinePoint{U256(), U256(), true};
  const Modulus& fp = curve().p;
  const U256 zinv = inv_mod(p.z, fp);
  const U256 zinv2 = sqr_mod(zinv, fp);
  const U256 zinv3 = mul_mod(zinv2, zinv, fp);
  return AffinePoint{mul_mod(p.x, zinv2, fp), mul_mod(p.y, zinv3, fp), false};
}

JacobianPoint jacobian_double(const JacobianPoint& p) {
  if (p.is_identity() || p.y.is_zero()) return JacobianPoint::identity();
  const Modulus& fp = curve().p;
  // dbl-2009-l formulas for a = 0.
  const U256 a = sqr_mod(p.x, fp);                       // A = X^2
  const U256 b = sqr_mod(p.y, fp);                       // B = Y^2
  const U256 c = sqr_mod(b, fp);                         // C = B^2
  U256 d = add_mod(p.x, b, fp);                          // (X + B)
  d = sqr_mod(d, fp);                                    // (X + B)^2
  d = sub_mod(d, a, fp);                                 // - A
  d = sub_mod(d, c, fp);                                 // - C
  d = add_mod(d, d, fp);                                 // D = 2(...)
  const U256 e = add_mod(add_mod(a, a, fp), a, fp);      // E = 3A
  const U256 f = sqr_mod(e, fp);                         // F = E^2
  U256 x3 = sub_mod(f, add_mod(d, d, fp), fp);           // X3 = F - 2D
  U256 y3 = sub_mod(d, x3, fp);
  y3 = mul_mod(e, y3, fp);
  U256 c8 = add_mod(c, c, fp);
  c8 = add_mod(c8, c8, fp);
  c8 = add_mod(c8, c8, fp);
  y3 = sub_mod(y3, c8, fp);                              // Y3 = E(D-X3) - 8C
  U256 z3 = mul_mod(p.y, p.z, fp);
  z3 = add_mod(z3, z3, fp);                              // Z3 = 2YZ
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint jacobian_add(const JacobianPoint& a, const JacobianPoint& b) {
  if (a.is_identity()) return b;
  if (b.is_identity()) return a;
  const Modulus& fp = curve().p;
  const U256 z1z1 = sqr_mod(a.z, fp);
  const U256 z2z2 = sqr_mod(b.z, fp);
  const U256 u1 = mul_mod(a.x, z2z2, fp);
  const U256 u2 = mul_mod(b.x, z1z1, fp);
  const U256 s1 = mul_mod(a.y, mul_mod(z2z2, b.z, fp), fp);
  const U256 s2 = mul_mod(b.y, mul_mod(z1z1, a.z, fp), fp);
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(a);
    return JacobianPoint::identity();
  }
  const U256 h = sub_mod(u2, u1, fp);
  const U256 r = sub_mod(s2, s1, fp);
  const U256 h2 = sqr_mod(h, fp);
  const U256 h3 = mul_mod(h2, h, fp);
  const U256 u1h2 = mul_mod(u1, h2, fp);
  U256 x3 = sqr_mod(r, fp);
  x3 = sub_mod(x3, h3, fp);
  x3 = sub_mod(x3, add_mod(u1h2, u1h2, fp), fp);
  U256 y3 = sub_mod(u1h2, x3, fp);
  y3 = mul_mod(r, y3, fp);
  y3 = sub_mod(y3, mul_mod(s1, h3, fp), fp);
  const U256 z3 = mul_mod(mul_mod(a.z, b.z, fp), h, fp);
  return JacobianPoint{x3, y3, z3};
}

JacobianPoint jacobian_add_mixed(const JacobianPoint& a,
                                 const AffinePoint& b) {
  if (b.infinity) return a;
  if (a.is_identity()) return JacobianPoint::from_affine(b);
  const Modulus& fp = curve().p;
  // madd-2007-bl: with Z2 = 1, U1 = X1 and S1 = Y1 come for free.
  const U256 z1z1 = sqr_mod(a.z, fp);
  const U256 u2 = mul_mod(b.x, z1z1, fp);
  const U256 s2 = mul_mod(b.y, mul_mod(z1z1, a.z, fp), fp);
  if (a.x == u2) {
    if (a.y == s2) return jacobian_double(a);
    return JacobianPoint::identity();
  }
  const U256 h = sub_mod(u2, a.x, fp);
  const U256 r = sub_mod(s2, a.y, fp);
  const U256 h2 = sqr_mod(h, fp);
  const U256 h3 = mul_mod(h2, h, fp);
  const U256 u1h2 = mul_mod(a.x, h2, fp);
  U256 x3 = sqr_mod(r, fp);
  x3 = sub_mod(x3, h3, fp);
  x3 = sub_mod(x3, add_mod(u1h2, u1h2, fp), fp);
  U256 y3 = sub_mod(u1h2, x3, fp);
  y3 = mul_mod(r, y3, fp);
  y3 = sub_mod(y3, mul_mod(a.y, h3, fp), fp);
  const U256 z3 = mul_mod(a.z, h, fp);
  return JacobianPoint{x3, y3, z3};
}

std::unique_ptr<FixedWindowTable> build_fixed_table(const AffinePoint& p) {
  const Modulus& fp = curve().p;
  // All 64×15 multiples in Jacobian form first (heap: ~92 KB).
  constexpr std::size_t kCount = 64 * 15;
  std::vector<JacobianPoint> jac(kCount);
  JacobianPoint base = JacobianPoint::from_affine(p);
  for (std::size_t w = 0; w < 64; ++w) {
    jac[w * 15] = base;
    for (std::size_t d = 1; d < 15; ++d) {
      jac[w * 15 + d] = jacobian_add(jac[w * 15 + d - 1], base);
    }
    base = jacobian_double(jacobian_double(
        jacobian_double(jacobian_double(base))));  // 16^(w+1)·P
  }
  // Montgomery batch inversion: normalize all 960 points to affine with
  // a single field inversion. No entry is the identity: every point of
  // the curve has order n, and d·16^w ≤ 15·16^63 < n.
  std::vector<U256> prefix(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    const U256& z = jac[i].z;
    prefix[i] = i == 0 ? z : mul_mod(prefix[i - 1], z, fp);
  }
  U256 inv = inv_mod(prefix[kCount - 1], fp);
  auto t = std::make_unique<FixedWindowTable>();
  for (std::size_t i = kCount; i-- > 0;) {
    const JacobianPoint& q = jac[i];
    const U256 zinv = i == 0 ? inv : mul_mod(inv, prefix[i - 1], fp);
    inv = mul_mod(inv, q.z, fp);
    const U256 zinv2 = sqr_mod(zinv, fp);
    t->win[i / 15][i % 15] = AffinePoint{
        mul_mod(q.x, zinv2, fp), mul_mod(q.y, mul_mod(zinv2, zinv, fp), fp),
        false};
  }
  return t;
}

namespace {

const FixedWindowTable& base_table() {
  // Window 0 doubles as the odd-multiples-of-G table for the Shamir
  // ladder.
  static const std::unique_ptr<FixedWindowTable> table =
      build_fixed_table(AffinePoint{curve().gx, curve().gy, false});
  return *table;
}

/// acc += k·P, one mixed addition per non-zero nibble of k mod n.
void add_fixed(JacobianPoint& acc, const U256& k,
               const FixedWindowTable& table) {
  const U256 kn = normalize(k, curve().n);
  for (std::size_t w = 0; w < 64; ++w) {
    const std::size_t digit = (kn.w[w / 16] >> (4 * (w % 16))) & 0xf;
    if (digit != 0) acc = jacobian_add_mixed(acc, table.win[w][digit - 1]);
  }
}

/// Width-5 wNAF recoding: k = Σ out[i]·2^i with out[i] either zero or
/// odd in [-15, 15]; adjacent non-zero digits are ≥ 5 positions apart.
/// Returns the digit count.
int wnaf5(const U256& k, std::array<std::int8_t, 260>& out) {
  U256 d = k;
  int len = 0;
  while (!d.is_zero()) {
    std::int8_t digit = 0;
    if (d.is_odd()) {
      const int val = static_cast<int>(d.w[0] & 0x1f);
      U256 t;
      if (val >= 16) {
        digit = static_cast<std::int8_t>(val - 32);
        add_carry(t, d, U256(static_cast<std::uint64_t>(32 - val)));
      } else {
        digit = static_cast<std::int8_t>(val);
        sub_borrow(t, d, U256(static_cast<std::uint64_t>(val)));
      }
      d = t;
    }
    out[static_cast<std::size_t>(len++)] = digit;
    d = shr1(d);
  }
  return len;
}

JacobianPoint negate(const JacobianPoint& p) {
  if (p.is_identity()) return p;
  return JacobianPoint{p.x, sub_mod(U256(), p.y, curve().p), p.z};
}

AffinePoint negate(const AffinePoint& p) {
  if (p.infinity) return p;
  return AffinePoint{p.x, sub_mod(U256(), p.y, curve().p), false};
}

/// Odd multiples 1P, 3P, ..., 15P for the wNAF loops.
std::array<JacobianPoint, 8> odd_multiples(const JacobianPoint& p) {
  std::array<JacobianPoint, 8> tbl;
  tbl[0] = p;
  const JacobianPoint p2 = jacobian_double(p);
  for (std::size_t i = 1; i < 8; ++i) {
    tbl[i] = jacobian_add(tbl[i - 1], p2);
  }
  return tbl;
}

}  // namespace

JacobianPoint scalar_mul(const U256& k, const JacobianPoint& p) {
  const U256 kn = normalize(k, curve().n);
  if (kn.is_zero() || p.is_identity()) return JacobianPoint::identity();
  const std::array<JacobianPoint, 8> tbl = odd_multiples(p);
  std::array<std::int8_t, 260> digits{};
  const int len = wnaf5(kn, digits);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = len - 1; i >= 0; --i) {
    acc = jacobian_double(acc);
    const int d = digits[static_cast<std::size_t>(i)];
    if (d > 0) {
      acc = jacobian_add(acc, tbl[static_cast<std::size_t>((d - 1) / 2)]);
    } else if (d < 0) {
      acc = jacobian_add(
          acc, negate(tbl[static_cast<std::size_t>((-d - 1) / 2)]));
    }
  }
  return acc;
}

JacobianPoint scalar_mul_fixed(const U256& k, const FixedWindowTable& table) {
  JacobianPoint acc = JacobianPoint::identity();
  add_fixed(acc, k, table);
  return acc;
}

JacobianPoint scalar_mul_base(const U256& k) {
  return scalar_mul_fixed(k, base_table());
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                const JacobianPoint& q) {
  const Modulus& order = curve().n;
  const U256 k1 = normalize(u1, order);
  const U256 k2 = normalize(u2, order);
  if (q.is_identity() || k2.is_zero()) return scalar_mul_base(k1);
  if (k1.is_zero()) return scalar_mul(k2, q);
  // Shamir's trick: one shared doubling run; per-bit additions use wNAF
  // digits of both scalars. G digits hit the precomputed affine table
  // (window 0 holds 1G..15G), Q digits a runtime odd-multiples table.
  const std::array<JacobianPoint, 8> qtbl = odd_multiples(q);
  const FixedWindowTable& bt = base_table();
  std::array<std::int8_t, 260> w1{};
  std::array<std::int8_t, 260> w2{};
  const int l1 = wnaf5(k1, w1);
  const int l2 = wnaf5(k2, w2);
  JacobianPoint acc = JacobianPoint::identity();
  for (int i = std::max(l1, l2) - 1; i >= 0; --i) {
    acc = jacobian_double(acc);
    const int d1 = i < l1 ? w1[static_cast<std::size_t>(i)] : 0;
    if (d1 > 0) {
      acc = jacobian_add_mixed(acc,
                               bt.win[0][static_cast<std::size_t>(d1 - 1)]);
    } else if (d1 < 0) {
      acc = jacobian_add_mixed(
          acc, negate(bt.win[0][static_cast<std::size_t>(-d1 - 1)]));
    }
    const int d2 = i < l2 ? w2[static_cast<std::size_t>(i)] : 0;
    if (d2 > 0) {
      acc = jacobian_add(acc, qtbl[static_cast<std::size_t>((d2 - 1) / 2)]);
    } else if (d2 < 0) {
      acc = jacobian_add(
          acc, negate(qtbl[static_cast<std::size_t>((-d2 - 1) / 2)]));
    }
  }
  return acc;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2,
                                const FixedWindowTable& q) {
  // No doublings, so the two walks can share one accumulator: the sum
  // is the same whatever order the 128 table points are added in.
  JacobianPoint acc = JacobianPoint::identity();
  add_fixed(acc, u1, base_table());
  add_fixed(acc, u2, q);
  return acc;
}

bool on_curve(const AffinePoint& p) {
  if (p.infinity) return false;
  const Modulus& fp = curve().p;
  if (cmp(p.x, fp.m) >= 0 || cmp(p.y, fp.m) >= 0) return false;
  const U256 lhs = sqr_mod(p.y, fp);
  U256 rhs = mul_mod(sqr_mod(p.x, fp), p.x, fp);
  rhs = add_mod(rhs, U256(7), fp);
  return lhs == rhs;
}

std::array<std::uint8_t, 33> compress(const AffinePoint& p) {
  std::array<std::uint8_t, 33> out{};
  out[0] = p.y.is_odd() ? 0x03 : 0x02;
  const auto xb = p.x.to_bytes();
  std::copy(xb.begin(), xb.end(), out.begin() + 1);
  return out;
}

std::optional<AffinePoint> decompress(BytesView data) {
  if (data.size() != 33 || (data[0] != 0x02 && data[0] != 0x03)) {
    return std::nullopt;
  }
  const Modulus& fp = curve().p;
  const U256 x = U256::from_bytes(data.subspan(1));
  if (cmp(x, fp.m) >= 0) return std::nullopt;
  U256 rhs = mul_mod(sqr_mod(x, fp), x, fp);
  rhs = add_mod(rhs, U256(7), fp);
  // p ≡ 3 (mod 4): sqrt(a) = a^((p+1)/4).
  U256 exp;
  add_carry(exp, fp.m, U256(1));
  // (p + 1) may carry out of 256 bits only if p = 2^256 - 1; not the case.
  const U256 quarter = shr1(shr1(exp));
  U256 y = pow_mod(rhs, quarter, fp);
  if (sqr_mod(y, fp) != rhs) return std::nullopt;  // not a quadratic residue
  const bool want_odd = data[0] == 0x03;
  if (y.is_odd() != want_odd) y = sub_mod(U256(), y, fp);
  const AffinePoint p{x, y, false};
  if (!on_curve(p)) return std::nullopt;
  return p;
}

}  // namespace zlb::crypto
