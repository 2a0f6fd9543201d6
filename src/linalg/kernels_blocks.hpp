// Internal: the kernel loops shared by every ISA translation unit.
//
// Each kernels_<isa>.cpp instantiates these templates with its own lane
// type (same TU, so the lane operations inline) and exports one function
// per KernelOps entry. A lane type `V` provides
//
//   Reg, Mask, kLanes               the register, a lane mask, its width
//   tail_mask(len)                  the first len lanes (0 < len < kLanes)
//   load(p) / load(p, mask)         full / masked load (masked-off lanes 0)
//   store(p, x) / store(p, x, mask) full / masked store
//   set1(a), zero(), add, sub, mul  broadcast and element-wise arithmetic
//   div, sqrt                       correctly rounded, element-wise
//   exp                             the width's libmvec exp (per-lane
//                                   std::exp without glibc on x86-64)
//   fma(a, b, c)                    a·b + c, fused or not (bound kernels only)
//
// Bit-identity: every loop below gives each element the same operands in
// the same order as the scalar k-loop it replaces — ascending k, left-
// associated, a separate multiply and subtract/add per step (the TUs are
// compiled with -ffp-contract=off, so nothing is contracted to FMA). Lanes
// never combine with each other, so neither the lane width nor the strip
// an element lands in can change a bit. The correlation transform differs
// across paths only through V::exp; the bound kernels at the end are the
// other exception (KernelOps, "The bound kernels"): they use fma and sum
// in lanes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "common/check.hpp"
#include "linalg/kernels.hpp"

namespace stormtune::linalg_kernels::detail {

/// Vector registers per strip. A strip's accumulators stay in registers
/// across the whole k loop. The factorization and the forward solve run
/// two columns or rows per strip, so eight independent subtract chains
/// (latency ~4 cycles each) keep both vector pipes busy and still fit
/// AVX2's sixteen registers with the broadcasts and a loaded operand. Four
/// vectors also bound the strip's footprint: an n = 100 solve strip and a
/// d = 101 distance strip are 26 KB each on AVX-512, inside L1.
inline constexpr int kStripVecs = 4;

/// NV vector accumulators over consecutive elements; the last vector is
/// masked when kTail is set.
template <class V, int NV, bool kTail>
struct Strip {
  using Reg = typename V::Reg;
  using Mask = typename V::Mask;
  static constexpr std::size_t L = V::kLanes;

  static constexpr int kVecs = NV;

  Reg r[NV];
  Mask mask;

  static Reg load_vec(const double* p, int v, Mask m) {
    if constexpr (kTail) {
      if (v == NV - 1) return V::load(p + v * L, m);
    }
    return V::load(p + v * L);
  }
  void load(const double* p) {
    for (int v = 0; v < NV; ++v) r[v] = load_vec(p, v, mask);
  }
  void store(double* p) const {
    for (int v = 0; v < NV; ++v) {
      if constexpr (kTail) {
        if (v == NV - 1) {
          V::store(p + v * L, r[v], mask);
          continue;
        }
      }
      V::store(p + v * L, r[v]);
    }
  }
  void zero() {
    for (int v = 0; v < NV; ++v) r[v] = V::zero();
  }
  /// r -= a * p, per element.
  void sub_mul(Reg a, const double* p) {
    for (int v = 0; v < NV; ++v) {
      r[v] = V::sub(r[v], V::mul(a, load_vec(p, v, mask)));
    }
  }
  /// r -= a * o.r, per element: a term whose operand is still in the
  /// registers of the strip that just finished it.
  void sub_mul(Reg a, const Strip& o) {
    for (int v = 0; v < NV; ++v) r[v] = V::sub(r[v], V::mul(a, o.r[v]));
  }
  /// r -= a * p and o.r -= b * p, per element, each p vector loaded once.
  void sub_mul2(Reg a, Strip& o, Reg b, const double* p) {
    for (int v = 0; v < NV; ++v) {
      const Reg x = load_vec(p, v, mask);
      r[v] = V::sub(r[v], V::mul(a, x));
      o.r[v] = V::sub(o.r[v], V::mul(b, x));
    }
  }
  /// r += a * p, per element, through V::fma (bound kernels only).
  void fma(Reg a, const double* p) {
    for (int v = 0; v < NV; ++v) r[v] = V::fma(a, load_vec(p, v, mask), r[v]);
  }
  /// r *= a, per element.
  void mul(Reg a) {
    for (int v = 0; v < NV; ++v) r[v] = V::mul(r[v], a);
  }
  /// r += p * a, per element.
  void add_mul(Reg a, const double* p) {
    for (int v = 0; v < NV; ++v) {
      r[v] = V::add(r[v], V::mul(load_vec(p, v, mask), a));
    }
  }
  /// r += p², per element.
  void add_sq(const double* p) {
    for (int v = 0; v < NV; ++v) {
      const Reg x = load_vec(p, v, mask);
      r[v] = V::add(r[v], V::mul(x, x));
    }
  }
  /// r += (p - b)², per element.
  void add_sq_diff(const double* p, Reg b) {
    for (int v = 0; v < NV; ++v) {
      const Reg diff = V::sub(load_vec(p, v, mask), b);
      r[v] = V::add(r[v], V::mul(diff, diff));
    }
  }
};

/// Run `body` on the remainder strip of NV vectors (the last one partial
/// when `tail`), found by counting NV down from the full strip width.
template <class V, int NV, class Body>
inline void remainder_strip(std::size_t c, std::size_t vecs, bool tail,
                            std::size_t part, Body& body) {
  if constexpr (NV > 0) {
    if (vecs != static_cast<std::size_t>(NV)) {
      remainder_strip<V, NV - 1>(c, vecs, tail, part, body);
    } else if (tail) {
      Strip<V, NV, true> s{};
      s.mask = V::tail_mask(part);
      body(c, s);
    } else {
      body(c, Strip<V, NV, false>{});
    }
  }
}

/// Cover [0, len) with strips: full NV-vector strips, then one strip of
/// the remaining whole vectors plus a masked partial one. Calls
/// body(offset, strip) with a strip whose mask is set and whose registers
/// are uninitialized.
template <class V, int NV = kStripVecs, class Body>
inline void for_each_strip(std::size_t len, Body&& body) {
  constexpr std::size_t L = V::kLanes;
  constexpr std::size_t kWidth = NV * L;
  std::size_t c = 0;
  for (; c + kWidth <= len; c += kWidth) {
    body(c, Strip<V, NV, false>{});
  }
  const std::size_t rem = len - c;
  if (rem == 0) return;
  const std::size_t part = rem % L;
  remainder_strip<V, NV>(c, (rem + L - 1) / L, part != 0, part, body);
}

/// Check, square-root and scale column j of the factor, held unscaled in
/// mirror row j: L(j,j) = sqrt(d), L(i,j) = sum · (1/L(j,j)) below it,
/// written to the mirror row and the row-major factor. False when the
/// diagonal is not positive.
inline bool finish_column(double* lf, double* ltj, std::size_t ld,
                          std::size_t j, std::size_t n) {
  const double d = ltj[j];
  if (!(d > 0.0)) return false;
  const double ljj = std::sqrt(d);
  // One reciprocal per column instead of a divide per row below it.
  const double inv_ljj = 1.0 / ljj;
  ltj[j] = ljj;
  lf[j * ld + j] = ljj;
  for (std::size_t i = j + 1; i < n; ++i) {
    const double lij = ltj[i] * inv_ljj;
    ltj[i] = lij;
    lf[i * ld + j] = lij;
  }
  return true;
}

/// Left-looking Cholesky; see KernelOps::cholesky_factor. Columns go in
/// pairs: one sweep over k < j feeds both column j and column j+1 from the
/// same loaded mirror rows, then column j is finished, column j+1 takes
/// its last term k = j, and is finished in turn — for every element still
/// the k-ascending sequence of the one-column loop.
template <class V>
inline std::size_t cholesky_factor(double* lf, double* ltf, std::size_t ld,
                                   std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    double* lta = ltf + j * ld;
    double* ltb = lta + ld;
    // The strip starting at row j covers row j of column j+1, which is
    // above its diagonal: a scratch lane, zeroed so it stays finite.
    ltb[j] = 0.0;
    for_each_strip<V>(n - j, [&](std::size_t c, auto sa) {
      const std::size_t i0 = j + c;
      auto sb = sa;
      sa.load(lta + i0);
      sb.load(ltb + i0);
      for (std::size_t k = 0; k < j; ++k) {
        const double* ltk = ltf + k * ld;
        sa.sub_mul2(V::set1(ltk[j]), sb, V::set1(ltk[j + 1]), ltk + i0);
      }
      sa.store(lta + i0);
      sb.store(ltb + i0);
    });
    if (!finish_column(lf, lta, ld, j, n)) return j;
    const double lbj = lta[j + 1];
    for (std::size_t i = j + 1; i < n; ++i) ltb[i] = ltb[i] - lbj * lta[i];
    if (!finish_column(lf, ltb, ld, j + 1, n)) return j + 1;
  }
  if (j < n) {  // odd n: the last column is its diagonal alone
    double* ltj = ltf + j * ld;
    for (std::size_t k = 0; k < j; ++k) {
      const double ljk = ltf[k * ld + j];
      ltj[j] = ltj[j] - ljk * ljk;
    }
    if (!finish_column(lf, ltj, ld, j, n)) return j;
  }
  return n;
}

/// Forward substitution; see KernelOps::solve_lower_multi.
template <class V>
inline void solve_lower_multi(const double* lf, std::size_t ld, double* v,
                              std::size_t ldv, std::size_t m,
                              std::size_t n) {
  for_each_strip<V>(m, [&](std::size_t c, auto sa) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const double* la = lf + i * ld;
      const double* lb = la + ld;
      auto sb = sa;
      sa.load(v + i * ldv + c);
      sb.load(v + (i + 1) * ldv + c);
      for (std::size_t k = 0; k < i; ++k) {
        sa.sub_mul2(V::set1(la[k]), sb, V::set1(lb[k]), v + k * ldv + c);
      }
      sa.mul(V::set1(1.0 / la[i]));
      sa.store(v + i * ldv + c);
      sb.sub_mul(V::set1(lb[i]), sa);
      sb.mul(V::set1(1.0 / lb[i + 1]));
      sb.store(v + (i + 1) * ldv + c);
    }
    if (i < n) {
      const double* li = lf + i * ld;
      sa.load(v + i * ldv + c);
      for (std::size_t k = 0; k < i; ++k) {
        sa.sub_mul(V::set1(li[k]), v + k * ldv + c);
      }
      sa.mul(V::set1(1.0 / li[i]));
      sa.store(v + i * ldv + c);
    }
  });
}

/// Back substitution; see KernelOps::solve_lower_transpose_multi.
template <class V>
inline void solve_lower_transpose_multi(const double* ltf, std::size_t ld,
                                        double* v, std::size_t ldv,
                                        std::size_t m, std::size_t n) {
  for_each_strip<V>(m, [&](std::size_t c, auto s) {
    for (std::size_t ii = n; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      const double* lti = ltf + i * ld;
      s.load(v + i * ldv + c);
      for (std::size_t k = i + 1; k < n; ++k) {
        s.sub_mul(V::set1(lti[k]), v + k * ldv + c);
      }
      s.mul(V::set1(1.0 / lti[i]));
      s.store(v + i * ldv + c);
    }
  });
}

/// KernelOps::givens_row_update, one vector at a time: per element the
/// scalar loop's two products, then one add and one subtract.
template <class V>
inline void givens_row_update(double* lrow, double* v, double c, double s,
                              std::size_t len) {
  const typename V::Reg vc = V::set1(c), vs = V::set1(s);
  for_each_strip<V, 1>(len, [&](std::size_t j, auto sl) {
    auto sv = sl;
    sl.load(lrow + j);
    sv.load(v + j);
    const typename V::Reg l = sl.r[0], w = sv.r[0];
    sl.r[0] = V::add(V::mul(vc, l), V::mul(vs, w));
    sv.r[0] = V::sub(V::mul(vc, w), V::mul(vs, l));
    sv.store(v + j);
    sl.store(lrow + j);
  });
}

/// Squared distances; see KernelOps::sq_dist_rows.
template <class V>
inline void sq_dist_rows(const double* xt, std::size_t ldx, std::size_t n,
                         std::size_t d, const double* q, std::size_t ldq,
                         std::size_t rows, double* out, std::size_t ldo) {
  for_each_strip<V>(n, [&](std::size_t c, auto s) {
    for (std::size_t r = 0; r < rows; ++r) {
      const double* qr = q + r * ldq;
      s.zero();
      for (std::size_t k = 0; k < d; ++k) {
        s.add_sq_diff(xt + k * ldx + c, V::set1(qr[k]));
      }
      s.store(out + r * ldo + c);
    }
  });
}

/// Column sums; see KernelOps::column_dots (kSquare = false, weights w)
/// and KernelOps::column_sq_sums (kSquare = true, w unused).
template <class V, bool kSquare>
inline void column_sums(const double* v, std::size_t ldv, std::size_t n,
                        std::size_t m, const double* w, double* out) {
  for_each_strip<V>(m, [&](std::size_t c, auto s) {
    s.zero();
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (kSquare) {
        s.add_sq(v + i * ldv + c);
      } else {
        s.add_mul(V::set1(w[i]), v + i * ldv + c);
      }
    }
    s.store(out + c);
  });
}

/// buf[i] = scale · g(buf[i]) for the unit correlation g computed by
/// `unit` on one vector; a masked tail's surplus lanes map zeros and are
/// not stored.
template <class V, class Unit>
inline void correlation_map(double scale, double* buf, std::size_t len,
                            Unit unit) {
  const typename V::Reg vscale = V::set1(scale);
  for_each_strip<V, 1>(len, [&](std::size_t i, auto s) {
    s.load(buf + i);
    s.r[0] = V::mul(vscale, unit(s.r[0]));
    s.store(buf + i);
  });
}

/// KernelOps::correlation: each family's lanes take the scalar form's
/// steps (correlation_from_scaled_sq) — square root, negation, exp, the
/// left-associated polynomial — so a lane differs from it only through
/// V::exp.
template <class V>
inline void correlation(KernelFamily family, double scale, double* buf,
                        std::size_t len) {
  using Reg = typename V::Reg;
#ifdef STORMTUNE_CHECKED
  // Agreement sampling: up to four inputs, kept before the map overwrites
  // them, go through the scalar form afterwards. libmvec's lanes are
  // within a few ulp of a correctly rounded exp, so 1e-12 relative (plus
  // an absolute floor for results near the denormals) leaves three orders
  // of magnitude of margin while catching any reassociated or approximate
  // transform.
  std::size_t sample_idx[4];
  double sample_in[4];
  std::size_t samples = 0;
  if (len > 0) {
    for (const std::size_t c : {std::size_t{0}, len / 3, (2 * len) / 3,
                                len - 1}) {
      if (samples > 0 && sample_idx[samples - 1] == c) continue;
      sample_idx[samples] = c;
      sample_in[samples] = buf[c];
      ++samples;
    }
  }
#endif
  switch (family) {
    case KernelFamily::kSquaredExponential:
      correlation_map<V>(scale, buf, len, [](Reg r2) {
        return V::exp(V::mul(V::set1(-0.5), r2));
      });
      break;
    case KernelFamily::kMatern32:
      correlation_map<V>(scale, buf, len, [](Reg r2) {
        const Reg sr = V::sqrt(V::mul(V::set1(3.0), r2));
        return V::mul(V::add(V::set1(1.0), sr), V::exp(V::sub(V::zero(), sr)));
      });
      break;
    case KernelFamily::kMatern52:
      correlation_map<V>(scale, buf, len, [](Reg r2) {
        const Reg sr = V::sqrt(V::mul(V::set1(5.0), r2));
        const Reg poly = V::add(V::add(V::set1(1.0), sr),
                                V::div(V::mul(sr, sr), V::set1(3.0)));
        return V::mul(poly, V::exp(V::sub(V::zero(), sr)));
      });
      break;
  }
#ifdef STORMTUNE_CHECKED
  for (std::size_t k = 0; k < samples; ++k) {
    const double ref = scale * correlation_from_scaled_sq(family, sample_in[k]);
    const double got = buf[sample_idx[k]];
    const double tol =
        1e-12 * std::max(std::fabs(ref), std::fabs(got)) + 1e-280;
    STORMTUNE_INVARIANT(std::fabs(got - ref) <= tol,
                        "correlation: a lane disagrees with the scalar form "
                        "beyond ulp tolerance");
  }
#endif
}

/// bound_sums over the NV column vectors from column j, the last one
/// holding only d − j − (NV − 1)·L columns when kTail is set: per weight
/// set, six accumulators per vector, each X row loaded once.
template <class V, int NV, bool kTail>
inline void bound_sums_block(const double* x, std::size_t ldx, std::size_t n,
                             std::size_t d, const double* w, std::size_t sets,
                             double* out, std::size_t j) {
  using Reg = typename V::Reg;
  constexpr std::size_t L = V::kLanes;
  const typename V::Mask mask =
      V::tail_mask(kTail ? d - j - (NV - 1) * L : 1);
  const auto load = [&](const double* p, int v) {
    if constexpr (kTail) {
      if (v == NV - 1) return V::load(p + v * L, mask);
    }
    return V::load(p + v * L);
  };
  for (std::size_t s = 0; s < sets; ++s) {
    const double* a = w + 4 * n * s;
    const double* b = a + n;
    const double* c = b + n;
    const double* e = c + n;
    Reg acc[6][NV];
    for (auto& q : acc) {
      for (Reg& r : q) r = V::zero();
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double* xi = x + i * ldx + j;
      const Reg wa = V::set1(a[i]), wb = V::set1(b[i]);
      const Reg wc = V::set1(c[i]), we = V::set1(e[i]);
      for (int v = 0; v < NV; ++v) {
        const Reg xv = load(xi, v);
        const Reg x2 = V::mul(xv, xv);
        acc[0][v] = V::fma(xv, wa, acc[0][v]);
        acc[1][v] = V::fma(xv, wb, acc[1][v]);
        acc[2][v] = V::fma(x2, wb, acc[2][v]);
        acc[3][v] = V::fma(xv, wc, acc[3][v]);
        acc[4][v] = V::fma(xv, we, acc[4][v]);
        acc[5][v] = V::fma(x2, we, acc[5][v]);
      }
    }
    double* o = out + 6 * d * s + j;
    for (int q = 0; q < 6; ++q) {
      for (int v = 0; v < NV; ++v) {
        if constexpr (kTail) {
          if (v == NV - 1) {
            V::store(o + q * d + v * L, acc[q][v], mask);
            continue;
          }
        }
        V::store(o + q * d + v * L, acc[q][v]);
      }
    }
  }
}

/// KernelOps::bound_sums, NV column vectors at a time (as many
/// accumulators as the path's registers hold), then single vectors and a
/// masked tail.
template <class V, int NV>
inline void bound_sums(const double* x, std::size_t ldx, std::size_t n,
                       std::size_t d, const double* w, std::size_t sets,
                       double* out) {
  constexpr std::size_t L = V::kLanes;
  std::size_t j = 0;
  for (; j + NV * L <= d; j += NV * L) {
    bound_sums_block<V, NV, false>(x, ldx, n, d, w, sets, out, j);
  }
  for (; j + L <= d; j += L) {
    bound_sums_block<V, 1, false>(x, ldx, n, d, w, sets, out, j);
  }
  if (j < d) bound_sums_block<V, 1, true>(x, ldx, n, d, w, sets, out, j);
}

/// The k < j sweep of cholesky_factor_mirror for the C columns from j:
/// in strips of NV vectors down rows [j, n), each loaded mirror vector
/// feeds all C columns' accumulators through V::fma.
template <class V, int NV, int C>
inline void mirror_sweep(double* ltf, std::size_t ld, std::size_t n,
                         std::size_t j) {
  double* lt[C];
  for (int q = 0; q < C; ++q) {
    lt[q] = ltf + (j + q) * ld;
    // The strips start at row j, above the diagonals of columns j+1..:
    // scratch lanes, zeroed so they stay finite.
    for (int p = 0; p < q; ++p) lt[q][j + p] = 0.0;
  }
  for_each_strip<V, NV>(n - j, [&](std::size_t c, auto s) {
    using S = decltype(s);
    const std::size_t i0 = j + c;
    S acc[C];
    for (int q = 0; q < C; ++q) {
      acc[q] = s;
      acc[q].load(lt[q] + i0);
    }
    for (std::size_t k = 0; k < j; ++k) {
      const double* ltk = ltf + k * ld;
      typename V::Reg a[C];
      for (int q = 0; q < C; ++q) a[q] = V::set1(-ltk[j + q]);
      for (int v = 0; v < S::kVecs; ++v) {
        const typename V::Reg x = S::load_vec(ltk + i0, v, s.mask);
        for (int q = 0; q < C; ++q) acc[q].r[v] = V::fma(a[q], x, acc[q].r[v]);
      }
    }
    for (int q = 0; q < C; ++q) acc[q].store(lt[q] + i0);
  });
}

/// KernelOps::cholesky_factor_mirror, NV vectors per strip: cholesky_factor
/// with columns in fours instead of pairs, so each mirror vector loaded in
/// the k < j sweep feeds four columns' accumulators (half the pair loop's
/// loads per update), every update a V::fma, and no row-major copy
/// written. Column j+q of a block then takes its terms k = j..j+q−1 and
/// is scaled in one strip pass. The last n mod 4 columns are one narrower
/// block.
template <class V, int NV>
inline std::size_t cholesky_factor_mirror(double* ltf, std::size_t ld,
                                          std::size_t n) {
  // Column j+q of a block takes its terms from the block's finished
  // columns j..j+q−1, then is square-rooted and scaled, in one pass.
  const auto finish_block = [&](std::size_t j, std::size_t cols) {
    for (std::size_t q = 0; q < cols; ++q) {
      const std::size_t jq = j + q;
      double* ltq = ltf + jq * ld;
      double d = ltq[jq];
      for (std::size_t p = 0; p < q; ++p) {
        const double lqp = ltf[(j + p) * ld + jq];
        d -= lqp * lqp;
      }
      if (!(d > 0.0)) return jq;
      const double ljj = std::sqrt(d);
      ltq[jq] = ljj;
      const typename V::Reg inv = V::set1(1.0 / ljj);
      typename V::Reg coef[4];
      for (std::size_t p = 0; p < q; ++p) {
        coef[p] = V::set1(-ltf[(j + p) * ld + jq]);
      }
      for_each_strip<V>(n - jq - 1, [&](std::size_t c, auto st) {
        const std::size_t i = jq + 1 + c;
        st.load(ltq + i);
        for (std::size_t p = 0; p < q; ++p) {
          st.fma(coef[p], ltf + (j + p) * ld + i);
        }
        st.mul(inv);
        st.store(ltq + i);
      });
    }
    return n;
  };
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    mirror_sweep<V, NV, 4>(ltf, ld, n, j);
    if (const std::size_t bad = finish_block(j, 4); bad != n) return bad;
  }
  switch (n - j) {
    case 3:
      mirror_sweep<V, NV, 3>(ltf, ld, n, j);
      break;
    case 2:
      mirror_sweep<V, NV, 2>(ltf, ld, n, j);
      break;
    case 1:
      mirror_sweep<V, NV, 1>(ltf, ld, n, j);
      break;
    default:
      return n;
  }
  return finish_block(j, n - j);
}

/// Σ_{j<len} a[j]·b[j] in two lane accumulators, then the lanes and the
/// scalar tail.
template <class V>
inline double bound_dot(const double* a, const double* b, std::size_t len) {
  constexpr std::size_t L = V::kLanes;
  typename V::Reg s0 = V::zero(), s1 = V::zero();
  std::size_t j = 0;
  for (; j + 2 * L <= len; j += 2 * L) {
    s0 = V::fma(V::load(a + j), V::load(b + j), s0);
    s1 = V::fma(V::load(a + j + L), V::load(b + j + L), s1);
  }
  if (j + L <= len) {
    s0 = V::fma(V::load(a + j), V::load(b + j), s0);
    j += L;
  }
  double lanes[L];
  V::store(lanes, V::add(s0, s1));
  double sum = 0.0;
  for (const double v : lanes) sum += v;
  for (; j < len; ++j) sum += a[j] * b[j];
  return sum;
}

/// KernelOps::bound_solve: the forward substitution row by row as lane
/// dot products, then the back substitution column by column, each row of
/// L loaded once to update both w and Lᵀw.
template <class V>
inline void bound_solve(const double* lower, std::size_t ld, std::size_t n,
                        const double* k, double* w, double* lt) {
  constexpr std::size_t L = V::kLanes;
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = lower + i * ld;
    w[i] = (k[i] - bound_dot<V>(li, w, i)) / li[i];
  }
  for (std::size_t i = 0; i < n; ++i) lt[i] = 0.0;
  for (std::size_t ii = n; ii > 0; --ii) {
    // Row i's w is final once divided: only rows above it change later.
    const std::size_t i = ii - 1;
    const double* li = lower + i * ld;
    const double wi = w[i] / li[i];
    w[i] = wi;
    const typename V::Reg up = V::set1(wi), down = V::set1(-wi);
    std::size_t j = 0;
    for (; j + L <= i; j += L) {
      const typename V::Reg l = V::load(li + j);
      V::store(w + j, V::fma(down, l, V::load(w + j)));
      V::store(lt + j, V::fma(up, l, V::load(lt + j)));
    }
    for (; j < i; ++j) {
      w[j] -= li[j] * wi;
      lt[j] += li[j] * wi;
    }
    lt[i] += li[i] * wi;
  }
}

/// One KernelOps::ei_bounds entry through bo::expected_improvement's
/// scalar expression: the portable path, and the wide paths' fallback
/// where libmvec has no vector erfc.
inline double ei_bound_scalar(double mean, double var, double best,
                              double xi, double eps) {
  if (!(std::fabs(mean) < std::numeric_limits<double>::infinity())) {
    return std::numeric_limits<double>::infinity();
  }
  const double imp = mean - best - xi;
  const double pos = imp > 0.0 ? imp : 0.0;
  const double sd = std::sqrt(var);
  double ei = pos;
  if (var != 0.0) {
    const double z = imp / sd;
    ei = imp * (0.5 * std::erfc(-z * 0.70710678118654752440)) +
         sd * (std::exp(-0.5 * z * z) * 0.39894228040143267794);
  }
  return ei + ((eps + kEiBoundUlps) * (pos + sd) +
               eps * (std::fabs(best) + std::fabs(xi)));
}

}  // namespace stormtune::linalg_kernels::detail
