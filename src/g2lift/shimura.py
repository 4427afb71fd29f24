"""The Kohnen plus space of weight k + 1/2 on Gamma0(4) and its lift data.

By Kohnen's isomorphism S+_(k+1/2) = S_2k(SL2(Z)) (W. Kohnen, "Modular
forms of half-integral weight on Gamma0(4)", Math. Ann. 248, 1980) the
plus cusp space has dimension d = k // 6 for every even k.  Cohen's
brackets b_nu = [E_(k-2nu)(4z), theta]_nu, nu = 1 .. d, are plus-space
cusp forms of weight k + 1/2 (Kohnen-Zagier write the k = 6 form as the
nu = 1 bracket), and the monomials theta * A^(m-j) * F^j, A = theta^4,
m = k/2, are a basis of the whole weight k + 1/2 space on Gamma0(4).

The basis is one exact kernel over the columns [b_1 .. b_d | monomials],
read on c(0) .. c(bound) with bound at least the Sturm bound (2k + 1)/4.
A kernel vector v equates -sum v_nu b_nu with a monomial combination
through q^bound; both are forms of weight k + 1/2 on Gamma0(4), so they
are equal.  The monomials are independent, so the kernel has dimension
d; its vectors are all nonzero on the monomials exactly when the
brackets are independent, and then the brackets span the plus cusp
space.  Each kernel vector frees one monomial column, as a kernel of the
c(0) and plus-support rows on the monomials alone would, so both give the
same basis.  The kernel is solved on the columns' integer numerators, the
brackets' one full-precision build and monomials built only to that bound,
as truncation commutes with products.  At full precision N a bracket b_nu
is a lacunary sum and no product: E_(k-2nu)(4z) lives on q^(4i) and theta
on the squares q^(j^2), so on each residue 0 or 1 mod 4 it is a sum of
about sqrt(N)/2 shifted copies of the nu + 1 rows D^r E_(k-2nu)(4z), each
row packed once as one int, at nu + 1 small multiply-adds per copy.  Each
bracket is zero at n = 2, 3 mod 4 by construction, so every basis form has
plus support through full precision; the correspondence checker below
certifies the outcome independently.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, lcm
from typing import List

from .arith import BadInput, is_fundamental_discriminant, kronecker
from .exact import kernel, over_lcm
from .modforms import PrecisionError, QExpansion, _cached, _eisenstein, _sigma_list


def theta_half(prec: int) -> QExpansion:
    """theta = 1 + 2 sum q^(n^2), weight 1/2 on Gamma0(4)."""

    def build():
        coeffs = [1] + [0] * (prec - 1)
        for n in range(1, isqrt(prec - 1) + 1):
            coeffs[n * n] = 2
        return QExpansion(Fraction(1, 2), 4, coeffs)

    return _cached("theta", prec, build)


def weight2_F(prec: int) -> QExpansion:
    """F = sum_{n odd} sigma_1(n) q^n, weight 2 on Gamma0(4)."""

    def build():
        return QExpansion(2, 4, [s if n % 2 else 0 for n, s in enumerate(_sigma_list(1, prec))])

    return _cached("F", prec, build)


def _powers(x: QExpansion, m: int) -> List[QExpansion]:
    """[x, x^2, ..., x^m] in m - 1 products."""
    out = [x]
    for _ in range(m - 1):
        out.append(out[-1] * x)
    return out


def _sturm_bound(k: int) -> int:
    """The last coefficient index the kernel reads: at least 32 and twice the
    Sturm bound (2k + 1)/4 of weight k + 1/2 on Gamma0(4), rounded up."""
    return max(32, -(-(2 * k + 1) * 6 // 24) * 2)


def _bracket_coefficients(w: int, nu: int) -> List[Fraction]:
    """(-1)^r C(nu + w - 1, nu - r) C(nu - 1/2, r) for r = 0 .. nu: Cohen's
    bracket of a weight-w form with a weight-1/2 form."""
    out, half = [], Fraction(1)  # half = C(nu - 1/2, r)
    for r in range(nu + 1):
        out.append((-1) ** r * comb(nu + w - 1, nu - r) * half)
        half = half * (Fraction(2 * nu - 1, 2) - r) / (r + 1)
    return out


def _bracket(w: int, nu: int, prec: int) -> QExpansion:
    """[E_w(4z), theta]_nu = sum_r c_r D^r[E_w(4z)] D^(nu-r)[theta], D = q d/dq,
    a cusp form of weight w + 2 nu + 1/2 on Gamma0(4) in the plus space.

    With E_w(4z) = sum e_i q^(4i) and theta = sum m_j q^(j^2) the bracket is the
    lacunary sum sum_j q^(j^2) sum_r c_r j^(2(nu-r)) m_j D^r E: zero at n = 2, 3
    mod 4, and on n = 4s + eps (eps = j mod 2) a sum of the rows D^r E = [(4i)^r
    e_i] shifted by (j^2 - eps)/4 and scaled by small integers.  Each row is packed
    once as one int of fixed-width binary groups, so a residue costs about
    sqrt(prec)/2 * (nu + 1) multiply-shift-adds of ints of prec/4 groups and no
    product."""
    e, th = _eisenstein(w, 4, prec), theta_half(prec)
    cs, l = over_lcm(_bracket_coefficients(w, nu))
    rows = [[(4 * i) ** r * x for i, x in enumerate(e.num[0::4])] for r in range(nu + 1)]
    # per residue eps, one (shift, [scale of row r]) for each j = eps mod 2, j^2 < prec
    terms = [
        [((j * j - eps) // 4, [a * j ** (2 * (nu - r)) * th.num[j * j] for r, a in enumerate(cs)])
         for j in range(eps, isqrt(prec - 1) + 1, 2)]
        for eps in (0, 1)
    ]
    # M bounds every row entry and every coefficient of either residue, and the
    # groups have Y = 256^width > 2M.  A packed row is sum x_i Y^i exactly (the
    # bias M is packed into each group and taken back as M * sum Y^i), so the
    # shifted sum A is sum_s a_s Y^s exactly, the coefficients a_s at s >= n
    # included.  A + M * sum_(s<n) Y^s is then congruent mod Y^n to
    # sum_(s<n) (a_s + M) Y^s, whose groups lie in [0, 2M] and so in [0, Y):
    # masking with Y^n - 1 leaves exactly those groups, with no borrow.
    tops = [max(map(abs, row)) for row in rows]
    bound = max(tops + [sum(abs(x) * t for _, xs in ts for x, t in zip(xs, tops)) for ts in terms])
    width = (2 * bound).bit_length() // 8 + 1
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * len(rows[0]), "little")  # sum Y^i
    packed = [
        int.from_bytes(b"".join([(x + bound).to_bytes(width, "little") for x in row]), "little") - bound * ones
        for row in rows
    ]
    num = [0] * prec
    for eps, ts in enumerate(terms):
        acc = 0
        for h, xs in ts:
            acc += sum(x * p for x, p in zip(xs, packed)) << (8 * width * h)
        n = len(range(eps, prec, 4))
        raw = ((acc + bound * ones) & ((1 << 8 * width * n) - 1)).to_bytes(width * n, "little")
        num[eps::4] = [int.from_bytes(raw[i : i + width], "little") - bound for i in range(0, width * n, width)]
    return QExpansion._raw(Fraction(2 * (w + 2 * nu) + 1, 2), 4, num, l * e.den * th.den)


def plus_cusp_basis(k: int, prec: int) -> List[QExpansion]:
    """Basis of the weight k + 1/2 plus cusp space on Gamma0(4),
    c(1)-normalized.

    k must be even; prec must clear the solvability threshold 8k so the
    imposed support conditions pin the space.
    """
    if k % 2 != 0 or k < 6:
        raise BadInput("k must be even and at least 6")
    if prec < 8 * k:
        raise PrecisionError("precision below the solvability threshold")

    def build():
        d, m, nrows = k // 6, k // 2, _sturm_bound(k) + 1  # d = dim S_2k(SL2(Z))
        brackets = [_bracket(k - 2 * nu, nu, prec) for nu in range(1, d + 1)]
        # truncation commutes with products, so the kernel read from
        # c(0) .. c(bound) only needs the monomials at precision bound + 1
        th = theta_half(nrows)
        th2 = th * th
        tha = [th] + [th * x for x in _powers(th2 * th2, m)]  # theta A^i, i = 0 .. m
        mons = [tha[m]] + [tha[m - j] * fj for j, fj in enumerate(_powers(weight2_F(nrows), m), 1)]
        sol = kernel([[x.num[n] for x in brackets + mons] for n in range(nrows)], d + m + 1)
        if len(sol) != d or not all(any(w[d:]) for w in sol):
            raise ArithmeticError(f"the brackets do not span the plus cusp forms of weight {k} + 1/2")
        out = []
        for w in sol:  # -sum v_nu b_nu with v_nu = w_nu den_nu: -sum w_nu num_nu in integers
            g = [0] * prec
            for c, b in zip(w, brackets):
                g = [y - c * x for y, x in zip(g, b.num)]
            lead = g[1] if g[1] != 0 else next(c for c in g if c != 0)
            out.append(QExpansion._raw(brackets[0].weight, 4, g, lead))
        return out

    return _cached(("plus_basis", k), prec, build)


def shimura_lift_check(g: QExpansion, f: QExpansion, D: int, n_max: int) -> bool:
    """Exact correspondence check for all n <= n_max, with g of weight
    k + 1/2 on Gamma0(4):

        sum_{d | n} chi_D(d) d^(k-1) c(D n^2 / d^2)  ==  c(D) a_n(f).

    The c(D m^2), m <= n_max, are read once through ``g.coeff`` and scaled to
    integers C_m = L c(D m^2) over the lcm L of their denominators, so each
    side is compared in integers: sum chi_D(d) d^(k-1) C_(n/d) times the
    denominator of a_n equals C_1 times its numerator.
    """
    if g.level != 4 or g.weight.denominator != 2:
        raise BadInput("half-integral form must have level 4 and weight k + 1/2")
    k = g.weight.numerator // 2
    if f.weight != 2 * k or f.level != 1:
        raise BadInput("integral form must have level 1 and weight 2k")
    if not is_fundamental_discriminant(D):
        raise BadInput("D must be a positive fundamental discriminant (or 1)")
    if D * n_max * n_max >= g.precision or n_max >= f.precision:
        raise PrecisionError("insufficient precision for the lift check")
    c = [Fraction(0)] + [g.coeff(D * m * m) for m in range(1, n_max + 1)]  # c(D m^2) at index m
    L = lcm(*[x.denominator for x in c])
    C = [x.numerator * (L // x.denominator) for x in c]
    weights = [0] + [kronecker(D, d) * d ** (k - 1) for d in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        acc = sum(weights[d] * C[n // d] for d in range(1, n + 1) if n % d == 0)
        a = f.coeff(n)
        if acc * a.denominator != C[1] * a.numerator:
            return False
    return True
