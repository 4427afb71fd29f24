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
costs 2(nu + 1) products of length N/4, one per term and residue 0 or 1
mod 4 (E_(k-2nu)(4z) lives on q^(4i), theta on squares), so k = 6, 8, 10
take four.  Each bracket is zero at n = 2, 3 mod 4 by construction, so
every basis form has plus support through full precision; the
correspondence checker below certifies the outcome independently.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, lcm
from typing import List

from .arith import is_fundamental_discriminant, kronecker
from .exact import kernel
from .modforms import PrecisionError, QExpansion, _cached, _convolve_int, _sigma_list


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


def _combination(series: List[QExpansion], coeffs: List[Fraction]) -> QExpansion:
    """sum_i coeffs[i] * series[i]."""
    out = series[0].scale(coeffs[0])
    for x, c in zip(series[1:], coeffs[1:]):
        out = out + x.scale(c)
    return out


def _sturm_bound(k: int) -> int:
    """The last coefficient index the kernel reads: at least 32 and twice the
    Sturm bound (2k + 1)/4 of weight k + 1/2 on Gamma0(4), rounded up."""
    return max(32, -(-(2 * k + 1) * 6 // 24) * 2)


def _bernoulli(n: int) -> Fraction:
    """B_n from sum_{j <= m} C(m + 1, j) B_j = 0 for m >= 1, B_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


def _eisenstein_4z(w: int, prec: int) -> QExpansion:
    """E_w(4z) = 1 - (2w / B_w) sum sigma_(w-1)(n) q^(4n), weight w on Gamma0(4)."""
    c = -2 * w / _bernoulli(w)
    sig = _sigma_list(w - 1, (prec + 3) // 4)
    num = [0] * prec
    num[0] = c.denominator
    for n in range(1, len(sig)):
        num[4 * n] = c.numerator * sig[n]
    return QExpansion(w, 4, num, c.denominator)


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

    E_w(4z) lives on q^(4i) and theta on q^(j^2), j^2 = 0 or 1 mod 4, so the
    coefficients at n = eps mod 4 (eps = 0, 1) of a term are the product of
    (D^r E)[0::4] with (D^(nu-r) theta)[eps::4], and those at 2, 3 mod 4 are
    zero: 2(nu + 1) products of length about prec/4, over a factor with
    about sqrt(prec)/2 nonzero terms."""
    e, th = _eisenstein_4z(w, prec), theta_half(prec)
    cs = _bracket_coefficients(w, nu)
    l = lcm(*(c.denominator for c in cs))
    pos = (range(0, prec, 4), range(1, prec, 4))
    acc = [[0] * len(p) for p in pos]
    for r, c in enumerate(cs):
        a = c.numerator * (l // c.denominator)
        de = [(4 * i) ** r * x for i, x in enumerate(e.num[0::4])]
        for eps, p in enumerate(pos):
            dth = [a * n ** (nu - r) * x if x else 0 for n, x in zip(p, th.num[eps::4])]
            acc[eps] = [s + t for s, t in zip(acc[eps], _convolve_int(de, dth, len(p)))]
    num = [0] * prec
    num[0::4], num[1::4] = acc
    return QExpansion._raw(Fraction(2 * (w + 2 * nu) + 1, 2), 4, num, l * e.den * th.den)


def plus_cusp_basis(k: int, prec: int) -> List[QExpansion]:
    """Basis of the weight k + 1/2 plus cusp space on Gamma0(4),
    c(1)-normalized.

    k must be even; prec must clear the solvability threshold 8k so the
    imposed support conditions pin the space.
    """
    if k % 2 != 0 or k < 6:
        raise ValueError("k must be even and at least 6")
    if prec < 8 * k:
        raise PrecisionError("precision below the solvability threshold")

    def build():
        d, m, nrows = k // 6, k // 2, _sturm_bound(k) + 1  # d = dim S_2k(SL2(Z))
        brackets = [_bracket(k - 2 * nu, nu, prec) for nu in range(1, d + 1)]  # sum 2(nu + 1) products
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
        for w in sol:
            g = _combination(brackets, [-c * x.den for c, x in zip(w, brackets)])  # v_c = w_c den_c
            lead = g.num[1] if g.num[1] != 0 else next(c for c in g.num if c != 0)
            out.append(g.scale(Fraction(g.den, lead)))
        return out

    return _cached(("plus_basis", k), prec, build)


def shimura_lift_check(g: QExpansion, f: QExpansion, D: int, n_max: int) -> bool:
    """Exact correspondence check for all n <= n_max, with g of weight
    k + 1/2 on Gamma0(4):

        sum_{d | n} chi_D(d) d^(k-1) c(D n^2 / d^2)  ==  c(D) a_n(f).
    """
    if g.level != 4 or g.weight.denominator != 2:
        raise ValueError("half-integral form must have level 4 and weight k + 1/2")
    k = g.weight.numerator // 2
    if f.weight != 2 * k or f.level != 1:
        raise ValueError("integral form must have level 1 and weight 2k")
    if not is_fundamental_discriminant(D):
        raise ValueError("D must be a positive fundamental discriminant (or 1)")
    if D * n_max * n_max >= g.precision or n_max >= f.precision:
        raise PrecisionError("insufficient precision for the lift check")
    cD = g.coeff(D)
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for d in range(1, n + 1):
            if n % d == 0:
                acc += kronecker(D, d) * d ** (k - 1) * g.coeff(D * (n // d) ** 2)
        if acc != cD * f.coeff(n):
            return False
    return True
