"""The Kohnen plus space of weight k + 1/2 on Gamma0(4) and its lift data.

The space lies in the span of the monomials theta * A^(m-j) * F^j with
A = theta^4 and m = k/2.  Its c(1)-normalized basis is the kernel of
exact linear algebra: impose c(0) = 0 together with the plus-support
condition c(n) = 0 for n == 2, 3 (mod 4) up to a Sturm-style bound.
Truncation commutes with products, so the kernel is solved on monomials
built only to that bound; each kernel vector is then evaluated at full
precision by Horner in A and F, in 2m + 1 full-precision products in all
for a one-dimensional space.  The plus subspace of the full modular space
splits as a one-dimensional Eisenstein line with nonvanishing constant
term plus the cusp part, so killing c(0) inside the plus space is exactly
cuspidality; the support check through full precision and the
correspondence checker below certify the outcome independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .arith import is_fundamental_discriminant, kronecker
from .modforms import PrecisionError, QExpansion, _cached


def theta_half(prec: int) -> QExpansion:
    """theta = 1 + 2 sum q^(n^2), weight 1/2 on Gamma0(4)."""
    if prec < 2:
        raise PrecisionError("precision must be at least 2")

    def build():
        coeffs = [0] * prec
        coeffs[0] = 1
        n = 1
        while n * n < prec:
            coeffs[n * n] = 2
            n += 1
        return QExpansion(Fraction(1, 2), 4, coeffs)

    return _cached(("theta", prec), build)


def weight2_F(prec: int) -> QExpansion:
    """F = sum_{n odd} sigma_1(n) q^n, weight 2 on Gamma0(4)."""
    if prec < 2:
        raise PrecisionError("precision must be at least 2")

    def build():
        sums = [0] * prec
        for d in range(1, prec, 2):
            for m in range(d, prec, 2 * d):  # odd multiples of odd d
                sums[m] += d
        return QExpansion(2, 4, sums)

    return _cached(("F", prec), build)


def _powers(x: QExpansion, m: int) -> List[QExpansion]:
    """[x, x^2, ..., x^m] in m - 1 products."""
    out = [x]
    for _ in range(m - 1):
        out.append(out[-1] * x)
    return out


def _generators(prec: int, m: int):
    """theta, A = theta^4 and [F, ..., F^m] at precision prec, cached under
    keys holding prec so that the bases of all weights at prec share them."""
    th = theta_half(prec)
    th2 = _cached(("theta^2", prec), lambda: th * th)
    a = _cached(("theta^4", prec), lambda: th2 * th2)
    f_pows = [weight2_F(prec)]
    for j in range(2, m + 1):
        f_pows.append(_cached(("F^j", j, prec), lambda: f_pows[-1] * f_pows[0]))
    return th, a, f_pows


def _rational_kernel(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Kernel basis, reduced-echelon convention, exact arithmetic."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


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
        m = k // 2  # monomials theta * A^(m-j) * F^j, A = theta^4, 0 <= j <= m
        bound = max(32, -(-(2 * k + 1) * 6 // 24) * 2)  # Sturm-style, margin x2
        # truncation commutes with products, so the kernel read from
        # c(0) .. c(bound) only needs the monomials at precision bound + 1
        th, a, f_pows = _generators(bound + 1, m)
        a_pows = _powers(a, m)
        mons = [th * a_pows[m - 1]]
        mons += [th * a_pows[m - j - 1] * f_pows[j - 1] for j in range(1, m)]
        mons.append(th * f_pows[m - 1])
        rows = [[g.coeff(0) for g in mons]]
        for n in range(2, bound + 1):
            if n % 4 in (2, 3):
                rows.append([g.coeff(n) for g in mons])
        kernel = _rational_kernel(rows, m + 1)

        th, a, f_pows = _generators(prec, m)  # m + 1 full-precision products, cold
        out = []
        for v in kernel:
            h = a.scale(v[0]) + f_pows[0].scale(v[1])  # Horner in A
            for j in range(2, m + 1):
                h = h * a + f_pows[j - 1].scale(v[j])
            g = th * h
            # plus condition must then hold through full precision
            bad = next((n for n in range(prec) if n % 4 in (2, 3) and g.num[n] != 0), None)
            if bad is not None:
                raise AssertionError(f"plus support violated at q^{bad}")
            lead = g.num[1] if g.num[1] != 0 else next(c for c in g.num if c != 0)
            out.append(g.scale(Fraction(g.den, lead)))
        return out

    return _cached(("plus_basis", k, prec), build)


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
