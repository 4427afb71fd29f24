"""The Kohnen plus space of weight k + 1/2 on Gamma0(4) and its lift data.

The space is realized inside the span of the monomials theta^(2k+1-4j) F^j
by exact linear algebra: impose c(0) = 0 together with the plus-support
condition c(n) = 0 for n == 2, 3 (mod 4) up to a Sturm-style bound.  The
plus subspace of the full modular space splits as a one-dimensional
Eisenstein line with nonvanishing constant term plus the cusp part, so
killing c(0) inside the plus space is exactly cuspidality; the
correspondence checker below certifies the outcome independently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .modforms import PrecisionError, QExpansion, _cached


def theta_half(prec: int) -> QExpansion:
    """theta = 1 + 2 sum q^(n^2), weight 1/2 on Gamma0(4)."""
    if prec < 2:
        raise ValueError("precision must be at least 2")

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
        raise ValueError("precision must be at least 2")

    def build():
        sums = [0] * prec
        for d in range(1, prec, 2):
            for m in range(d, prec, 2 * d):  # odd multiples of odd d
                sums[m] += d
        return QExpansion(2, 4, sums)

    return _cached(("F", prec), build)


def _monomial_basis(k: int, prec: int) -> List[QExpansion]:
    """theta^(2k+1-4j) F^j for 0 <= j <= floor((2k+1)/4)."""
    th = theta_half(prec)
    ff = weight2_F(prec)
    out = []
    fj = None
    for j in range(0, (2 * k + 1) // 4 + 1):
        fj = ff**j if j else None
        g = th ** (2 * k + 1 - 4 * j)
        out.append(g * fj if fj is not None else g)
    return out


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
        mons = _monomial_basis(k, prec)
        ncols = len(mons)
        bound = max(32, -(-(2 * k + 1) * 6 // 24) * 2)  # Sturm-style, margin x2
        rows = [[g.coeff(0) for g in mons]]
        for n in range(2, bound + 1):
            if n % 4 in (2, 3):
                rows.append([g.coeff(n) for g in mons])
        kernel = _rational_kernel(rows, ncols)
        out = []
        for v in kernel:
            g = mons[0].scale(v[0])
            for j in range(1, ncols):
                g = g + mons[j].scale(v[j])
            # plus condition must then hold through full precision
            bad = next((n for n in range(prec) if n % 4 in (2, 3) and g.num[n] != 0), None)
            if bad is not None:
                raise AssertionError(f"plus support violated at q^{bad}")
            lead = g.num[1] if g.num[1] != 0 else next(c for c in g.num if c != 0)
            out.append(g.scale(Fraction(g.den, lead)))
        return out

    return _cached(("plus_basis", k, prec), build)


def c_coeff(g: QExpansion, t: int) -> Fraction:
    """The coefficient c(-t) for negative integer t; exact zero on the
    excluded residues -t == 2, 3 (mod 4)."""
    if t >= 0:
        raise ValueError("t must be a negative integer")
    n = -t
    if n % 4 in (2, 3):
        return Fraction(0)
    return g.coeff(n)


def is_fundamental_discriminant(D: int) -> bool:
    """Positive fundamental discriminant, with 1 included as the trivial case."""
    if D == 1:
        return True
    if D <= 0:
        return False
    if D % 4 == 1:
        return _is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and _is_squarefree(m)
    return False


def _is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def shimura_lift_check(g: QExpansion, f: QExpansion, D: int, n_max: int) -> bool:
    """Exact correspondence check for all n <= n_max, with g of weight
    k + 1/2 on Gamma0(4):

        sum_{d | n} chi_D(d) d^(k-1) c(D n^2 / d^2)  ==  c(D) a_n(f).
    """
    from .lfunctions import _kronecker

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
                acc += _kronecker(D, d) * d ** (k - 1) * g.coeff(D * (n // d) ** 2)
        if acc != cD * f.coeff(n):
            return False
    return True
