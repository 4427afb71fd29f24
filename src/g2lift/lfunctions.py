"""Central L-values of level-one eigenforms and their quadratic twists,
plus the exact Euler-factor algebra of the degree-7 standard L-function.

Twisted central values use the smoothed series

    L(k, f x chi_D) = (1 + w) sum_n a_n chi_D(n) n^-k Gamma(k, 2 pi n / D) / Gamma(k)

with root number w = +1 (level one, k even, D > 0), self-validated by
recomputing with the free cutoff parameter doubled; the incomplete gamma
of integer order is the finite sum e^-x sum_{j<k} x^j / j!.

An Euler factor is one ``exact.Poly`` in the Satake unit a, a formal
square root r of p, and T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import BadInput, Refusal, is_fundamental_discriminant, kronecker
from .exact import Poly
from .modforms import QExpansion


class SeriesInstability(Refusal, ArithmeticError):
    """Raised when independent cutoffs disagree beyond tolerance."""

    code, exit_code = "SERIES_INSTABILITY", 3


# ---------------------------------------------------------------------------
# central values

def gamma_inc_ratio(k: int, x: float) -> float:
    """Gamma(k, x) / Gamma(k) = e^-x sum_{j<k} x^j / j! for integer k >= 1."""
    term = 1.0
    acc = 1.0
    for j in range(1, k):
        term *= x / j
        acc += term
    return math.exp(-x) * acc


@dataclass(frozen=True)
class LValue:
    value: float
    abs_error_bound: float
    terms_used: int


def _smoothed_sum(f: QExpansion, D: int, k: int, x: float, n_max: int, use_mpmath: bool = False):
    """sum a_n chi_D(n) n^-k Gamma(k, 2 pi n x / D) / Gamma(k)."""
    if use_mpmath:
        import mpmath

        with mpmath.workdps(40):
            acc = mpmath.mpf(0)
            for n in range(1, n_max + 1):
                chi = kronecker(D, n)
                if chi == 0:
                    continue
                c = f.coeff(n)
                xx = 2 * mpmath.pi * n * x / D
                acc += chi * mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** k * mpmath.gammainc(k, xx, regularized=True)
            return float(acc)
    acc = 0.0
    for n in range(1, n_max + 1):
        chi = kronecker(D, n)
        if chi == 0:
            continue
        acc += chi * (f.num[n] / f.den) * n ** (-k) * gamma_inc_ratio(k, 2 * math.pi * n * x / D)
    return acc


def _cutoff_terms(D: int, k: int, tol: float) -> int:
    """Smallest n_max = 16 + 8i with a safely negligible tail.

    Tail terms are a_n chi(n) n^-k Gamma(k, 2 pi n/D)/Gamma(k) with
    |a_n| n^-k <= d(n)/sqrt(n) <= sqrt(n); n itself is a lazy upper bound
    for the geometric-tail multiplier, so demand term * n < tol * 1e-3.

    The bound b(n) = Q(k, 2 pi n/D) n^(3/2) is log-concave in n (Q(k, x) is
    the survival function of the log-concave Gamma(k) law), so it exceeds
    the threshold on one interval: if it does at n = 16, the predicate holds
    up to some i* and fails from there on, and doubling i and then
    bisection find i* in O(log D) evaluations."""

    def above(i):
        n = 16 + 8 * i
        return gamma_inc_ratio(k, 2 * math.pi * n / D) * n * math.sqrt(n) > tol * 1e-3

    lo, hi = -1, 0  # above(lo) is true (by convention at -1); doubling ends with above(hi) false
    while above(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 16 + 8 * hi


def central_twisted_value(f: QExpansion, D: int = 1, tol: float = 1e-10, ext_float: bool = False) -> LValue:
    """Central value L(k, f x chi_D) of the unnormalized twisted L-series.

    f must be a certified level-one eigenform of weight 2k with k even, so
    that the root number is +1; D a positive fundamental discriminant (or
    1).  Two runs with the cutoff parameter doubled must agree within tol,
    else SeriesInstability is raised.
    """
    if not math.isfinite(tol):
        raise BadInput("tol must be finite")
    if tol < 1e-12:
        raise BadInput("tol below supported floating accuracy")
    if f.level != 1 or f.weight.denominator != 1 or int(f.weight) % 4 != 0:
        raise BadInput("level-one eigenform of weight 2k with k even required")
    if not is_fundamental_discriminant(D):
        raise BadInput("D must be a positive fundamental discriminant (or 1)")
    two_k = int(f.weight)
    k = two_k // 2
    w = 1.0  # root number: level one, k even, D > 0
    base = _cutoff_terms(D, k, tol)
    if 2 * base >= f.precision:
        raise BadInput(f"need at least {2 * base + 1} coefficients, have {f.precision}")
    s1 = _smoothed_sum(f, D, k, 1.0, base, ext_float)
    val1 = (1.0 + w) * s1
    # doubled cutoff parameter splits the two functional-equation halves;
    # the x = 1/2 half decays at half speed, so scale its term count
    s_a = _smoothed_sum(f, D, k, 2.0, base, ext_float)
    s_b = _smoothed_sum(f, D, k, 0.5, 2 * base, ext_float)
    val2 = s_a + w * s_b
    err = abs(val1 - val2) + 1e-14 * (1 + abs(val1))
    if err > tol:
        raise SeriesInstability(f"series instability: {val1} vs {val2}")
    return LValue(value=val1, abs_error_bound=err, terms_used=3 * base)


# ---------------------------------------------------------------------------
# formal Euler-factor algebra

def _euler_factor(*roots) -> Poly:
    """prod (1 - a^i r^j T) over the exponent pairs (i, j) of the roots."""
    return math.prod(1 - Poly.monomial(i, j, 1) for i, j in roots)


def std7_euler_factor() -> Poly:
    """The degree-7 polynomial in T with roots
    1, a^2, a^-2, a r, a^-1 r, a r^-1, a^-1 r^-1  (r = formal p^(1/2))."""
    return _euler_factor((0, 0), (2, 0), (-2, 0), (1, 1), (-1, 1), (1, -1), (-1, -1))


def sym2_factor() -> Poly:
    """(1 - T)(1 - a^2 T)(1 - a^-2 T)."""
    return _euler_factor((0, 0), (2, 0), (-2, 0))


def shifted_pair_factor(shift: int) -> Poly:
    """(1 - a r^shift T)(1 - a^-1 r^shift T) for shift in {1, -1}."""
    return _euler_factor((1, shift), (-1, shift))


def factorization_check() -> bool:
    """Exact identity: std7 = sym2 * (half-shift up) * (half-shift down)."""
    return std7_euler_factor() == sym2_factor() * shifted_pair_factor(1) * shifted_pair_factor(-1)


def std7_numeric_check(alpha: complex, p: int, T: complex, tol: float = 1e-14) -> bool:
    """Spot-check the factorization as complex numbers."""
    rp = math.sqrt(p)
    lhs = std7_euler_factor().at(alpha, rp, T)
    prod = 1.0 + 0j
    for root in (
        1,
        alpha**2,
        alpha**-2,
        alpha * rp,
        rp / alpha,
        alpha / rp,
        1 / (alpha * rp),
    ):
        prod *= 1 - root * T
    return abs(lhs - prod) <= tol * max(1.0, abs(prod))
