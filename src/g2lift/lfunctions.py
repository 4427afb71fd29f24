"""Central L-values of level-one eigenforms and their quadratic twists.

Twisted central values use the smoothed series

    L(k, f x chi_D) = (1 + w) sum_n a_n chi_D(n) n^-k Gamma(k, 2 pi n / D) / Gamma(k)

with root number w = +1 (level one, k even, D > 0), self-validated by
recomputing with the free cutoff parameter doubled; the incomplete gamma
of integer order is the finite sum e^-x sum_{j<k} x^j / j!.  The error
bound of a value is the disagreement of those two cutoffs.  The three
smoothed sums this takes are one pass over n: chi_D(n) is read from a
table of its D values (it has period D), and each a_n chi_D(n) n^-k is
formed once for every sum it enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import BadInput, Refusal, is_fundamental_discriminant, kronecker
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
    """A central value, the bound on its error, and terms_used = 3 base:
    the terms of the doubled-cutoff sums S(2) (n <= base) and S(1/2)
    (n <= 2 base) of ``_central_sums``.  With S(1)'s base terms the
    sums add 4 base terms over 2 base distinct n, so terms_used counts
    neither the terms added nor the coefficients read."""

    value: float
    abs_error_bound: float
    terms_used: int


def _chi_table(D: int) -> list:
    """[kronecker(D, r) for r < D]: chi_D(n) = table[n % D] for every n >= 1.

    For a fundamental D > 0, n -> kronecker(D, n) has period D on n >= 1.
    If gcd(n, D) > 1, then gcd(n + D, D) > 1 and both values are 0.  Else
    write n = 2^s u with u odd.  For D = 1 mod 4, kronecker(D, 2) = (2/D)
    (both read D mod 8) and Jacobi reciprocity gives (D/u) = (u/D), so the
    value is the Jacobi symbol (n/D).  For D = 4m, n is odd and the value
    is (m/n) = (2/n)^t (m'/n) with m = 2^t m', m' odd and t <= 1; by
    reciprocity (m'/n) is (n/m') times a sign read off n mod 4, and (2/n)
    reads n mod 8, so the value depends on n mod 8m' (t = 1, D = 8m') or
    n mod 4m' (t = 0, D = 4m'), that is on n mod D."""
    return [kronecker(D, r) for r in range(D)]


def _central_sums(f: QExpansion, D: int, k: int, base: int) -> tuple:
    """(S(1), S(2), S(1/2)) in one pass over n, where

        S(x) = sum_n a_n chi_D(n) n^-k Gamma(k, 2 pi n x / D) / Gamma(k)

    runs to n = base for x = 1 and 2 and to 2 base for x = 1/2.  Each n
    reads chi_D from ``_chi_table`` and forms chi_D(n) a_n n^-k once for the
    sums it enters; every product and sum is taken in the order of three
    separate sums, so the floats are the same."""
    chi = _chi_table(D)
    num, den, two_pi = f.num, f.den, 2 * math.pi
    s1 = s2 = sh = 0.0
    for n in range(1, 2 * base + 1):
        c = chi[n % D]
        if c:
            t = c * (num[n] / den) * n ** (-k)
            y = two_pi * n
            if n <= base:
                s1 += t * gamma_inc_ratio(k, y / D)
                s2 += t * gamma_inc_ratio(k, y * 2.0 / D)
            sh += t * gamma_inc_ratio(k, y * 0.5 / D)
    return s1, s2, sh


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


def central_twisted_value(f: QExpansion, D: int = 1, tol: float = 1e-10) -> LValue:
    """Central value L(k, f x chi_D) of the unnormalized twisted L-series.

    f must be a certified level-one eigenform of weight 2k with k even, so
    that the root number is +1; D a positive fundamental discriminant (or
    1).  Two runs with the cutoff parameter doubled must agree within tol,
    else SeriesInstability is raised.  terms_used is 3 base, the terms of
    the doubled-cutoff run S(2) + S(1/2); the sums add 4 base terms over
    2 base distinct n (see ``LValue``).
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
    # doubled cutoff parameter splits the two functional-equation halves;
    # the x = 1/2 half decays at half speed, so scale its term count
    s1, s_a, s_b = _central_sums(f, D, k, base)
    val1 = (1.0 + w) * s1
    val2 = s_a + w * s_b
    err = abs(val1 - val2) + 1e-14 * (1 + abs(val1))
    if err > tol:
        raise SeriesInstability(f"series instability: {val1} vs {val2}")
    return LValue(value=val1, abs_error_bound=err, terms_used=3 * base)
