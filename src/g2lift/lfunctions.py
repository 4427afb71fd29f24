"""Central L-values of level-one eigenforms and their quadratic twists,
plus the exact Euler-factor algebra of the degree-7 standard L-function.

Twisted central values use the smoothed series

    L(k, f x chi_D) = (1 + w) sum_n a_n chi_D(n) n^-k Gamma(k, 2 pi n / D) / Gamma(k)

with root number w = +1 (level one, k even, D > 0), self-validated by
recomputing with the free cutoff parameter doubled; the incomplete gamma
of integer order is the finite sum e^-x sum_{j<k} x^j / j!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .modforms import QExpansion
from .shimura import is_fundamental_discriminant


class SeriesInstability(ArithmeticError):
    """Raised when independent cutoffs disagree beyond tolerance."""


# ---------------------------------------------------------------------------
# Kronecker symbol

def kronecker_chi(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for fundamental D (or D = 1)."""
    if not is_fundamental_discriminant(D):
        raise ValueError("non-fundamental discriminant rejected")
    return _kronecker(D, n)


def _kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s of n: (a/2) = 0, 1, -1 by a mod 8
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            sign = -sign
    # now n odd positive: Jacobi symbol with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


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
                chi = _kronecker(D, n)
                if chi == 0:
                    continue
                c = f.coeff(n)
                xx = 2 * mpmath.pi * n * x / D
                acc += chi * mpmath.mpf(c.numerator) / c.denominator / mpmath.mpf(n) ** k * mpmath.gammainc(k, xx, regularized=True)
            return float(acc)
    acc = 0.0
    for n in range(1, n_max + 1):
        chi = _kronecker(D, n)
        if chi == 0:
            continue
        acc += chi * (f.num[n] / f.den) * n ** (-k) * gamma_inc_ratio(k, 2 * math.pi * n * x / D)
    return acc


def _cutoff_terms(D: int, k: int, tol: float) -> int:
    """Smallest n_max with a safely negligible tail.

    Tail terms are a_n chi(n) n^-k Gamma(k, 2 pi n/D)/Gamma(k) with
    |a_n| n^-k <= d(n)/sqrt(n) <= sqrt(n); n itself is a lazy upper bound
    for the geometric-tail multiplier, so demand term * n < tol * 1e-3.
    """
    n = 16
    while gamma_inc_ratio(k, 2 * math.pi * n / D) * n * math.sqrt(n) > tol * 1e-3:
        n += 8
    return n


def central_twisted_value(f: QExpansion, D: int = 1, tol: float = 1e-10, ext_float: bool = False) -> LValue:
    """Central value L(k, f x chi_D) of the unnormalized twisted L-series.

    f must be a certified level-one eigenform of weight 2k; D a positive
    fundamental discriminant (or 1).  Two runs with the cutoff parameter
    doubled must agree within tol, else SeriesInstability is raised.
    """
    if tol < 1e-12:
        raise ValueError("tol below supported floating accuracy")
    if f.level != 1 or f.weight.denominator != 1 or int(f.weight) % 2 != 0:
        raise ValueError("level-one even-weight eigenform required")
    if not is_fundamental_discriminant(D):
        raise ValueError("D must be a positive fundamental discriminant (or 1)")
    two_k = int(f.weight)
    k = two_k // 2
    w = 1.0  # root number: level one, k even, D > 0
    base = _cutoff_terms(D, k, tol)
    if 2 * base >= f.precision:
        raise ValueError(f"need at least {2 * base + 1} coefficients, have {f.precision}")
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


def solve_root_number(f: QExpansion, D: int = 1, tol: float = 1e-8) -> float:
    """Treat the root number as unknown and solve it from two cutoffs."""
    two_k = int(f.weight)
    k = two_k // 2
    base = _cutoff_terms(D, k, tol)
    if 2 * base >= f.precision:
        raise ValueError("insufficient precision")
    s1a = _smoothed_sum(f, D, k, 1.0, base)
    s1b = s1a
    s2a = _smoothed_sum(f, D, k, 2.0, base)
    s2b = _smoothed_sum(f, D, k, 0.5, 2 * base)
    # L = S(x) + w S(1/x) for every x; eliminate L between x = 1 and x = 2
    return (s1a - s2a) / (s2b - s1b)


def cesaro_direct_value(f: QExpansion, D: int, n_terms: int, order: int = 2) -> float:
    """Independent oracle: iterated Cesaro means of the raw partial sums
    of sum a_n chi_D(n) n^-k.  Slowly convergent; test-tolerance only."""
    two_k = int(f.weight)
    k = two_k // 2
    if n_terms >= f.precision:
        raise ValueError("insufficient precision")
    part = []
    acc = 0.0
    for n in range(1, n_terms + 1):
        chi = _kronecker(D, n)
        if chi:
            acc += chi * (f.num[n] / f.den) * n ** (-k)
        part.append(acc)
    seq = part
    for _ in range(order):
        run = 0.0
        means = []
        for i, x in enumerate(seq, start=1):
            run += x
            means.append(run / i)
        seq = means
    return seq[-1]


# ---------------------------------------------------------------------------
# formal Euler-factor algebra

class LaurentPoly:
    """Laurent polynomial in two commuting formal units: a (the Satake
    unit) and r (a formal square root of p).  Keys are (i, j) exponent
    pairs, values exact rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int], Fraction] | None = None):
        clean = {}
        for key, val in (terms or {}).items():
            val = Fraction(val)
            if val:
                clean[key] = val
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def unit(cls, i: int = 1, j: int = 0) -> "LaurentPoly":
        return cls({(i, j): Fraction(1)})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + val
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return LaurentPoly(out)

    def invert_alpha(self) -> "LaurentPoly":
        """The involution a -> a^-1."""
        return LaurentPoly({(-i, j): v for (i, j), v in self.terms.items()})

    def substitute(self, alpha: complex, root_p: complex) -> complex:
        return sum(complex(v) * alpha**i * root_p**j for (i, j), v in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j), v in sorted(self.terms.items()):
            s = str(v)
            if i:
                s += f"*a^{i}"
            if j:
                s += f"*r^{j}"
            bits.append(s)
        return " + ".join(bits)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)


def _poly_mul(f: list, g: list) -> list:
    out = [ZERO] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = out[i + j] + fi * gj
    return out


def _linear_factor(root: LaurentPoly) -> list:
    """1 - root * T as a T-polynomial with LaurentPoly coefficients."""
    return [ONE, -root]


def std7_euler_factor() -> list:
    """The degree-7 polynomial in T with roots
    1, a^2, a^-2, a r, a^-1 r, a r^-1, a^-1 r^-1  (r = formal p^(1/2))."""
    roots = [
        ONE,
        LaurentPoly.unit(2, 0),
        LaurentPoly.unit(-2, 0),
        LaurentPoly.unit(1, 1),
        LaurentPoly.unit(-1, 1),
        LaurentPoly.unit(1, -1),
        LaurentPoly.unit(-1, -1),
    ]
    out = [ONE]
    for root in roots:
        out = _poly_mul(out, _linear_factor(root))
    return out


def sym2_factor() -> list:
    """(1 - T)(1 - a^2 T)(1 - a^-2 T)."""
    out = [ONE]
    for root in (ONE, LaurentPoly.unit(2, 0), LaurentPoly.unit(-2, 0)):
        out = _poly_mul(out, _linear_factor(root))
    return out


def shifted_pair_factor(shift: int) -> list:
    """(1 - a r^shift T)(1 - a^-1 r^shift T) for shift in {1, -1}."""
    out = [ONE]
    for root in (LaurentPoly.unit(1, shift), LaurentPoly.unit(-1, shift)):
        out = _poly_mul(out, _linear_factor(root))
    return out


def factorization_check() -> bool:
    """Exact identity: std7 = sym2 * (half-shift up) * (half-shift down)."""
    lhs = std7_euler_factor()
    rhs = _poly_mul(_poly_mul(sym2_factor(), shifted_pair_factor(1)), shifted_pair_factor(-1))
    return lhs == rhs


def specialize_alpha(tpoly: list, value) -> list:
    """Substitute a rational value for the unit a in a T-polynomial."""
    value = Fraction(value)
    out = []
    for coef in tpoly:
        terms: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), v in coef.terms.items():
            key = (0, j)
            terms[key] = terms.get(key, Fraction(0)) + v * value**i
        out.append(LaurentPoly(terms))
    return out


def invert_alpha_tpoly(tpoly: list) -> list:
    return [c.invert_alpha() for c in tpoly]


def std7_numeric_check(alpha: complex, p: int, T: complex, tol: float = 1e-14) -> bool:
    """Spot-check the factorization as complex numbers."""
    rp = math.sqrt(p)
    lhs = sum(c.substitute(alpha, rp) * T**i for i, c in enumerate(std7_euler_factor()))
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
