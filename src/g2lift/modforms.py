"""Level-one classical modular forms as exact q-expansions.

A series stores an integer coefficient tuple over one positive denominator,
canonicalized so the gcd of all coefficients with the denominator is 1 (the
form ``exact.canonical`` makes, and ``exact.over_lcm`` builds from rational
coefficients); ``coeff(n)`` returns a reduced Fraction.  The arithmetic
on series is the product and truncation, which is all that the level-one
generators, the plus space and the lift read; a sum is formed on the
integer numerators where it is needed (the Rankin-Cohen brackets and the
plus-space combination, in ``shimura``).
One store holds each built series by name, the longest one built, and serves
a shorter request as its truncation (truncation commutes with products).
Series multiplication is one Kronecker substitution: each signed integer
list is packed as fixed-width decimal digit groups into one ``Decimal``,
and the standard library's libmpdec multiplies large operands by
number-theoretic transform where CPython's int multiply is Karatsuba, so
an O(N^2) schoolbook convolution becomes one transform-sized product, a
squaring when both factors are one series.  At N = 5000, E4 * E4 takes
about 29 ms, E4 * E6 43 ms and a cold delta 46 ms; at N = 20000, 128, 193
and 205 ms (medians of 21 runs, 7 at N = 20000; Python 3.11.7 on a 2-vCPU
Xeon).  Below a few hundred coefficients CPython's int multiply would be
faster (F * delta at N = 200: 0.9 ms against 0.4 ms), a cost within the
run-to-run spread of the lift's set-up, whose largest series has N = 2000.
One builder makes E_w(N z), its constant -2w / B_w read off the Bernoulli number.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import List, Sequence

from .arith import BadInput, InputTooLarge, ParseError, prime_powers
from .exact import canonical, check_digit_runs, int_str_limit, over_lcm, parse_rational, rat


class NonRationalEigenspace(BadInput):
    """Raised for weights whose eigenforms need coefficient fields."""


class PrecisionError(BadInput):
    """Raised when a precision is below what an operation needs."""


class BadCacheFile(ParseError):
    """A cache file that does not read as one (``QExpansion.load``)."""

    code = "BAD_CACHE_FILE"


RATIONAL_EIGEN_WEIGHTS = (12, 16, 18, 20, 22, 26)

# Exact integer arithmetic on Decimals of any length: a rounded or inexact
# result raises instead of dropping a digit.  Products use this context, never
# the thread-local one, so a caller's decimal settings cannot change them.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)

# ---------------------------------------------------------------------------
# integer-list convolution via Kronecker substitution

def _convolve_int(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """First n coefficients of the product of two signed integer lists.

    Each factor A = sum a_i X^i is packed into one Decimal with w-digit
    decimal groups, X = 10^w: the groups are a_i + bias, nonnegative, and
    the bias is subtracted back as a packed constant.  The product P is
    exact in ``_EXACT``.  Its groups c are read from the digit string of
    P + M * (1 + X + ... + X^(n-1)) + X^m, where |c| <= M and 2M < X, so
    every biased group is in [0, X) and no borrow crosses a group boundary;
    X^m > |P| makes the sum positive without touching the low n groups.
    M = max|a_i| * max|b_j| * min(nonzero count of a, nonzero count of b):
    each product coefficient sums at most that many nonzero pairs, so a
    sparse factor such as theta (about sqrt(n) nonzero terms) keeps the
    groups narrow.  Groups go through ``str``/``int``, so groups wider than
    ``exact.int_str_limit()`` digits (4300 by default, 0 for no limit; about
    75 at the CLI's caps) raise InputTooLarge before packing.
    """
    square = a is b  # x * x: pack once and square, about half a multiply in libmpdec
    a = a[:n]
    b = a if square else b[:n]
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if ma == 0 or mb == 0:
        return [0] * n
    bound = ma * mb * min(len(a) - a.count(0), len(b) - b.count(0))
    w = (2 * bound).bit_length() * 30103 // 100000 + 1  # 10^w > 2^bits > 2M
    limit = int_str_limit()
    if limit and w > limit:
        raise InputTooLarge(f"{w}-digit product groups exceed the {limit}-digit int/str conversion limit")

    def pack(xs, bias):
        digits = "".join([str(x + bias).zfill(w) for x in reversed(xs)])
        return _EXACT.subtract(Decimal(digits), Decimal(str(bias).zfill(w) * len(xs)))

    pa = pack(a, ma)
    prod = _EXACT.multiply(pa, pa if square else pack(b, mb))
    m = max(n, len(a) + len(b) - 1) + 1
    offset = "1" + "0" * (w * (m - n)) + str(bound).zfill(w) * n
    s = str(_EXACT.add(prod, Decimal(offset)))
    return [int(s[i - w : i]) - bound for i in range(len(s), len(s) - w * n, -w)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QExpansion:
    """Truncated q-series: coefficients of q^0 .. q^(precision-1), held as
    the integer tuple ``num`` over the positive denominator ``den``.
    Rational entries and any nonzero ``den`` are accepted and canonicalized."""

    weight: Fraction
    level: int
    num: tuple
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not all(type(x) is int for x in num):
            num, l = over_lcm(num)
            den *= l
        self._canonicalize(self.weight, num, den)

    @classmethod
    def _raw(cls, weight, level: int, num: Sequence[int], den: int) -> "QExpansion":
        """Constructor for an int sequence over den != 0, as the arithmetic
        below produces: it skips the element type check but keeps the
        canonical form, because a truncated product can share a factor with
        its denominator (truncation breaks Gauss's lemma)."""
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        out._canonicalize(weight, num, den)
        return out

    def _canonicalize(self, weight, num, den) -> None:
        """Set weight, and num and den by ``canonical``."""
        num, den = canonical(num, den)
        object.__setattr__(self, "weight", rat(weight))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def precision(self) -> int:
        return len(self.num)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n < self.precision:
            raise PrecisionError(f"coefficient {n} beyond precision {self.precision}")
        return Fraction(self.num[n], self.den)

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        if self.level != other.level:
            raise ValueError("level mismatch in multiplication")
        n = min(self.precision, other.precision)
        num = _convolve_int(self.num, other.num, n)
        return QExpansion._raw(self.weight + other.weight, self.level, num, self.den * other.den)

    def truncate(self, n: int) -> "QExpansion":
        """The first n coefficients, canonical as a cold build of them."""
        return self if n >= self.precision else QExpansion._raw(self.weight, self.level, self.num[:n], self.den)

    def dump(self) -> str:
        """Cache file format: header 'weight level N', then exact rationals."""
        w = self.weight
        head = f"{w.numerator}/{w.denominator}" if w.denominator != 1 else str(w.numerator)
        lines = [f"{head} {self.level} {self.precision}"]
        lines += [f"{c.numerator}/{c.denominator}" for c in map(self.coeff, range(self.precision))]
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, text: str) -> "QExpansion":
        lines = text.strip().splitlines()
        head = lines[0].split() if lines else []
        if len(head) != 3:
            raise BadCacheFile("cache file needs a 'weight level N' header")
        with BadCacheFile.reading("zero denominator in cache file"):
            weight, level, n = parse_rational(head[0]), int(check_digit_runs(head[1])), int(check_digit_runs(head[2]))
            coeffs = [parse_rational(t) for t in lines[1 : 1 + n]]
        if level < 1:
            raise BadCacheFile("cache file level must be at least 1")
        if n < 2:
            raise BadCacheFile("cache file precision must be at least 2")
        if len(coeffs) != n:
            raise BadCacheFile("truncated cache file")
        return cls(weight, level, coeffs)


# ---------------------------------------------------------------------------
# generators of the level-one graded ring

_series_cache: dict = {}


def _cached(name, prec: int, build):
    """Series (or list) ``name`` at ``prec`` >= 2, the one floor, truncated from
    the longest held; ``build()`` at exactly ``prec`` replaces one shorter or absent."""
    if prec < 2:
        raise PrecisionError("precision must be at least 2")
    held = _series_cache.get(name)
    if held is None or (held[0] if isinstance(held, list) else held).precision < prec:
        held = _series_cache[name] = build()
    return [x.truncate(prec) for x in held] if isinstance(held, list) else held.truncate(prec)


def _sigma_list(k: int, n: int) -> List[int]:
    """[sigma_k(1), ..., sigma_k(n-1)] by divisor sieving."""
    out = [0] * n
    for d in range(1, n):
        dk = d**k
        for m in range(d, n, d):
            out[m] += dk
    return out


def _bernoulli(n: int) -> Fraction:
    """B_n from sum_{j <= m} C(m + 1, j) B_j = 0 for m >= 1, B_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


def _eisenstein(w: int, level: int, prec: int) -> QExpansion:
    """E_w(N z) = 1 - (2w / B_w) sum sigma_(w-1)(n) q^(N n), weight w on
    Gamma0(N) for N = ``level``; 2w / B_w is -240 at w = 4 and 504 at w = 6."""
    c = -2 * w / _bernoulli(w)
    sig = _sigma_list(w - 1, -(-prec // level))
    num = [0] * prec
    num[::level] = [c.denominator] + [c.numerator * s for s in sig[1:]]
    return QExpansion._raw(w, level, num, c.denominator)


def eisenstein(weight: int, prec: int) -> QExpansion:
    """E4 or E6, normalized to constant term 1."""
    if weight not in (4, 6):
        raise BadInput("only weights 4 and 6 generate the level-one ring")
    return _cached(("eis", weight), prec, lambda: _eisenstein(weight, 1, prec))


def delta(prec: int) -> QExpansion:
    """The discriminant q prod (1 - q^n)^24 = q S^8: by Jacobi's identity
    S = prod (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m + 1) q^(m(m+1)/2), so S^8
    takes three squarings of small-coefficient series."""

    def build():
        s = [0] * (prec - 1)
        m = 0
        while m * (m + 1) // 2 < prec - 1:
            s[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
            m += 1
        x = QExpansion(Fraction(3, 2), 1, s)
        for _ in range(3):
            x = x * x
        return QExpansion(12, 1, (0,) + x.num)

    return _cached("delta", prec, build)


def eigenform(two_k: int, prec: int) -> QExpansion:
    """The normalized rational eigenform in the listed one-dimensional
    cuspidal weights; built multiplicatively from the ring generators."""
    if two_k not in RATIONAL_EIGEN_WEIGHTS:
        raise NonRationalEigenspace("non-rational eigenspace unsupported")

    def build():
        f = delta(prec)
        extra = {12: (0, 0), 16: (1, 0), 18: (0, 1), 20: (2, 0), 22: (1, 1), 26: (2, 1)}[two_k]
        for _ in range(extra[0]):
            f = f * eisenstein(4, prec)
        for _ in range(extra[1]):
            f = f * eisenstein(6, prec)
        return f

    return _cached(("eigen", two_k), prec, build)


# ---------------------------------------------------------------------------
# Satake parameters

def satake(f: QExpansion, p: int) -> complex:
    """The unitary Satake parameter alpha at p: the root of
    X^2 - (a_p / p^((2k-1)/2)) X + 1 with nonnegative imaginary part.
    Deligne's bound |a_p| <= 2 p^((2k-1)/2) is tested exactly, as
    num^2 <= 4 p^(2k-1) den^2 for a_p = num / den."""
    two_k = int(f.weight)
    a_p = f.coeff(p)
    if a_p.numerator**2 > 4 * p ** (two_k - 1) * a_p.denominator**2:
        raise ValueError("Deligne bound violated; upstream eigenform is wrong")
    b = float(a_p) / p ** ((two_k - 1) / 2)
    return complex(b / 2, (4 - b * b) ** 0.5 / 2)


def mu_f(f: QExpansion, r) -> complex:
    """The unramified character value prod_p alpha_p^{v_p(r)} at a nonzero
    rational r; units (including -1) contribute nothing.  The primes of
    the numerator come first, then those of the denominator, each in
    ascending order; a part that bounded factoring cannot split raises
    InputTooLarge."""
    r = rat(r)
    if r == 0:
        raise BadInput("mu_f undefined at 0")
    out = complex(1, 0)
    for n, sign in ((abs(r.numerator), 1), (r.denominator, -1)):
        for p, e in prime_powers(n):
            out *= satake(f, p) ** (sign * e)
    return out
