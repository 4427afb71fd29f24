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
squaring when both factors are one series, and only the n low digit
groups that the truncated product keeps are read back.  The last product
of delta and of each eigenform packs groups only as wide as Deligne's bound
on the coefficients it keeps (and its factors' entries) needs.  So E4 * E4
costs one squaring, E4 * E6 one transform-sized product, a cold delta two
squarings of lacunary sums, and a cold eigenform of weight 2k > 12 one
product with delta.  Below a few hundred coefficients CPython's int
multiply on binary groups would be faster;
the lift's set-up makes such products only for the monomials at the Sturm
bound (twelve at N = 33), and its largest are delta's squarings at N = 2000.
One builder makes E_w(N z), its constant -2w / B_w read off the Bernoulli number.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, isqrt
from typing import List, Sequence

from .arith import BadInput, InputTooLarge, prime_powers
from .exact import canonical, int_str_limit, over_lcm, rat


class NonRationalEigenspace(BadInput):
    """Raised for weights whose eigenforms need coefficient fields."""


class PrecisionError(BadInput):
    """Raised when a precision is below what an operation needs."""


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

def _convolve_int(a: Sequence[int], b: Sequence[int], n: int, kept_bound: int | None = None) -> List[int]:
    """First n coefficients of the product of two signed integer lists.

    Each factor A = sum a_i X^i is packed into one Decimal with w-digit
    decimal groups, X = 10^w: a factor with a negative entry packs the groups
    a_i + bias, nonnegative, and subtracts the bias back as a packed constant;
    a nonnegative factor packs its entries as they are.  The product P is
    exact in ``_EXACT``, and only its low n groups are read back (below).
    M = max|a_i| * max|b_j| * min(nonzero count of a, nonzero count of b)
    bounds every product coefficient: each sums at most that many nonzero
    pairs, so a sparse factor such as theta in the plus-space monomials
    (about sqrt(n) nonzero terms) keeps the groups narrow.  A caller that can
    prove a smaller ``kept_bound`` on the kept coefficients |c_k|, k < n (the
    eigenform builds, by Deligne's theorem), passes it, and M is then
    min(that product bound, max(kept_bound, max|a_i|, max|b_j|)): the read-back
    needs only the kept groups and the packed entries within M, and the
    coefficients past n may exceed it.  Groups go through ``str``/``int``, so
    groups wider than ``exact.int_str_limit()`` digits (4300 by default, 0 for
    no limit; at most 58 at the CLI's caps, for E14's entries in the weight-26
    eigenform at N = 20000) raise InputTooLarge before packing.
    """
    square = a is b  # x * x: pack once and square, about half a multiply in libmpdec
    a = a[:n]
    b = a if square else b[:n]
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if ma == 0 or mb == 0:
        return [0] * n
    bound = ma * mb * min(len(a) - a.count(0), len(b) - b.count(0))
    if kept_bound is not None:
        bound = min(bound, max(kept_bound, ma, mb))
    w = (2 * bound).bit_length() * 30103 // 100000 + 1  # 10^w > 2^bits > 2M
    limit = int_str_limit()
    if limit and w > limit:
        raise InputTooLarge(f"{w}-digit product groups exceed the {limit}-digit int/str conversion limit")

    def pack(xs, bias):
        if min(xs) >= 0:
            return Decimal("".join([str(x).zfill(w) for x in reversed(xs)]))
        digits = "".join([str(x + bias).zfill(w) for x in reversed(xs)])
        return _EXACT.subtract(Decimal(digits), Decimal(str(bias).zfill(w) * len(xs)))

    pa = pack(a, ma)
    prod = _EXACT.multiply(pa, pa if square else pack(b, mb))
    # P = sum c_k X^k exactly, with |c_k| <= M for k < n and 2M < X (the c_k
    # past n are unbounded here).  Flooring P / X^n leaves
    # low = P - floor(P / X^n) X^n in [0, X^n), congruent mod X^n to
    # sum_(k<n) c_k X^k.  low + M * (1 + X + ... + X^(n-1)) is then congruent
    # mod X^n to sum_(k<n) (c_k + M) X^k, whose groups lie in [0, 2M] and so in
    # [0, X): the sum is below 2 X^n, so adding X^n as well gives exactly
    # n w + 1 digits, and the last n groups of its digit string are the c_k + M
    # with no borrow.  Groups past the product read 0, as its c_k are 0.
    high = prod.scaleb(-w * n, _EXACT).to_integral_value(decimal.ROUND_FLOOR, _EXACT)
    low = _EXACT.subtract(prod, high.scaleb(w * n, _EXACT))
    s = str(_EXACT.add(low, Decimal("1" + str(bound).zfill(w) * n)))
    return [int(s[i - w : i]) - bound for i in range(len(s), 1, -w)]


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
        """The `mf dump` text format: header 'weight level N', then exact rationals."""
        w = self.weight
        head = f"{w.numerator}/{w.denominator}" if w.denominator != 1 else str(w.numerator)
        lines = [f"{head} {self.level} {self.precision}"]
        d = self.den
        lines += [f"{x // g}/{d // g}" for x, g in zip(self.num, map(gcd, self.num, repeat(d)))]
        return "\n".join(lines) + "\n"


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
    """[0, sigma_k(1), ..., sigma_k(n-1)] by a smallest-prime-factor sieve:
    sigma_k is multiplicative, sigma_k(m) = sigma_k(r) sigma_k(p^e) for
    m = r p^e with p the smallest prime factor of m and p not dividing r,
    and sigma_k(p^e) = (p^(k(e+1)) - 1) / (p^k - 1) = p^k sigma_k(p^(e-1)) + 1,
    so each m costs one multiplication."""
    out = [0] * n
    if n > 1:
        out[1] = 1
    spf = [0] * n  # smallest prime factor of each composite, 0 at primes
    for p in range(isqrt(max(n - 1, 0)), 1, -1):  # descending: a smaller p overwrites
        spf[p * p :: p] = [p] * len(range(p * p, n, p))
    rest = [1] * n  # m with its smallest prime factor removed entirely
    for m in range(2, n):
        p = spf[m]
        if p == 0:
            out[m] = m**k + 1
            continue
        q = m // p
        r = rest[m] = q if q % p else rest[q]
        out[m] = out[q] * (out[p] - 1) + 1 if r == 1 else out[r] * out[m // r]
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
    """The discriminant q prod (1 - q^n)^24 = q S^8.  By Jacobi's identity
    S = prod (1 - q^n)^3 = sum_{m>=0} (-1)^m (2m + 1) q^(T_m), T_m = m(m+1)/2,
    so S^2 is the lacunary sum over pairs of triangular exponents of
    (-1)^(m+j) (2m + 1)(2j + 1) q^(T_m + T_j), formed directly in small
    integers (about 4,000 terms at N = 5000), and S^8 takes two squarings.
    The second keeps S^8 = sum tau(m + 1) q^m through m = N - 2, and Deligne's
    theorem (P. Deligne, "La conjecture de Weil. I", Publ. IHES 43, 1974)
    gives |tau(m)| <= d(m) m^(11/2) <= 2 m^6, as the divisor count d(m) is at
    most 2 sqrt(m); so 2 (N - 1)^6 bounds every kept group of that squaring,
    whatever its groups past N - 1 hold."""

    def build():
        n = prec - 1
        terms = []
        m = 0
        while m * (m + 1) // 2 < n:
            terms.append((m * (m + 1) // 2, (-1) ** m * (2 * m + 1)))
            m += 1
        s2 = [0] * n
        for i, (t, c) in enumerate(terms):
            if 2 * t < n:
                s2[2 * t] += c * c
            for u, d in terms[i + 1 :]:
                if t + u >= n:
                    break
                s2[t + u] += 2 * c * d
        s4 = _convolve_int(s2, s2, n)
        return QExpansion._raw(12, 1, [0] + _convolve_int(s4, s4, n, 2 * n**6), 1)

    return _cached("delta", prec, build)


def eigenform(two_k: int, prec: int) -> QExpansion:
    """The normalized rational eigenform in the listed one-dimensional
    cuspidal weights: delta itself at weight 12, and otherwise the one product
    delta * E_(2k-12), since dim M_w = 1 for w = 4, 6, 8, 10 and 14 makes
    E_w the only normalized form of weight w (E8 = E4^2, E10 = E4 E6,
    E14 = E4^2 E6).  That product is a cusp form with a(1) = 1 and
    dim S_2k = 1, so it is the normalized eigenform, and Deligne's theorem
    bounds its coefficients, |a(m)| <= d(m) m^((2k-1)/2) <= 2 m^k with
    d(m) <= 2 sqrt(m); the product reads back its kept groups, m <= N - 1,
    at the width 2 (N - 1)^k (times the factors' denominators, all 1) sets."""
    if two_k not in RATIONAL_EIGEN_WEIGHTS:
        raise NonRationalEigenspace("non-rational eigenspace unsupported")

    def build():
        f = delta(prec)
        if two_k == 12:
            return f
        e = _eisenstein(two_k - 12, 1, prec)
        den = f.den * e.den
        num = _convolve_int(f.num, e.num, prec, den * 2 * (prec - 1) ** (two_k // 2))
        return QExpansion._raw(two_k, 1, num, den)

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
