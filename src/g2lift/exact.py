"""Exact rational matrix kernel: dense 7x7, 5x5 and 2x2 matrices over Q.

Matrices store an integer entry grid over a single positive denominator,
canonicalized so the gcd of all entries with the denominator is 1; exact
equality is then tuple equality and products need one gcd pass instead of
one per entry.  Scalars in and out are ``fractions.Fraction`` (always
reduced, positive denominator).  The one elimination is a fraction-free
(Bareiss) echelon of integer rows, behind ``det`` and ``kernel``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def parse_rational(text: str) -> Fraction:
    """A rational read from outside input, 'p', 'p/q' or a decimal.  The
    exponent form is refused: Fraction builds 10^e in full before any
    check, and '1e10000000' alone takes seconds."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent form not accepted: {text!r}")
    return Fraction(text)


def echelon(m: list, ncols: int) -> tuple:
    """Fraction-free forward elimination (Bareiss, Math. Comp. 22, 1968) of
    the integer rows m in place, skipping columns with no pivot.  Returns the
    pivot columns and the sign of the row permutation P; row i then starts at
    pivots[i] with the minor of P m on rows 0 .. i and pivots[:i + 1]."""
    pivots, sign, prev = [], 1, 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        if m[r][c] == 0:
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        pr = m[r]
        p = pr[c]
        for row in m[r + 1:]:
            a = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - a * pr[j]) // prev
            row[c] = 0
        pivots.append(c)
        prev = p
    return pivots, sign


def kernel(m: list, ncols: int) -> list:
    """Integer kernel basis of the rows m (eliminated in place): per column
    f with no pivot, the vector zero on the others and equal at f to the
    last pivot, which makes back substitution exact (Cramer's rule)."""
    pivots, _ = echelon(m, ncols)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    out = [[d if c == f else 0 for c in range(ncols)] for f in range(ncols) if f not in pivots]
    for w in out:
        for row, c in zip(m[len(pivots) - 1::-1], reversed(pivots)):
            w[c] = -sum(x * y for x, y in zip(row[c + 1:], w[c + 1:])) // row[c]
    return out


class _MatrixBase:
    """Immutable square matrix of rationals (integer grid / denominator)."""

    __slots__ = ("num", "den")

    SIZE: int = 0

    def __init__(self, rows: Iterable[Sequence]):
        fr = tuple(tuple(rat(x) for x in r) for r in rows)
        n = self.SIZE
        if len(fr) != n or any(len(r) != n for r in fr):
            raise ValueError(f"expected {n}x{n} matrix")
        den = 1
        for r in fr:
            for x in r:
                den = lcm(den, x.denominator)
        num = tuple(tuple(int(x * den) for x in r) for r in fr)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _raw(cls, num, den):
        """Canonicalizing constructor from an int grid over den != 0."""
        if den < 0:
            den = -den
            num = tuple(tuple(-x for x in r) for r in num)
        g = den
        for r in num:
            for x in r:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g == 1:
                break
        if g > 1:
            den //= g
            num = tuple(tuple(x // g for x in r) for r in num)
        out = object.__new__(cls)
        object.__setattr__(out, "num", tuple(tuple(r) for r in num))
        object.__setattr__(out, "den", den)
        return out

    def __setattr__(self, *a):
        raise AttributeError("matrix is immutable")

    @property
    def rows(self):
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in r) for r in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        return (
            type(self) is type(other) and self.den == other.den and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __mul__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        n = self.SIZE
        a = self.num
        bt = tuple(zip(*other.num))
        rng = range(n)
        num = tuple(
            tuple(sum(ar[k] * bc[k] for k in rng) for bc in bt) for ar in a
        )
        return type(self)._raw(num, self.den * other.den)

    def __add__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        l = lcm(self.den, other.den)
        sa, sb = l // self.den, l // other.den
        num = tuple(
            tuple(x * sa + y * sb for x, y in zip(r, s))
            for r, s in zip(self.num, other.num)
        )
        return type(self)._raw(num, l)

    def scale(self, c):
        c = rat(c)
        num = tuple(tuple(x * c.numerator for x in r) for r in self.num)
        return type(self)._raw(num, self.den * c.denominator)

    def transpose(self):
        return type(self)._raw(tuple(zip(*self.num)), self.den)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.num for x in r)

    @classmethod
    def identity(cls):
        n = cls.SIZE
        return cls._raw(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), 1)

    @classmethod
    def from_entries(cls, entries: dict):
        """Build from a sparse {(i, j): value} dict, zero elsewhere."""
        n = cls.SIZE
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = rat(v)
        return cls(rows)

    def det(self) -> Fraction:
        """Determinant: the echelon's last pivot (its last row is zero if singular)."""
        m = [list(r) for r in self.num]
        sign = echelon(m, self.SIZE)[1]
        return Fraction(sign * m[-1][-1], self.den**self.SIZE)

    def __repr__(self):
        body = "\n".join("[" + "  ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"{type(self).__name__}(\n{body}\n)"


class Matrix7(_MatrixBase):
    SIZE = 7


class Matrix5(_MatrixBase):
    SIZE = 5


class Matrix2(_MatrixBase):
    SIZE = 2

    def entries(self):
        """(a, b, c, d) reading order."""
        (a, b), (c, d) = self.rows
        return a, b, c, d

    def det(self) -> Fraction:
        (a, b), (c, d) = self.num
        return Fraction(a * d - b * c, self.den**2)

    def inverse(self) -> "Matrix2":
        (a, b), (c, d) = self.num
        dt = a * d - b * c
        if dt == 0:
            raise ZeroDivisionError("matrix is singular")
        return Matrix2._raw(((d * self.den, -b * self.den), (-c * self.den, a * self.den)), dt)


def mat2(a, b, c, d) -> Matrix2:
    return Matrix2([[a, b], [c, d]])


# Gram matrix of the ambient orthogonal group: antidiagonal identity blocks
# around the 3x3 core antidiag(1, -2, 1); the inverse has core antidiag(1, -1/2, 1).
_GRAM_ONES = {(0, 5): 1, (5, 0): 1, (1, 6): 1, (6, 1): 1, (2, 4): 1, (4, 2): 1}
GRAM = Matrix7.from_entries({**_GRAM_ONES, (3, 3): -2})
GRAM_INV = Matrix7.from_entries({**_GRAM_ONES, (3, 3): Fraction(-1, 2)})


def preserves_form(g: Matrix7) -> bool:
    """True iff g^T * GRAM * g == GRAM exactly and det(g) == 1."""
    return g.transpose() * GRAM * g == GRAM and g.det() == 1
