"""Exact rational matrix kernel: dense 7x7, 5x5 and 2x2 matrices over Q.

Every exact vector (a matrix grid, a q-series, a cubic form) is integers
over one positive denominator, their gcd with it 1, so exact equality is
tuple equality and a product needs one gcd pass, not one per entry.
``over_lcm`` builds that form in integers from values taken through ``rat``,
which refuses floats; ``canonical`` restores it after integer arithmetic.
Scalars in and out are ``fractions.Fraction`` (always reduced, positive
denominator).  The one elimination is a fraction-free (Bareiss) echelon of
integer rows, behind ``det`` and ``kernel``.

The Gram form GRAM of the 7x7 orthogonal group is a symmetric signed
permutation, so its adjoint S^-1 g^T S (the inverse of a form-preserving g)
is a rescaled, permuted transpose: ``form_adjoint`` builds it as one grid,
and ``preserves_form`` needs one product.

``Poly`` is the one sparse polynomial type, with exact coefficients and
exponents of either sign; through ``poly_matmul``, the one product of grids
of them, it is the algebra behind the group certificates (the word tables,
the Weyl rows and the l(A) grid).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .arith import InputTooLarge


def int_str_limit() -> int:
    """Python's int/str conversion limit in digits now; 0 for none, as before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


INPUT_DIGIT_LIMIT = int_str_limit()


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction.  A float
    is refused: it is the binary value nearest a decimal, and Fraction(0.1)
    is 3602879701896397/36028797018963968, not 1/10."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not an exact rational")
    return Fraction(x)


def over_lcm(values) -> tuple:
    """(nums, den): the values (anything ``rat`` takes) as integers over den,
    the lcm of their denominators, each p/q becoming p (den / q).

    That form is already canonical.  A prime dividing den divides some
    value's q to its full power in den; that value's p is prime to q
    (Fractions are reduced) and den / q is prime to it, so the prime misses
    that numerator.  So gcd(den, *nums) = 1 with no gcd pass."""
    fr = [rat(x) for x in values]
    den = lcm(*(x.denominator for x in fr))
    return tuple(x.numerator * (den // x.denominator) for x in fr), den


def canonical(nums, den) -> tuple:
    """(nums, den) for the integers nums over den != 0, rescaled to den > 0
    and gcd(den, *nums) = 1, the form ``over_lcm`` builds."""
    if den == 0:
        raise ZeroDivisionError("denominator is zero")
    if den < 0:
        nums, den = [-x for x in nums], -den
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return tuple(nums), den


def parse_rational(text: str) -> Fraction:
    """A rational read from outside input, 'p', 'p/q' or a decimal.  The
    exponent form is refused: Fraction builds 10^e in full before any
    check, and '1e10000000' alone takes seconds."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent form not accepted: {text!r}")
    return Fraction(check_digit_runs(text))


def check_digit_runs(text: str) -> str:
    """text, or InputTooLarge if a run of digits in it (underscores do not end a run, as in int)
    is longer than the int/str conversion limit at start-up, which input keeps while the CLI
    lifts the limit; Python's own refusal advises a call that a command-line user cannot make."""
    limit = INPUT_DIGIT_LIMIT
    run = re.search(rf"\d{{{limit + 1},}}", text.replace("_", "")) if limit else None
    if run:
        raise InputTooLarge(f"a {len(run.group())}-digit number exceeds the {limit}-digit limit")
    return text


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
        """The grid of ``rows`` (anything ``rat`` takes) by ``over_lcm``."""
        rows = tuple(rows)
        n = self.SIZE
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"expected {n}x{n} matrix")
        self._set(*over_lcm(x for r in rows for x in r))

    @classmethod
    def _raw(cls, num, den):
        """The int grid num over den by ``canonical``, which refuses den = 0."""
        out = object.__new__(cls)
        out._set(*canonical([*chain.from_iterable(num)], den))
        return out

    def _set(self, flat, den):
        object.__setattr__(self, "num", tuple(zip(*[iter(flat)] * self.SIZE)))  # rows of SIZE
        object.__setattr__(self, "den", den)

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
# around the 3x3 core antidiag(1, -2, 1).
GRAM = Matrix7.from_entries(
    {(0, 5): 1, (5, 0): 1, (1, 6): 1, (6, 1): 1, (2, 4): 1, (4, 2): 1, (3, 3): -2}
)


def _adjoint_table(gram: Matrix7):
    """(L, rows) with S^-1 g^T S = grid / (L den) for S = gram and g = num /
    den: row i of the grid is (sigma(i), ((sigma(j), L s_j / s_i) per column
    j)), entry (i, j) being L s_j / s_i times g's num at (sigma(j), sigma(i)).

    An integral symmetric signed permutation S has s_i at (i, sigma(i)) and
    zeros elsewhere, sigma an involution and s_sigma(i) = s_i.  So
    (S^-1)_(i, sigma(i)) = 1 / s_i, (S^-1 g^T S)_ij = (s_j / s_i)
    g_(sigma(j), sigma(i)), and L = lcm |s_i| clears every factor.  Raises on
    any other grid, so sigma and s have no second source.
    """
    cols = [[j for j, x in enumerate(row) if x] for row in gram.num]
    if gram.den != 1 or any(len(c) != 1 for c in cols):
        raise AssertionError("GRAM is not a signed permutation")
    sigma = [c[0] for c in cols]
    s = [row[j] for row, j in zip(gram.num, sigma)]
    if any(sigma[j] != i or s[j] != s[i] for i, j in enumerate(sigma)):
        raise AssertionError("GRAM is not symmetric")
    scale = lcm(*s)
    return scale, tuple(
        (sigma[i], tuple((sigma[j], scale // s[i] * s[j]) for j in range(len(s))))
        for i in range(len(s))
    )


_ADJOINT_SCALE, _ADJOINT = _adjoint_table(GRAM)
_IDENTITY7 = Matrix7.identity()


def form_adjoint(g: Matrix7) -> Matrix7:
    """S^-1 g^T S for S = GRAM, with no 7x7 product: the grid
    (L s_j / s_i) g_(sigma(j), sigma(i)) over L den of ``_adjoint_table``.
    It is g^-1 whenever g preserves the form."""
    cols = tuple(zip(*g.num))
    num = []
    for c, row in _ADJOINT:
        col = cols[c]
        num.append([w * col[k] for k, w in row])
    return Matrix7._raw(num, _ADJOINT_SCALE * g.den)


def preserves_form(g: Matrix7) -> bool:
    """True iff g^T * GRAM * g == GRAM exactly and det(g) == 1.  GRAM is
    invertible, so the form condition is S^-1 g^T S g == I: one product."""
    return form_adjoint(g) * g == _IDENTITY7 and g.det() == 1


class Poly(dict):
    """A sparse polynomial in ``nvars`` indeterminates with exact
    coefficients: {exponent tuple: nonzero coefficient}, exponents of either
    sign.  ``+``, ``-`` and ``*`` take another Poly in the same
    indeterminates or a scalar, which stands for its constant term; a scalar
    may stand on the left of ``+`` and ``*``."""

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms=()):
        super().__init__((m, c) for m, c in dict(terms).items() if c)
        self.nvars = nvars

    @classmethod
    def monomial(cls, *exponents) -> "Poly":
        return cls(len(exponents), {exponents: 1})

    def _of(self, x) -> "Poly":
        return x if isinstance(x, Poly) else Poly(self.nvars, {(0,) * self.nvars: x})

    def __add__(self, other):
        out = dict(self)
        for m, c in self._of(other).items():
            out[m] = out.get(m, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.items()})

    def __sub__(self, other):
        return self + -self._of(other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.items():
            for m2, c2 in self._of(other).items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__


def poly_matmul(a, b, nvars: int) -> list:
    """The product of two square grids whose entries are ``Poly`` in
    ``nvars`` indeterminates or scalars: rows of Poly, zero included."""
    cols = tuple(zip(*b))
    return [[sum((x * y for x, y in zip(row, col) if x and y), Poly(nvars)) for col in cols] for row in a]
