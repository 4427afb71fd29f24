"""Exact rational matrix kernel: dense 7x7, 5x5 and 2x2 matrices over Q.

Matrices store an integer entry grid over a single positive denominator,
canonicalized so the gcd of all entries with the denominator is 1; exact
equality is then tuple equality and products need one gcd pass instead of
one per entry.  Scalars in and out are ``fractions.Fraction`` (always
reduced, positive denominator).  The one elimination is a fraction-free
(Bareiss) echelon of integer rows, behind ``det`` and ``kernel``.

The Gram form GRAM of the 7x7 orthogonal group is a symmetric signed
permutation, so its adjoint S^-1 g^T S (the inverse of a form-preserving g)
is a rescaled, permuted transpose: ``form_adjoint`` builds it as one grid,
and ``preserves_form`` needs one product.

``Poly`` is the one sparse polynomial type, with exact coefficients and
exponents of either sign: the indeterminates of the l(A) certificate and
the coefficients of the degree-7 Euler factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
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
    indeterminates or a scalar, which stands for its constant term."""

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

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.items():
            for m2, c2 in self._of(other).items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def at(self, *values):
        """The value at the point ``values``, nonzero where an exponent is
        negative; exact for exact values."""
        total = 0
        for m, c in self.items():
            for x, e in zip(values, m):
                c *= x**e
            total += c
        return total
