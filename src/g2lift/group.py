"""Explicit elements of split G2(Q) as 7x7 rational matrices.

Everything is generated from the twelve nilpotent root matrices of the
7-dimensional representation: one-parameter subgroups x_gamma(u) =
exp(u*X_gamma), Weyl representatives w_gamma = w_gamma(1), torus elements
h_gamma(t), the Heisenberg-parabolic coordinates n(a, t) / n1(a, t), the
second parabolic's coordinates u(a, z), and the two GL2 Levi embeddings
m(A) and l(A).

Coordinate conventions on the 4-dimensional quotient W:

* ``rho3(A, w)`` is the symmetric-cube substitution action read through
  the binary cubic f_w(u, v) = a1 u^3 + 3 a2 u^2 v + 3 a3 u v^2 + a4 v^3,
  acting by f |-> f(d u + b v, c u + a v).
* ``ad_w(A, w) = det(A)^-1 rho3(A, w)`` is the W-part of conjugation by
  m(A), i.e. m n1(w, z) m^-1 = n1(ad_w(A, w), det(A) z).
* ``coad_w(A, w) = det(A)^2 rho3(A^-1, w)`` is the induced action on
  Fourier-character indices: <coad_w(A, w), x> = <w, ad_w(A, x)>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

from .exact import Matrix2, Matrix7, mat2, preserves_form, rat

# ---------------------------------------------------------------------------
# Root system bookkeeping

POSITIVE_ROOTS = ("a", "b", "a+b", "2a+b", "3a+b", "3a+2b")

_ALIASES = {
    "alpha": "a",
    "beta": "b",
    "alpha+beta": "a+b",
    "2alpha+beta": "2a+b",
    "3alpha+beta": "3a+b",
    "3alpha+2beta": "3a+2b",
}

# (m, n) with gamma = m*alpha + n*beta
ROOT_COORDS = {
    "a": (1, 0),
    "b": (0, 1),
    "a+b": (1, 1),
    "2a+b": (2, 1),
    "3a+b": (3, 1),
    "3a+2b": (3, 2),
}


class HeisenbergCoord(NamedTuple):
    """Coordinates (a, t) on the Heisenberg unipotent: a is the W-part."""

    a: Tuple[Fraction, Fraction, Fraction, Fraction]
    t: Fraction


@dataclass(frozen=True)
class RootLabel:
    """One of the 12 roots: a positive-root name plus a sign."""

    name: str
    positive: bool = True

    def __post_init__(self):
        name = _ALIASES.get(self.name, self.name)
        if name not in POSITIVE_ROOTS:
            raise ValueError(f"unknown root {self.name!r}")
        object.__setattr__(self, "name", name)

    def __neg__(self) -> "RootLabel":
        return RootLabel(self.name, not self.positive)

    def coords(self) -> Tuple[int, int]:
        m, n = ROOT_COORDS[self.name]
        return (m, n) if self.positive else (-m, -n)

    def __str__(self):
        return self.name if self.positive else "-" + self.name


ALL_ROOTS = tuple(RootLabel(n, s) for s in (True, False) for n in POSITIVE_ROOTS)

# ---------------------------------------------------------------------------
# The twelve nilpotent generators (sparse {(row, col): value}, 0-indexed).

_NILPOTENT = {
    ("a", True): {(1, 0): -1, (3, 2): -1, (4, 3): -2, (5, 6): 1},
    ("b", True): {(0, 4): -1, (2, 5): 1},
    ("a+b", True): {(0, 3): 2, (1, 4): -1, (2, 6): 1, (3, 5): 1},
    ("2a+b", True): {(0, 2): -1, (1, 3): 2, (3, 6): 1, (4, 5): 1},
    ("3a+b", True): {(1, 2): -1, (4, 6): 1},
    ("3a+2b", True): {(0, 6): -1, (1, 5): 1},
    ("a", False): {(0, 1): -1, (2, 3): -2, (3, 4): -1, (6, 5): 1},
    ("b", False): {(4, 0): -1, (5, 2): 1},
    ("a+b", False): {(3, 0): 1, (4, 1): -1, (5, 3): 2, (6, 2): 1},
    ("2a+b", False): {(2, 0): -1, (3, 1): 1, (5, 4): 1, (6, 3): 2},
    ("3a+b", False): {(2, 1): -1, (6, 4): 1},
    ("3a+2b", False): {(6, 0): -1, (5, 1): 1},
}


def nilpotent_matrix(gamma: RootLabel) -> Matrix7:
    return Matrix7.from_entries(_NILPOTENT[(gamma.name, gamma.positive)])


class GroupElement:
    """A 7x7 rational matrix certified to preserve the Gram form with det 1.

    Raw matrices are validated on construction.  Products, powers and
    inverses of validated elements skip revalidation: closure of the
    orthogonal-group condition under those operations is a proved identity,
    not a trust assumption, so the type invariant survives.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix7):
        if not preserves_form(matrix):
            raise ValueError("matrix does not preserve the form with det 1")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _trusted(cls, matrix: Matrix7) -> "GroupElement":
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        return out

    def __setattr__(self, *a):
        raise AttributeError("GroupElement is immutable")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement._trusted(self.matrix * other.matrix)

    def __pow__(self, n: int) -> "GroupElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "GroupElement":
        # g^T S g = S gives g^-1 = S^-1 g^T S, much cheaper than elimination.
        from .exact import GRAM, GRAM_INV

        return GroupElement._trusted(GRAM_INV * self.matrix.transpose() * GRAM)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"

    def dump(self) -> str:
        """Text grid of exact rational entries (CLI debug format)."""
        cells = [[str(x) for x in row] for row in self.matrix.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


def identity() -> GroupElement:
    return GroupElement._trusted(Matrix7.identity())


def _exp_powers(gamma: RootLabel):
    """[X^k / k!] for k >= 1 until the power vanishes (nilpotency)."""
    x = nilpotent_matrix(gamma)
    out = []
    term = x
    k = 1
    while not term.is_zero():
        out.append(term.scale(Fraction(1, 1)))
        k += 1
        term = (term * x).scale(Fraction(1, k))
    return out


_EXP_TABLE = {}
_CERTIFIED = False


def _exp_table():
    """Power tables for all 12 roots, certified once per process.

    Each entry of exp(u X)^T S exp(u X) - S is a polynomial in u of degree
    at most twice the nilpotency order (< 13), and det(exp(u X)) - 1
    likewise; vanishing at 13 distinct points therefore proves the
    polynomial identity, so later constructions can skip validation.
    """
    global _CERTIFIED
    if not _EXP_TABLE:
        for gamma in ALL_ROOTS:
            _EXP_TABLE[(gamma.name, gamma.positive)] = _exp_powers(gamma)
    if not _CERTIFIED:
        for gamma in ALL_ROOTS:
            for u in range(1, 14):
                mat = _exp_eval(gamma, Fraction(u))
                if not preserves_form(mat):
                    raise AssertionError(f"generator table corrupt at {gamma}")
        _CERTIFIED = True
    return _EXP_TABLE


def _exp_eval(gamma: RootLabel, u: Fraction) -> Matrix7:
    out = Matrix7.identity()
    uk = Fraction(1)
    for power in _EXP_TABLE[(gamma.name, gamma.positive)]:
        uk *= u
        out = out + power.scale(uk)
    return out


def root_generator(gamma: RootLabel, u) -> GroupElement:
    """x_gamma(u) = exp(u X_gamma); the series cuts off by nilpotency."""
    u = rat(u)
    _exp_table()
    return GroupElement._trusted(_exp_eval(gamma, u))


def weyl_t(gamma: RootLabel, t) -> GroupElement:
    """w_gamma(t) = x_gamma(t) x_{-gamma}(-1/t) x_gamma(t), t nonzero."""
    t = rat(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return root_generator(gamma, t) * root_generator(-gamma, -1 / t) * root_generator(gamma, t)


def weyl(gamma: RootLabel) -> GroupElement:
    """The fixed Weyl representative w_gamma = w_gamma(1)."""
    return weyl_t(gamma, 1)


def torus(gamma: RootLabel, t) -> GroupElement:
    """h_gamma(t) = w_gamma(t) w_gamma(1)^-1."""
    t = rat(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    return weyl_t(gamma, t) * weyl(gamma).inverse()


# ---------------------------------------------------------------------------
# Heisenberg parabolic P = MN

def heis_n(a1, a2, a3, a4, t) -> GroupElement:
    """n(a1, a2, a3, a4, t) as the ordered product of root generators."""
    return (
        root_generator(RootLabel("b"), a1)
        * root_generator(RootLabel("a+b"), a2)
        * root_generator(RootLabel("2a+b"), a3)
        * root_generator(RootLabel("3a+b"), a4)
        * root_generator(RootLabel("3a+2b"), t)
    )


def heis_n1(a1, a2, a3, a4, t) -> GroupElement:
    """Heisenberg coordinates: center recentred so the cocycle is <.,.>."""
    a1, a2, a3, a4, t = map(rat, (a1, a2, a3, a4, t))
    return heis_n(a1, a2, a3, a4, t / 2 - (a1 * a4 / 2 - 3 * a2 * a3 / 2))


def n_coords(g: GroupElement):
    """Read (a1, a2, a3, a4, t) off a matrix of n-shape; validates exactly."""
    m = g.matrix
    a1, a2, a3, a4 = m[2, 5], m[2, 6], m[3, 6], m[4, 6]
    t = m[1, 5] + a2 * a3
    if g != heis_n(a1, a2, a3, a4, t):
        raise ValueError("element is not in the Heisenberg unipotent group")
    return a1, a2, a3, a4, t


def n1_coords(g: GroupElement):
    """Inverse of heis_n1: (a1..a4, t) in recentred coordinates."""
    a1, a2, a3, a4, t_raw = n_coords(g)
    return a1, a2, a3, a4, 2 * t_raw + a1 * a4 - 3 * a2 * a3


def heisenberg_coord(g: GroupElement) -> HeisenbergCoord:
    """Recentred coordinates of g as a typed (a, t) pair."""
    a1, a2, a3, a4, t = n1_coords(g)
    return HeisenbergCoord(a=(a1, a2, a3, a4), t=t)


def levi_m(A: Matrix2) -> GroupElement:
    """The Levi GL2 of the Heisenberg parabolic, m(A) in closed form."""
    a, b, c, d = A.entries()
    dt = a * d - b * c
    if dt == 0:
        raise ValueError("singular Levi parameter")
    rows = [
        [d, c, 0, 0, 0, 0, 0],
        [b, a, 0, 0, 0, 0, 0],
        [0, 0, d * d / dt, 2 * c * d / dt, c * c / dt, 0, 0],
        [0, 0, b * d / dt, (a * d + b * c) / dt, a * c / dt, 0, 0],
        [0, 0, b * b / dt, 2 * a * b / dt, a * a / dt, 0, 0],
        [0, 0, 0, 0, 0, a / dt, -b / dt],
        [0, 0, 0, 0, 0, -c / dt, d / dt],
    ]
    return GroupElement(Matrix7(rows))


def levi_m_coords(g: GroupElement) -> Matrix2:
    """GL2 coordinate of an element of M; validates the block shape."""
    m = g.matrix
    A = mat2(m[1, 1], m[1, 0], m[0, 1], m[0, 0])
    if A.det() == 0 or g != levi_m(A):
        raise ValueError("element is not in the Levi M")
    return A


def levi_l(A: Matrix2) -> GroupElement:
    """The Levi GL2 of the second maximal parabolic, l(A) in closed form."""
    a, b, c, d = A.entries()
    dt = a * d - b * c
    if dt == 0:
        raise ValueError("singular Levi parameter")
    rows = [
        [a, 0, 0, 0, b, 0, 0],
        [0, dt, 0, 0, 0, 0, 0],
        [0, 0, a / dt, 0, 0, -b / dt, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [c, 0, 0, 0, d, 0, 0],
        [0, 0, -c / dt, 0, 0, d / dt, 0],
        [0, 0, 0, 0, 0, 0, 1 / dt],
    ]
    return GroupElement(Matrix7(rows))


def u_coord(a1, a2, a3, a4, z) -> GroupElement:
    """u(a1, a2, a3, a4, z) as the ordered product of root generators."""
    return (
        root_generator(RootLabel("a"), a1)
        * root_generator(RootLabel("a+b"), a2)
        * root_generator(RootLabel("2a+b"), a3)
        * root_generator(RootLabel("3a+b"), a4)
        * root_generator(RootLabel("3a+2b"), z)
    )


def z_coord(x, y) -> GroupElement:
    """z(x, y) = u(0, 0, 0, x, y), the center of U."""
    return u_coord(0, 0, 0, x, y)


def u_coords(g: GroupElement):
    """Read (a1, a2, a3, a4, z) off a matrix of u-shape; validates exactly."""
    m = g.matrix
    a1 = m[5, 6]
    a2 = m[2, 6]
    a3 = m[3, 6] + a1 * a2
    a4 = m[4, 6] - a1 * a1 * a2 + 2 * a1 * a3
    z = 2 * a2 * a3 - m[0, 6]
    if g != u_coord(a1, a2, a3, a4, z):
        raise ValueError("element is not in the unipotent group U")
    return a1, a2, a3, a4, z


def u_tilde(a1, a2, a3) -> GroupElement:
    """Representative of the Heisenberg quotient U/Z_U."""
    return u_coord(a1, a2, a3, 0, 0)


def u_tilde1(a1, a2, a3) -> GroupElement:
    """Recentred quotient coordinates: u~1(a1, a2, a3) = u~(a1, a2, a3 + a1 a2)."""
    a1, a2, a3 = map(rat, (a1, a2, a3))
    return u_tilde(a1, a2, a3 + a1 * a2)


def u_tilde1_coords_mod_center(g: GroupElement):
    """(a1, a2, a3) of g in u~1 coordinates, discarding the Z_U part."""
    a1, a2, a3, _a4, _z = u_coords(g)
    return a1, a2, a3 - a1 * a2


def iota() -> GroupElement:
    """The fixed word w_b w_a w_b w_a w_b^-1 used to compare the two Levis."""
    wa, wb = weyl(RootLabel("a")), weyl(RootLabel("b"))
    return wb * wa * wb * wa * wb.inverse()


# ---------------------------------------------------------------------------
# W-coordinate actions

def symplectic(a, b) -> Fraction:
    """<a, b> = a1 b4 - 3 a2 b3 + 3 a3 b2 - a4 b1."""
    a = tuple(map(rat, a))
    b = tuple(map(rat, b))
    return a[0] * b[3] - 3 * a[1] * b[2] + 3 * a[2] * b[1] - a[3] * b[0]


def rho3(A: Matrix2, w):
    """Symmetric-cube action: coefficients of f_w(d u + b v, c u + a v).

    Satisfies rho3(A*B, w) = rho3(A, rho3(B, w)) and
    q(rho3(A, w)) = det(A)^6 q(w).
    """
    a, b, c, d = A.entries()
    if a * d - b * c == 0:
        raise ValueError("singular matrix")
    a1, a2, a3, a4 = map(rat, w)
    # f(d u + b v, c u + a v) expanded on the (1, 3, 3, 1)-weighted basis
    b1 = a1 * d**3 + 3 * a2 * d * d * c + 3 * a3 * d * c * c + a4 * c**3
    b2 = a1 * d * d * b + a2 * (d * d * a + 2 * d * c * b) + a3 * (c * c * b + 2 * d * c * a) + a4 * c * c * a
    b3 = a1 * d * b * b + a2 * (b * b * c + 2 * d * b * a) + a3 * (d * a * a + 2 * c * b * a) + a4 * c * a * a
    b4 = a1 * b**3 + 3 * a2 * b * b * a + 3 * a3 * b * a * a + a4 * a**3
    return (b1, b2, b3, b4)


def ad_w(A: Matrix2, w):
    """W-part of conjugation by m(A): det(A)^-1 rho3(A, w)."""
    dt = A.det()
    return tuple(x / dt for x in rho3(A, w))


def coad_w(A: Matrix2, w):
    """Dual action on character indices: det(A)^2 rho3(A^-1, w)."""
    dt = A.det()
    return tuple(dt * dt * x for x in rho3(A.inverse(), w))


def ad_weyl_alpha(g: GroupElement) -> GroupElement:
    """Conjugation by the fixed Weyl representative of the short root."""
    wa = weyl(RootLabel("a"))
    return wa * g * wa.inverse()


def ad_weyl_alpha_inv(g: GroupElement) -> GroupElement:
    """Inverse conjugation: recovers m from m' = Ad(w_alpha)(m)."""
    wa = weyl(RootLabel("a"))
    return wa.inverse() * g * wa
