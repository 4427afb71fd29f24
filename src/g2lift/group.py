"""Explicit elements of split G2(Q) as 7x7 rational matrices.

Everything is generated from the twelve nilpotent root matrices of the
7-dimensional representation: one-parameter subgroups x_gamma(u) =
exp(u*X_gamma), Weyl representatives w_gamma = w_gamma(1), torus elements
h_gamma(t), the Heisenberg-parabolic coordinates n(a, t) / n1(a, t), the
second parabolic's coordinates u(a, z), and the two GL2 Levi embeddings
m(A) and l(A).

Closed forms certified once.  Each certificate is a ``functools.cache``
function, run on first use; a refusal raises and is not kept.
``_exp_table`` certifies the 12 root matrices X by Lie-algebra identities
and returns the rows of X and X^2.  ``_word_grid`` multiplies those rows
into 2^n times a word in root generators at ``exact.Poly`` arguments, with
the one grid product ``exact.poly_matmul``.  ``_word_table`` reads it at
indeterminates as a sparse table of integer monomials in the
(q^2, p q, p^2) of each argument p/q, so the word equals the generator
product for every argument.  Each constructor is then one integer grid and
one canonicalizing ``Matrix7._raw`` call:

* x_gamma(u), n(a, t) and u(a, z) are words of one and five letters,
  evaluated from their tables.
* w_gamma(t) is a signed monomial matrix: ``_weyl_rows`` reads its signs
  and exponents once per root off the three-letter word grid of
  w_gamma(t), a grid over Z[t, t^-1].  w_gamma = w_gamma(1) is its signs,
  and h_gamma(t) = w_gamma(t) w_gamma^-1 the diagonal t^k_i.
* l(A) is the grid ``_l_grid`` over A's common denominator and det A; its
  form and det identities are proved once per process as polynomial
  identities (``_certify_l_grid``, two grid products), and no call
  validates its result.
* w_gamma and iota are values formed once.
* Ad(w_alpha)(g) = w_alpha g w_alpha^-1 is g's grid with its rows and
  columns permuted and signed by ``_weyl_rows`` (``ad_weyl_alpha``), with no
  7x7 product.
* m(A) is still built from Fraction rows and validated on every call.
  m' = Ad(w_alpha)(m(A)) is formed in the 7x7 model by ``m_prime`` alone:
  ``levi_m_prime`` reads its GL2 coordinate, and ``cubic.verify_reduction``
  reads that coordinate and uses the same element, building m' once.
* The inverse of any element is its form adjoint GRAM^-1 g^T GRAM, a signed
  permuted transpose (``exact.form_adjoint``), with no 7x7 product.

A coordinate reader checks its element without building one.  ``n_coords``,
``n1_coords`` and ``u_coords`` read their coordinates as integers over
powers of the element's denominator d, each reduced to one Fraction, and
``_is_word_at`` compares the element with the word table at those
coordinates by integer cross-multiplication where the table's grid is
nonzero, and by a zero test where it is 0: the exact test g == n(a, t) or
g == u(a, z), with no Matrix7 built.
``levi_m_coords`` compares with the Fraction grid of m(A).

Coordinate conventions on the 4-dimensional quotient W:

* ``rho3(A, w)`` is the symmetric-cube substitution action read through
  the binary cubic f_w(u, v) = a1 u^3 + 3 a2 u^2 v + 3 a3 u v^2 + a4 v^3,
  acting by f |-> f(d u + b v, c u + a v).
* ``ad_w(A, w) = det(A)^-1 rho3(A, w)`` is the W-part of conjugation by
  m(A), i.e. m n1(w, z) m^-1 = n1(ad_w(A, w), det(A) z).
* ``coad_w(A, w) = det(A)^2 rho3(A^-1, w)`` is the induced action on
  Fourier-character indices: <coad_w(A, w), x> = <w, ad_w(A, x)>.

All three share one integer substitution, ``_sym3``.  With A = [[a, b],
[c, d]] / e (its ``Matrix2`` grid), D = a d - b c and w = (n1, n2, n3, n4) / L
(L the lcm of w's denominators), each output entry is one Fraction of an
integer cubic over:

* e^3 L for ``rho3``;
* e L D for ``ad_w``, since det A = D / e^2;
* e L D for ``coad_w``, from the same cubics at (d, -b, -c, a), the grid
  of A^-1 = [[d, -b], [-c, a]] e / D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod
from operator import getitem

from .arith import BadInput
from .exact import GRAM, Matrix2, Matrix7, Poly, form_adjoint, mat2, over_lcm, poly_matmul, preserves_form, rat

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


@dataclass(frozen=True)
class RootLabel:
    """One of the 12 roots: a positive-root name plus a sign."""

    name: str
    positive: bool = True

    def __post_init__(self):
        name = _ALIASES.get(self.name, self.name)
        if name not in POSITIVE_ROOTS:
            raise BadInput(f"unknown root {self.name!r}")
        object.__setattr__(self, "name", name)

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
    not a trust assumption, so the type invariant survives.  The inverse is
    the form adjoint GRAM^-1 g^T GRAM, a signed permuted transpose built
    without a 7x7 product (``exact.form_adjoint``).  Coordinate readers
    compare an element with a closed form and do not re-validate it; the n-
    and u-readers compare integers, cross-multiplying the element's grid
    with the word table's at the coordinates they read (``_is_word_at``).
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

    def inverse(self) -> "GroupElement":
        # g^T S g = S gives g^-1 = S^-1 g^T S; S is a signed permutation, so
        # that is one rescaled, permuted transpose and no product.
        return GroupElement._trusted(form_adjoint(self.matrix))

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


@cache
def _exp_table():
    """The generator rows of all 12 roots, certified once per process.

    Each root matrix X = ``_NILPOTENT[root]`` must be integral, with
    X^T S + S X = 0 (X lies in the Lie algebra of the form S = GRAM) and
    X^3 = 0.  These prove that E(u) = I + u X + u^2 X^2/2 preserves the
    form with det 1 for every u: E(u) = exp(u X), and (X^T)^k S = S (-X)^k
    turns E(u)^T S E(u) into S exp(-u X) exp(u X) = S, each power of u
    cancelling separately; E(u) - I is nilpotent, so det E(u) = 1.  Returns
    the rows of X and X^2, per root and row the (column, X, X^2) of each
    nonzero entry, and later constructions skip validation.
    """
    terms = {}
    for gamma in ALL_ROOTS:
        x = nilpotent_matrix(gamma)
        x2 = x * x
        if x.den != 1 or not (x.transpose() * GRAM + GRAM * x).is_zero() or not (x2 * x).is_zero():
            raise AssertionError(f"generator table corrupt at {gamma}")
        terms[(gamma.name, gamma.positive)] = [
            [(j, x.num[i][j], x2.num[i][j]) for j in range(7) if x.num[i][j] or x2.num[i][j]]
            for i in range(7)
        ]
    return terms


def _word_grid(word, args):
    """2^n x_{g_1}(u_1) ... x_{g_n}(u_n) at ``Poly`` arguments u_k (in one set
    of indeterminates), for a word of (root name, sign) keys of
    ``_exp_table``: the ``poly_matmul`` product of the grids
    2 E(u_k) = 2 I + 2 u_k X + u_k^2 X^2 over the certified rows."""
    nvars = args[0].nvars
    grid = None
    for key, u in zip(word, args):
        two, u2 = Poly(nvars, {(0,) * nvars: 2}), u * u
        factor = [[two if i == j else Poly(nvars) for j in range(7)] for i in range(7)]
        for i, row in enumerate(_exp_table()[key]):
            for j, x, x2 in row:
                factor[i][j] = factor[i][j] + 2 * x * u + x2 * u2
        grid = factor if grid is None else poly_matmul(grid, factor, nvars)
    return grid


@cache
def _word_table(word):
    """The entries of a word x_{g_1}(a_1) ... x_{g_n}(a_n) in root generators
    as sparse integer polynomials, expanded once per process from the
    certified generator rows.

    ``_word_grid`` at the indeterminates a_1 .. a_n is 2^n times the word as
    an identity in Z[a_1, .., a_n], of degree at most 2 in each a_k: exact
    polynomial arithmetic over the certified rows, so no sampling and no
    separate certificate.  At a_k = p_k/q_k, times prod q_k^2, a monomial
    with exponent vector c in {0, 1, 2}^n becomes the integer
    prod_k (q_k^2, p_k q_k, p_k^2)[c_k].  The table is (monomials, terms):
    the distinct exponent vectors, and per row the (column, [(integer,
    monomial index)]) of each nonzero entry.  Only the fixed words of this
    module are keys.
    """
    n = len(word)
    grid = _word_grid(word, [Poly.monomial(*(int(i == k) for i in range(n))) for k in range(n)])
    index = {}
    terms = [
        [(j, [(coef, index.setdefault(c, len(index))) for c, coef in entry.items()])
         for j, entry in enumerate(row) if entry]
        for row in grid
    ]
    return tuple(index), terms


def _word_at(word, pairs):
    """The word at arguments p/q, given as integer pairs (p, q) with q > 0,
    evaluated from its expanded table: (grid, den), the word as the integer
    grid over den = 2^n prod q_k^2, not reduced."""
    monomials, terms = _word_table(word)
    den = 1 << len(word)
    powers = []
    for p, q in pairs:
        q2 = q * q
        den *= q2
        powers.append((q2, p * q, p * p))
    values = [prod(map(getitem, powers, c)) for c in monomials]
    grid = []
    for row_terms in terms:
        row = [0] * 7
        for j, monos in row_terms:
            row[j] = sum(coef * values[m] for coef, m in monos)
        grid.append(row)
    return grid, den


def _word_eval(word, args) -> GroupElement:
    """The word at rational arguments: the grid of ``_word_at``,
    canonicalized by ``Matrix7._raw``."""
    pairs = [(x.numerator, x.denominator) for x in map(rat, args)]
    return GroupElement._trusted(Matrix7._raw(*_word_at(word, pairs)))


def _is_word_at(g: GroupElement, word, coords) -> bool:
    """Whether g is the word at the Fraction arguments ``coords``: g's grid
    num / d against the grid / den of ``_word_at`` by cross-multiplication,
    num den == grid d on each entry where the word's grid is nonzero, and
    num == 0 where it is 0 (den > 0).  That is the exact test
    g == word(coords), with no Matrix7 built and no gcd pass over the grid."""
    grid, den = _word_at(word, [(x.numerator, x.denominator) for x in coords])
    d = g.matrix.den
    for row, word_row in zip(g.matrix.num, grid):
        for x, y in zip(row, word_row):
            if (x * den != y * d) if y else x:
                return False
    return True


def root_generator(gamma: RootLabel, u) -> GroupElement:
    """x_gamma(u) = exp(u X_gamma); the series cuts off by nilpotency."""
    return _word_eval(((gamma.name, gamma.positive),), (u,))


@cache
def _weyl_rows(gamma: RootLabel):
    """Per row i of w_gamma(t), the (column c_i, sign s_i, exponent k_i) of
    its one nonzero entry s_i t^k_i, read once per process and root off the
    certified word grid of (gamma, -gamma, gamma).

    At (t, -t^-1, t) in one Laurent indeterminate t, ``_word_grid`` is a
    grid over Z[t, t^-1] equal to 8 w_gamma(t) as an identity there, and an
    identity in Z[t, t^-1] holds at every t != 0 (evaluation there is a ring
    homomorphism).  Every row must be one term +-8 t^k, |k| <= 2;
    then w_gamma(t) = sum_i s_i t^k_i E_(i, c_i) for every t != 0.  It is
    invertible (a product of unipotents), so c is a permutation.  Any other
    grid is refused.
    """
    t = Poly.monomial(1)
    key = (gamma.name, gamma.positive)
    grid = _word_grid((key, (gamma.name, not gamma.positive), key), (t, -Poly.monomial(-1), t))
    rows = []
    for row in grid:
        entries = [(j, v, k) for j, entry in enumerate(row) for (k,), v in entry.items()]
        if len(entries) != 1 or abs(entries[0][1]) != 8 or abs(entries[0][2]) > 2:
            raise AssertionError(f"Weyl word is not a signed monomial matrix at {gamma}")
        j, v, k = entries[0]
        rows.append((j, v // 8, k))
    return tuple(rows)


@cache
def weyl(gamma: RootLabel) -> GroupElement:
    """The fixed Weyl representative w_gamma = w_gamma(1), formed once: the
    sign s_i of ``_weyl_rows`` at (i, c_i) in row i."""
    grid = [[0] * 7 for _ in range(7)]
    for row, (j, s, _) in zip(grid, _weyl_rows(gamma)):
        row[j] = s
    return GroupElement._trusted(Matrix7._raw(grid, 1))


_ALPHA = RootLabel("a")


def torus(gamma: RootLabel, t) -> GroupElement:
    """h_gamma(t) = w_gamma(t) w_gamma(1)^-1 = diag(t^k_i): w_gamma(1)^-1 has
    s_i at (c_i, i), so row i of the product is s_i^2 t^k_i at (i, i).  For
    t = p/q, t^k = p^(2+k) q^(2-k) / (p q)^2, and |k| <= 2 covers every
    exponent of the 7-dimensional weights."""
    t = rat(t)
    if t == 0:
        raise BadInput("t must be nonzero")
    p, q = t.numerator, t.denominator
    p2, q2 = p * p, q * q
    powers = (q2 * q2, p * q2 * q, p2 * q2, p2 * p * q, p2 * p2)
    grid = [[0] * 7 for _ in range(7)]
    for i, (_, _, k) in enumerate(_weyl_rows(gamma)):
        grid[i][i] = powers[k + 2]
    return GroupElement._trusted(Matrix7._raw(grid, p2 * q2))


# ---------------------------------------------------------------------------
# Heisenberg parabolic P = MN

_N_WORD = tuple((name, True) for name in ("b", "a+b", "2a+b", "3a+b", "3a+2b"))


def heis_n(a1, a2, a3, a4, t) -> GroupElement:
    """n(a1, a2, a3, a4, t) = x_b(a1) x_{a+b}(a2) x_{2a+b}(a3) x_{3a+b}(a4)
    x_{3a+2b}(t), one word evaluation."""
    return _word_eval(_N_WORD, (a1, a2, a3, a4, t))


def heis_n1(a1, a2, a3, a4, t) -> GroupElement:
    """Heisenberg coordinates: center recentred so the cocycle is <.,.>."""
    a1, a2, a3, a4, t = map(rat, (a1, a2, a3, a4, t))
    return heis_n(a1, a2, a3, a4, t / 2 - (a1 * a4 / 2 - 3 * a2 * a3 / 2))


def _n_read(g: GroupElement):
    """(coords, p, d) of ``n_coords``: the coordinates, their numerators
    p = (p1, p2, p3, p4, p_t) and g's denominator d."""
    num, d = g.matrix.num, g.matrix.den
    p1, p2, p3, p4 = num[2][5], num[2][6], num[3][6], num[4][6]
    pt = num[1][5] * d + p2 * p3
    coords = Fraction(p1, d), Fraction(p2, d), Fraction(p3, d), Fraction(p4, d), Fraction(pt, d * d)
    if not _is_word_at(g, _N_WORD, coords):
        raise ValueError("element is not in the Heisenberg unipotent group")
    return coords, (p1, p2, p3, p4, pt), d


def n_coords(g: GroupElement):
    """Read (a1, a2, a3, a4, t) off a matrix of n-shape; validates exactly.

    With g = num / d, a1..a4 are entries over d and t = m[1, 5] + a2 a3 is
    an integer over d^2.  g is checked against the word table at those
    coordinates by integer cross-multiplication (``_is_word_at``), the
    same exact test as g == heis_n(a1, a2, a3, a4, t)."""
    return _n_read(g)[0]


def n1_coords(g: GroupElement):
    """Inverse of heis_n1: (a1..a4, t) in recentred coordinates, read and
    checked as in ``n_coords``; the recentred t is
    (2 p_t + p1 p4 - 3 p2 p3) / d^2."""
    (a1, a2, a3, a4, _), (p1, p2, p3, p4, pt), d = _n_read(g)
    return a1, a2, a3, a4, Fraction(2 * pt + p1 * p4 - 3 * p2 * p3, d * d)


def _levi_m_matrix(A: Matrix2) -> Matrix7:
    """The Levi GL2 of the Heisenberg parabolic: the closed-form grid of
    m(A), unchecked.  A singular A is refused."""
    a, b, c, d = A.entries()
    dt = a * d - b * c
    if dt == 0:
        raise BadInput("singular Levi parameter")
    rows = [
        [d, c, 0, 0, 0, 0, 0],
        [b, a, 0, 0, 0, 0, 0],
        [0, 0, d * d / dt, 2 * c * d / dt, c * c / dt, 0, 0],
        [0, 0, b * d / dt, (a * d + b * c) / dt, a * c / dt, 0, 0],
        [0, 0, b * b / dt, 2 * a * b / dt, a * a / dt, 0, 0],
        [0, 0, 0, 0, 0, a / dt, -b / dt],
        [0, 0, 0, 0, 0, -c / dt, d / dt],
    ]
    return Matrix7(rows)


def levi_m(A: Matrix2) -> GroupElement:
    """m(A) in closed form, validated on every call."""
    return GroupElement(_levi_m_matrix(A))


def levi_m_coords(g: GroupElement) -> Matrix2:
    """GL2 coordinate A of an element g of M, read off its top-left block.

    g preserves the form with det 1, being a ``GroupElement``, so if A is
    invertible and g's grid equals ``_levi_m_matrix(A)``, g is m(A): the
    comparison decides, with no second form check.  The det test comes
    first, so a singular block is this ``ValueError``, not ``BadInput``.
    """
    m = g.matrix
    A = mat2(m[1, 1], m[1, 0], m[0, 1], m[0, 0])
    if A.det() == 0 or m != _levi_m_matrix(A):
        raise ValueError("element is not in the Levi M")
    return A


def _l_grid(a, b, c, d, e, D):
    """e^2 D l(A) for A = [[a, b], [c, d]] / e and D = a d - b c: integers in
    ``levi_l``, polynomials in ``_certify_l_grid``."""
    eD, e3 = e * D, e * e * e
    return [
        [a * eD, 0, 0, 0, b * eD, 0, 0],
        [0, D * D, 0, 0, 0, 0, 0],
        [0, 0, a * e3, 0, 0, -b * e3, 0],
        [0, 0, 0, e * eD, 0, 0, 0],
        [c * eD, 0, 0, 0, d * eD, 0, 0],
        [0, 0, -c * e3, 0, 0, d * e3, 0],
        [0, 0, 0, 0, 0, 0, e * e3],
    ]


@cache
def _certify_l_grid():
    """Check once per process that the grid G of ``_l_grid`` at the
    indeterminates (a, b, c, d, e), five ``exact.Poly`` monomials, satisfies
    G^T S G = s^2 S, with S = GRAM and s = e^2 D, as a polynomial identity
    (two ``poly_matmul`` products), and that G is the identity at A = I.

    Then det(G)^2 = s^14 in the integral domain Z[a, b, c, d, e], so
    det G = +-s^7, and the value at A = I fixes the sign.  Hence for every
    A = [[a, b], [c, d]] / e with D != 0, l(A) = G / s preserves the form and
    has det 1.  Raises on any other grid.
    """
    a, b, c, d, e = (Poly.monomial(*(int(i == v) for i in range(5))) for v in range(5))
    G = _l_grid(a, b, c, d, e, a * d - b * c)
    s = e * e * (a * d - b * c)
    S = GRAM.num
    form = poly_matmul(poly_matmul(list(zip(*G)), S, 5), G, 5)
    form_ok = all(form[i][j] == s * s * S[i][j] for i in range(7) for j in range(7))
    if not form_ok or _l_grid(1, 0, 0, 1, 1, 1) != [[int(i == j) for j in range(7)] for i in range(7)]:
        raise AssertionError("l grid corrupt")


def levi_l(A: Matrix2) -> GroupElement:
    """The Levi GL2 of the second maximal parabolic, l(A) in closed form: the
    integer grid ``_l_grid`` over e^2 D, with A = [[a, b], [c, d]] / e and
    D = a d - b c.

    l(A) acts by A on (e0, e4), by adj(A)^T / det A on (e5, e2), by det A on
    e1, by 1 / det A on e6, and trivially on e3.  GRAM pairs 0 <-> 5 and
    4 <-> 2, so that block of l^T GRAM l is A^T adj(A)^T / det A = I; the pair
    1 <-> 6 meets det A against 1 / det A, and e3 keeps its -2.  So l(A)
    preserves the form, and det l(A) = det A (det A)^-1 det A (det A)^-1 = 1.
    ``_certify_l_grid`` proves both once per process for every A with
    D != 0, so the result is trusted with no per-call check.
    """
    _certify_l_grid()
    (a, b), (c, d) = A.num
    e = A.den
    D = a * d - b * c
    if D == 0:
        raise BadInput("singular Levi parameter")
    return GroupElement._trusted(Matrix7._raw(_l_grid(a, b, c, d, e, D), e * e * D))


_U_WORD = tuple((name, True) for name in ("a", "a+b", "2a+b", "3a+b", "3a+2b"))


def u_coord(a1, a2, a3, a4, z) -> GroupElement:
    """u(a1, a2, a3, a4, z) = x_a(a1) x_{a+b}(a2) x_{2a+b}(a3) x_{3a+b}(a4)
    x_{3a+2b}(z), one word evaluation."""
    return _word_eval(_U_WORD, (a1, a2, a3, a4, z))


def z_coord(x, y) -> GroupElement:
    """z(x, y) = u(0, 0, 0, x, y), the center of U."""
    return u_coord(0, 0, 0, x, y)


def u_coords(g: GroupElement):
    """Read (a1, a2, a3, a4, z) off a matrix of u-shape; validates exactly.

    With g = num / d, a1 and a2 are entries over d, a3 = m[3, 6] + a1 a2 is
    an integer over d^2, and a4 = m[4, 6] - a1^2 a2 + 2 a1 a3 and
    z = 2 a2 a3 - m[0, 6] are integers over d^3.  g is checked against the
    word table at those coordinates by integer cross-multiplication
    (``_is_word_at``), the same exact test as g == u_coord(a1, .., z)."""
    num, d = g.matrix.num, g.matrix.den
    p1, p2 = num[5][6], num[2][6]
    p3 = num[3][6] * d + p1 * p2
    d2 = d * d
    p4 = num[4][6] * d2 - p1 * p1 * p2 + 2 * p1 * p3
    pz = 2 * p2 * p3 - num[0][6] * d2
    coords = Fraction(p1, d), Fraction(p2, d), Fraction(p3, d2), Fraction(p4, d2 * d), Fraction(pz, d2 * d)
    if not _is_word_at(g, _U_WORD, coords):
        raise ValueError("element is not in the unipotent group U")
    return coords


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


@cache
def iota() -> GroupElement:
    """The fixed word w_b w_a w_b w_a w_b^-1 used to compare the two Levis,
    formed once."""
    wa, wb = weyl(RootLabel("a")), weyl(RootLabel("b"))
    return wb * wa * wb * wa * wb.inverse()


# ---------------------------------------------------------------------------
# W-coordinate actions

def symplectic(a, b) -> Fraction:
    """<a, b> = a1 b4 - 3 a2 b3 + 3 a3 b2 - a4 b1."""
    a = tuple(map(rat, a))
    b = tuple(map(rat, b))
    return a[0] * b[3] - 3 * a[1] * b[2] + 3 * a[2] * b[1] - a[3] * b[0]


def _sym3(x1, x2, y1, y2, w):
    """(T(x, x, x), T(x, x, y), T(x, y, y), T(y, y, y), L), where w = n / L
    is ``over_lcm(w)`` and T is the symmetric trilinear form
    of f_n, f_n(u, v) = T(p, p, p) for p = (u, v): the integer coefficients
    of f_n(u x + v y) on the (1, 3, 3, 1)-weighted basis, for integer x, y."""
    (n1, n2, n3, n4), L = over_lcm(w)
    # T(x, ., .) and T(y, ., .) as symmetric 2x2 grids, then one more contraction
    m11, m12, m22 = n1 * x1 + n2 * x2, n2 * x1 + n3 * x2, n3 * x1 + n4 * x2
    k11, k12, k22 = n1 * y1 + n2 * y2, n2 * y1 + n3 * y2, n3 * y1 + n4 * y2
    xx1, xx2 = m11 * x1 + m12 * x2, m12 * x1 + m22 * x2
    yy1, yy2 = k11 * y1 + k12 * y2, k12 * y1 + k22 * y2
    return xx1 * x1 + xx2 * x2, xx1 * y1 + xx2 * y2, yy1 * x1 + yy2 * x2, yy1 * y1 + yy2 * y2, L


def _grid(A: Matrix2):
    """A's integer grid (a, b, c, d) over e, with D = a d - b c; a singular A
    is refused before any W-action reads its w."""
    (a, b), (c, d) = A.num
    D = a * d - b * c
    if D == 0:
        raise BadInput("singular matrix")
    return a, b, c, d, D


def rho3(A: Matrix2, w):
    """Symmetric-cube action: coefficients of f_w(d u + b v, c u + a v), each
    the ``_sym3`` integer at x = (d, c), y = (b, a) over e^3 L.

    Satisfies rho3(A*B, w) = rho3(A, rho3(B, w)) and
    q(rho3(A, w)) = det(A)^6 q(w).
    """
    a, b, c, d, _ = _grid(A)
    *cubic, L = _sym3(d, c, b, a, w)
    den = A.den**3 * L
    return tuple(Fraction(x, den) for x in cubic)


def ad_w(A: Matrix2, w):
    """W-part of conjugation by m(A): det(A)^-1 rho3(A, w), the integers of
    ``rho3`` over e L D."""
    a, b, c, d, D = _grid(A)
    *cubic, L = _sym3(d, c, b, a, w)
    den = A.den * L * D
    return tuple(Fraction(x, den) for x in cubic)


def coad_w(A: Matrix2, w):
    """Dual action on character indices: det(A)^2 rho3(A^-1, w), the
    ``_sym3`` integers at the grid (d, -b, -c, a) of A^-1 over e L D."""
    a, b, c, d, D = _grid(A)
    *cubic, L = _sym3(a, -c, -b, d, w)
    den = A.den * L * D
    return tuple(Fraction(x, den) for x in cubic)


def ad_weyl_alpha(g: GroupElement) -> GroupElement:
    """Conjugation by the fixed Weyl representative of the short root,
    w_alpha g w_alpha^-1, as one signed permutation of g's grid.

    w_alpha = w_alpha(1) has s_i = +-1 at (i, c_i) (``_weyl_rows``), c a
    permutation, so w_alpha^-1 = w_alpha^T has s_i at (c_i, i) and entry
    (i, j) of the product is s_i s_j g[c_i][c_j].  Over g's denominator that
    grid is already canonical, since it holds g's entries up to sign.
    """
    rows = _weyl_rows(_ALPHA)
    m = g.matrix
    grid = tuple(tuple(si * sj * m.num[ci][cj] for cj, sj, _ in rows) for ci, si, _ in rows)
    return GroupElement._trusted(Matrix7._raw(grid, m.den))


def m_prime(A: Matrix2) -> GroupElement:
    """m' = Ad(w_alpha)(m(A)), formed in the 7x7 model: the validated m(A)
    conjugated by the fixed Weyl representative, so a ``GroupElement`` by
    closure with no second form check.  The one definition of m'."""
    return ad_weyl_alpha(levi_m(A))


def levi_m_prime(A: Matrix2) -> Matrix2:
    """GL2 coordinate of ``m_prime(A)``, read by ``levi_m_coords``.
    w_alpha^2 = m(-I) is central in M, so Ad(w_alpha) is an involution on M
    and the same map recovers A from m'."""
    return levi_m_coords(m_prime(A))

