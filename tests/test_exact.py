from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lift.exact import (
    GRAM,
    Matrix2,
    Matrix5,
    Matrix7,
    Poly,
    _adjoint_table,
    echelon,
    form_adjoint,
    kernel,
    mat2,
    preserves_form,
)

from conftest import rand_rat
from oracles import GRAM_INV, det_cofactor, invert_alpha, preserves_form_by_products, rational_kernel

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def rand_matrix7(rng):
    return Matrix7([[rand_rat(rng, 40) for _ in range(7)] for _ in range(7)])


def test_identity_product():
    i7 = Matrix7.identity()
    assert i7 * i7 == i7


def test_gram_inverse():
    assert GRAM * GRAM_INV == Matrix7.identity()


def test_generator_square_matches_doubled_parameter():
    # the exponential one-parameter law, seen through raw matrices
    from g2lift.group import heis_n

    n1 = heis_n(1, 0, 0, 0, 0)
    n2 = heis_n(2, 0, 0, 0, 0)
    assert n1.matrix * n1.matrix == n2.matrix


def test_mat_mul_associative(rng):
    for _ in range(15):
        a, b, c = (rand_matrix7(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def _inversions(perm):
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])


def test_det_matches_cofactor_oracle(rng):
    grids = [rand_matrix7(rng) for _ in range(8)]
    grids += [Matrix5([[rand_rat(rng, 40) for _ in range(5)] for _ in range(5)]) for _ in range(8)]
    # row permutations of triangular grids: zero leading entries force swaps
    for cls in (Matrix5, Matrix7):
        n = cls.SIZE
        for _ in range(4):
            upper = [[rand_rat(rng, 40) if j >= i else 0 for j in range(n)] for i in range(n)]
            perm = rng.sample(range(n), n)
            for p in (perm, [perm[1], perm[0]] + perm[2:]):  # one odd, one even
                m = cls([upper[i] for i in p])
                assert m.det() == (-1) ** _inversions(p) * cls(upper).det()
                grids.append(m)
    # singular with its zero column in the middle, so later columns still have pivots
    grids.append(Matrix7([[0 if j == 3 else rand_rat(rng, 40) for j in range(7)] for _ in range(7)]))
    for m in grids:
        assert m.det() == det_cofactor([list(r) for r in m.rows])
    assert grids[-1].det() == 0


@st.composite
def integer_rows(draw):
    """1 to 12 rows and columns, square about half the time, some rows and
    columns replaced by a combination a x + b y of two others: repeated
    (a, b = 1, 0), combined or zero (a = b = 0)."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.one_of(st.just(nrows), st.integers(1, 12)))
    small = st.integers(-3, 3)
    row = st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 3))):
        i, j, t = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        a, b = draw(small), draw(small)
        rows[t] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    for _ in range(draw(st.integers(0, 3))):
        i, j, t = (draw(st.integers(0, ncols - 1)) for _ in range(3))
        a, b = draw(small), draw(small)
        for r in rows:
            r[t] = a * r[i] + b * r[j]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_rows())
def test_echelon_and_kernel_match_gauss_jordan(case):
    rows, ncols = case
    want = rational_kernel(rows, ncols)
    m = [list(r) for r in rows]
    pivots, sign = echelon(m, ncols)
    assert len(pivots) == ncols - len(want)  # the same rank
    # a Gauss-Jordan kernel vector's last nonzero entry is its free column
    free = [max(i for i, x in enumerate(v) if x) for v in want]
    assert pivots == [c for c in range(ncols) if c not in free]
    for i, r in enumerate(m):
        assert next((j for j, x in enumerate(r) if x), None) == (pivots[i] if i < len(pivots) else None)
    if len(rows) == ncols <= 6:
        assert sign * m[-1][-1] == det_cofactor(rows)
    got = kernel([list(r) for r in rows], ncols)
    assert len(got) == len(want)
    for w, v, f in zip(got, want, free):  # v[f] = 1, so w = w[f] v
        assert w[f] != 0 and w == [w[f] * x for x in v]


def test_det_singular():
    rows = [[F(i + j) for j in range(7)] for i in range(7)]
    assert Matrix7(rows).det() == 0


def test_preserves_form_identity_and_diag():
    assert preserves_form(Matrix7.identity())
    bad = Matrix7.from_entries({(i, i): 1 for i in range(7)} | {(0, 0): 2})
    assert not preserves_form(bad)


def test_det_minus_one_isometry_is_refused():
    """diag(1, 1, 1, -1, 1, 1, 1) preserves the form but has det -1: the det
    check refuses it, in the one-product check and in its oracle."""
    from g2lift.group import GroupElement

    flip = Matrix7.from_entries({(i, i): -1 if i == 3 else 1 for i in range(7)})
    assert flip.transpose() * GRAM * flip == GRAM and flip.det() == -1
    assert not preserves_form(flip)
    assert not preserves_form_by_products(flip)
    with pytest.raises(ValueError):
        GroupElement(flip)


def test_adjoint_table_refuses_other_forms():
    ones = {(0, 5): 1, (5, 0): 1, (1, 6): 1, (6, 1): 1, (2, 4): 1, (4, 2): 1}
    cycle = {(0, 1): 1, (1, 2): 1, (2, 0): 1} | {(i, i): 1 for i in range(3, 7)}
    for bad in (
        GRAM + Matrix7.identity(),  # two nonzeros in a row
        Matrix7.from_entries(ones | {(3, 3): F(-1, 2)}),  # not integral
        Matrix7.from_entries(ones | {(3, 3): 1, (5, 0): 2}),  # s_0 != s_5
        Matrix7.from_entries(cycle),  # sigma is not an involution
    ):
        with pytest.raises(AssertionError):
            _adjoint_table(bad)
    assert _adjoint_table(GRAM)[0] == 2
    assert form_adjoint(Matrix7.identity()) == Matrix7.identity()


def test_preserves_form_all_generators():
    from g2lift.group import ALL_ROOTS, root_generator

    for gamma in ALL_ROOTS:
        for u in (1, -1, 2, -2, F(3, 5)):
            assert preserves_form(root_generator(gamma, u).matrix)


def test_preserves_form_closed_under_product(rng):
    from g2lift.group import ALL_ROOTS, identity, root_generator

    g = identity()
    for _ in range(100):
        gamma = rng.choice(ALL_ROOTS)
        g = g * root_generator(gamma, rand_rat(rng, 20))
        assert preserves_form(g.matrix)


@given(
    a=rationals, b=rationals, c=rationals, d=rationals,
    e=rationals, f=rationals, g=rationals, h=rationals,
)
@settings(max_examples=60, deadline=None)
def test_matrix2_ring_laws(a, b, c, d, e, f, g, h):
    m1, m2 = mat2(a, b, c, d), mat2(e, f, g, h)
    assert (m1 + m2).transpose() == m1.transpose() + m2.transpose()
    assert (m1 * m2).transpose() == m2.transpose() * m1.transpose()
    assert (m1 * m2).det() == m1.det() * m2.det()


def test_matrix2_inverse():
    a = mat2(F(1, 2), 3, -2, F(5, 7))
    assert a * a.inverse() == Matrix2.identity()
    with pytest.raises(ZeroDivisionError):
        mat2(1, 2, 2, 4).inverse()


def test_entries_always_reduced():
    m = mat2(F(2, 4), F(6, 9), 0, 1)
    a, b, _, _ = m.entries()
    assert (a.numerator, a.denominator) == (1, 2)
    assert (b.numerator, b.denominator) == (2, 3)
    assert all(x.denominator > 0 for x in m.entries())


def test_gram_blocks():
    assert GRAM[3, 3] == -2
    assert GRAM[0, 5] == GRAM[5, 0] == 1
    assert GRAM == GRAM.transpose()


small_rationals = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))


@st.composite
def sparse_polys(draw, nvars):
    """(Poly, its terms as drawn): up to six terms with exponents in -3..3
    and small rational coefficients, zero among them."""
    exponents = st.tuples(*[st.integers(-3, 3)] * nvars)
    terms = draw(st.dictionaries(exponents, small_rationals, max_size=6))
    return Poly(nvars, terms), terms


def _value(terms, point):
    return sum(c * prod(x**e for x, e in zip(point, m)) for m, c in terms.items())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([2, 5]))
def test_poly_agrees_with_evaluation(data, nvars):
    """Every operation, with a scalar on either side, agrees exactly with
    the values at a point of nonzero Fractions, and no zero is stored."""
    (f, f_terms), (g, g_terms) = data.draw(sparse_polys(nvars)), data.draw(sparse_polys(nvars))
    c = data.draw(small_rationals)
    point = data.draw(st.tuples(*[st.fractions(-4, 4, max_denominator=5).filter(bool)] * nvars))
    x, y = _value(f_terms, point), _value(g_terms, point)
    assert f.at(*point) == x and g.at(*point) == y
    cases = [
        (f, x), (f + g, x + y), (f - g, x - y), (f * g, x * y), (-f, -x),
        (f + c, x + c), (c + f, c + x), (f - c, x - c), (c - f, c - x), (f * c, x * c), (c * f, c * x),
    ]
    for h, want in cases:
        assert type(h) is Poly and h.nvars == nvars
        assert h.at(*point) == want
        assert all(h.values())


def test_poly_laurent_algebra():
    a = Poly.monomial(1, 0)
    b = Poly.monomial(-1, 0)
    assert a * b == Poly.monomial(0, 0)
    assert invert_alpha(a + b) == a + b
    assert (a - a) == Poly(2)
    assert Poly(2, {(0, 0): F(0)}) == Poly(2)
