import sys
from fractions import Fraction as F
from math import gcd, prod

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
    canonical,
    echelon,
    form_adjoint,
    kernel,
    mat2,
    over_lcm,
    parse_rational,
    poly_matmul,
    preserves_form,
    rat,
)
from g2lift.arith import InputTooLarge

from conftest import rand_rat
from oracles import (
    GRAM_INV,
    det_cofactor,
    grid_by_fraction_products,
    invert_alpha,
    poly_at,
    preserves_form_by_products,
    rational_kernel,
)

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


_entry_st = st.one_of(
    st.integers(-10**15, 10**15),
    st.fractions(max_denominator=10**12),
    st.builds("{}/{}".format, st.integers(-10**15, 10**15), st.integers(1, 10**12)),
    st.just(0),
)


@st.composite
def _grids(draw):
    n = draw(st.sampled_from((2, 5, 7)))
    row_st = st.one_of(st.lists(_entry_st, min_size=n, max_size=n), st.just([0] * n))
    return n, draw(st.lists(row_st, min_size=n, max_size=n))


@given(case=_grids())
@settings(max_examples=300, deadline=None)
def test_construction_matches_fraction_products(case):
    """Rows of ints, Fractions with denominators up to 10^12 and 'p/q'
    strings, zeros and all-zero rows among them, give the grid of one
    Fraction product per entry, already canonical, and read back as drawn."""
    n, rows = case
    m = {2: Matrix2, 5: Matrix5, 7: Matrix7}[n](rows)
    assert (m.num, m.den) == grid_by_fraction_products(rows, n)
    assert all(type(x) is int for r in m.num for x in r)
    assert m.den > 0 and gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert m.rows == tuple(tuple(F(x) for x in r) for r in rows)


_big = st.integers(-2**200, 2**200)


@given(
    values=st.lists(st.one_of(st.just(0), _big, st.builds(F, _big, st.integers(1, 2**200))), max_size=10),
    den=_big.filter(bool),
    at=st.integers(0, 10),
)
@settings(max_examples=200, deadline=None)
def test_over_lcm_and_canonical_make_one_form(values, den, at):
    """over_lcm writes values (zeros, negatives, numerators and denominators
    up to 2^200) over the lcm of their denominators, canonical with no gcd
    pass, and refuses a float among them; canonical keeps the values of
    integers over any den != 0, is idempotent and refuses den = 0."""
    nums, lcm_den = over_lcm(values)
    assert [F(x, lcm_den) for x in nums] == values
    assert lcm_den > 0 and gcd(lcm_den, *nums) == 1
    with pytest.raises(TypeError, match="float 0.5"):
        over_lcm(values[:at] + [0.5] + values[at:])
    ints = [F(x).numerator for x in values]
    out = canonical(ints, den)
    assert [F(x, out[1]) for x in out[0]] == [F(x, den) for x in ints]
    assert out[1] > 0 and gcd(out[1], *out[0]) == 1 and canonical(*out) == out
    with pytest.raises(ZeroDivisionError, match="denominator is zero"):
        canonical(ints, 0)


def test_zero_denominator_is_refused_at_construction():
    """An int grid over den = 0 is refused where it is built, as a q-series
    is, and not at its first entry read."""
    for cls in (Matrix2, Matrix5, Matrix7):
        with pytest.raises(ZeroDivisionError, match="denominator is zero"):
            cls._raw(cls.identity().num, 0)


def test_wrong_shapes_are_refused():
    for cls in (Matrix2, Matrix5, Matrix7):
        n = cls.SIZE
        for rows in ([[1] * n] * (n - 1), [[1] * n] * (n + 1), [[1] * n] * (n - 1) + [[1] * (n - 1)]):
            with pytest.raises(ValueError, match=f"expected {n}x{n} matrix"):
                cls(rows)


def test_floats_are_refused():
    """rat, the one way into the exact kernel, names a float and refuses it
    instead of taking its binary value; so do the constructors through it."""
    assert rat(F(1, 10)) == rat("1/10") == rat("0.1") == F(1, 10)
    for bad in (0.1, 2.0, float("nan")):
        with pytest.raises(TypeError, match=f"float {bad!r} is not an exact rational"):
            rat(bad)
    with pytest.raises(TypeError, match="float 0.5"):
        mat2(1, 0.5, 0, 1)
    with pytest.raises(TypeError, match="float 0.25"):
        Matrix7.from_entries({(0, 0): 0.25})


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
    assert poly_at(f, *point) == x and poly_at(g, *point) == y
    cases = [
        (f, x), (f + g, x + y), (f - g, x - y), (f * g, x * y), (-f, -x),
        (f + c, x + c), (c + f, c + x), (f - c, x - c), (f * c, x * c), (c * f, c * x),
    ]
    for h, want in cases:
        assert type(h) is Poly and h.nvars == nvars
        assert poly_at(h, *point) == want
        assert all(h.values())


def test_poly_laurent_algebra():
    a = Poly.monomial(1, 0)
    b = Poly.monomial(-1, 0)
    assert a * b == Poly.monomial(0, 0)
    assert invert_alpha(a + b) == a + b
    assert (a - a) == Poly(2)
    assert Poly(2, {(0, 0): F(0)}) == Poly(2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_matmul_agrees_with_evaluation(data):
    """The grid product of two sparse 7x7 grids of Laurent Polys and scalars,
    evaluated at a point of nonzero Fractions, is the Matrix7 product of the
    evaluated grids; every entry of the product is a Poly, zero included."""
    entry = st.one_of(sparse_polys(2).map(lambda p: p[0]), small_rationals)
    cells = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), entry, max_size=16)

    def grid(drawn):
        return [[drawn.get((i, j), 0) for j in range(7)] for i in range(7)]

    a, b = grid(data.draw(cells)), grid(data.draw(cells))
    point = data.draw(st.tuples(*[st.fractions(-4, 4, max_denominator=5).filter(bool)] * 2))

    def at(g):
        return Matrix7([[poly_at(x, *point) if isinstance(x, Poly) else x for x in row] for row in g])

    out = poly_matmul(a, b, 2)
    assert all(type(x) is Poly and x.nvars == 2 for row in out for x in row)
    assert at(out) == at(a) * at(b)


def test_matrices_are_immutable_hashable_and_of_one_size():
    """Equal matrices hash equal, as a frozen record holding a Matrix2
    (cubic.CanonicalReduction) needs; a matrix refuses assignment; and a
    Matrix2 times or plus a Matrix7 is a TypeError, not a product."""
    a, b = mat2(1, F(1, 2), 0, 3), mat2(1, F(1, 2), 0, 3)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, Matrix2.identity()}) == 2
    with pytest.raises(AttributeError, match="matrix is immutable"):
        a.den = 2
    seven = Matrix7.identity()
    with pytest.raises(TypeError):
        a * seven
    with pytest.raises(TypeError):
        a + seven
    assert repr(a) == "Matrix2(\n[1  1/2]\n[0  3]\n)"


INT_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_STR_LIMIT, reason="no int/str conversion limit")
def test_digit_runs_refused_past_the_conversion_limit():
    """A run of digits up to the limit (4300 by default) parses, in every
    rational form; one digit more is refused in digits, underscores aside."""
    n = INT_STR_LIMIT
    assert parse_rational("7" * n) == int("7" * n)
    assert parse_rational(f"-{'7' * n}/{'3' * n}") == F(-int("7" * n), int("3" * n))
    assert parse_rational(f"{'7' * n}.{'3' * n}") == int("7" * n) + F(int("3" * n), 10**n)
    for text in ("7" * (n + 1), f"1/{'3' * (n + 1)}", "0." + "3" * (n + 1), "1_" * n + "1"):
        with pytest.raises(InputTooLarge, match=f"a {n + 1}-digit number exceeds the {n}-digit limit"):
            parse_rational(text)
