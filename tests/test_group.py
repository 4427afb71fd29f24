import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lift.arith import BadInput
from g2lift.exact import GRAM, Matrix7, Poly, form_adjoint, mat2, preserves_form
from g2lift.group import (
    ALL_ROOTS,
    RootLabel,
    ad_w,
    ad_weyl_alpha,
    coad_w,
    heis_n,
    heis_n1,
    identity,
    iota,
    levi_l,
    levi_m,
    levi_m_coords,
    levi_m_prime,
    n1_coords,
    n_coords,
    rho3,
    root_generator,
    symplectic,
    torus,
    u_coord,
    u_coords,
    u_tilde1,
    weyl,
    z_coord,
)

from conftest import rand_mat2, rand_rat
from oracles import (
    ad_weyl_alpha_by_products,
    certify_by_sampling,
    exp_by_table_sum,
    exp_power_table,
    exp_powers,
    heis_n_by_products,
    inverse_by_gram,
    levi_l_by_rows,
    preserves_form_by_products,
    rho3_oracle,
    root_coords,
    torus_by_products,
    u_coord_by_products,
    weyl_t_by_products,
    word_by_products,
)

rat_st = st.fractions(min_value=-30, max_value=30, max_denominator=9)
vec_st = st.tuples(rat_st, rat_st, rat_st, rat_st)


def test_group_elements_are_immutable_and_hash_by_value():
    g, h = levi_m(mat2(2, 1, 1, 1)), levi_m(mat2(2, 1, 1, 1))
    assert g == h and g is not h and hash(g) == hash(h)
    assert len({g, h, identity()}) == 2
    with pytest.raises(AttributeError, match="GroupElement is immutable"):
        g.matrix = Matrix7.identity()
    assert repr(g) == f"GroupElement({g.matrix!r})"


# --- displayed closed forms -------------------------------------------------

def n_closed(a1, a2, a3, a4, t):
    a1, a2, a3, a4, t = map(F, (a1, a2, a3, a4, t))
    return Matrix7(
        [
            [1, 0, -a3, 2 * a2, -a1, a2 * a2 - a1 * a3, 2 * a2 * a3 - a1 * a4 - t],
            [0, 1, -a4, 2 * a3, -a2, -a2 * a3 + t, a3 * a3 - a2 * a4],
            [0, 0, 1, 0, 0, a1, a2],
            [0, 0, 0, 1, 0, a2, a3],
            [0, 0, 0, 0, 1, a3, a4],
            [0, 0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 1],
        ]
    )


def u_closed(a1, a2, a3, a4, z):
    a1, a2, a3, a4, z = map(F, (a1, a2, a3, a4, z))
    return Matrix7(
        [
            [1, 0, -a3, 2 * a2, 0, a2 * a2, 2 * a2 * a3 - z],
            [-a1, 1, a1 * a3 - a4, -2 * (a1 * a2 - a3), -a2, -a1 * a2 * a2 - a2 * a3 + z,
             -2 * a1 * a2 * a3 + a1 * z - a2 * a4 + a3 * a3],
            [0, 0, 1, 0, 0, 0, a2],
            [0, 0, -a1, 1, 0, a2, a3 - a1 * a2],
            [0, 0, a1 * a1, -2 * a1, 1, a3 - 2 * a1 * a2, a1 * a1 * a2 - 2 * a1 * a3 + a4],
            [0, 0, 0, 0, 0, 1, a1],
            [0, 0, 0, 0, 0, 0, 1],
        ]
    )


def test_heis_n_matches_displayed_matrix(rng):
    for _ in range(25):
        v = [rand_rat(rng, 9) for _ in range(5)]
        assert heis_n(*v).matrix == n_closed(*v)


def test_u_coord_matches_displayed_matrix(rng):
    for _ in range(25):
        v = [rand_rat(rng, 9) for _ in range(5)]
        assert u_coord(*v).matrix == u_closed(*v)


def test_root_generator_trivial_and_beta_line():
    assert root_generator(RootLabel("beta"), 0) == identity()
    for a1 in (1, -3, F(2, 7)):
        assert root_generator(RootLabel("beta"), a1) == heis_n(a1, 0, 0, 0, 0)


def test_one_parameter_power():
    x = root_generator(RootLabel("alpha"), 1)
    assert x * x * x * x * x == root_generator(RootLabel("alpha"), 5)
    y = x.inverse()
    assert y * y * y == root_generator(RootLabel("alpha"), -3)


def test_weyl_representatives():
    # the displayed Levi values; the beta representative of the generator
    # word is the inverse of the displayed one (sign choice recorded)
    assert weyl(RootLabel("a")) == levi_m(mat2(0, -1, 1, 0))
    assert weyl(RootLabel("b")) == levi_l(mat2(0, 1, -1, 0)).inverse()
    assert weyl(RootLabel("b")) == levi_l(mat2(0, -1, 1, 0))


def test_torus_identity_and_rejects_zero():
    for gamma in ALL_ROOTS:
        assert torus(gamma, 1) == identity()
    with pytest.raises(ValueError):
        torus(RootLabel("a"), 0)


def test_torus_multiplicativity(rng):
    for gamma in (RootLabel("a"), RootLabel("b"), RootLabel("3a+2b")):
        t, s = F(5, 3), F(-7, 2)
        assert torus(gamma, t) * torus(gamma, s) == torus(gamma, t * s)


def test_heisenberg_center_line():
    for t, s in ((1, 2), (F(1, 3), F(-5, 2))):
        lhs = heis_n(0, 0, 0, 0, t) * heis_n(0, 0, 0, 0, s)
        assert lhs == heis_n(0, 0, 0, 0, F(t) + F(s))


def test_heisen1_specific_values():
    assert heis_n(0, 0, 1, 0, 0) * heis_n(0, 1, 0, 0, 0) == heis_n(0, 1, 1, 0, 3)
    assert heis_n(0, 0, 0, 1, 0) * heis_n(1, 0, 0, 0, 0) == heis_n(1, 0, 0, 1, -1)


@given(a=st.tuples(*[rat_st] * 5), b=st.tuples(*[rat_st] * 5))
@settings(max_examples=40, deadline=None)
def test_heisen2_hypothesis(a, b):
    t = a[4] + b[4] + symplectic(a[:4], b[:4])
    assert heis_n1(*a) * heis_n1(*b) == heis_n1(
        a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], t
    )


def test_n_coords_roundtrip(rng):
    for _ in range(10):
        v = [rand_rat(rng, 9) for _ in range(5)]
        assert n_coords(heis_n(*v)) == tuple(v)
        assert n1_coords(heis_n1(*v)) == tuple(v)
    with pytest.raises(ValueError):
        n_coords(levi_m(mat2(2, 0, 0, 1)))


def test_u_coords_roundtrip(rng):
    for _ in range(10):
        v = [rand_rat(rng, 9) for _ in range(5)]
        assert u_coords(u_coord(*v)) == tuple(v)
    with pytest.raises(ValueError, match="not in the unipotent group U"):
        u_coords(levi_m(mat2(2, 0, 0, 1)))


def test_levi_maps_reject_singular():
    with pytest.raises(ValueError):
        levi_m(mat2(1, 2, 2, 4))
    with pytest.raises(ValueError):
        levi_l(mat2(0, 0, 0, 1))
    with pytest.raises(ValueError):
        levi_l(mat2(1, 2, 2, 4))


def test_levi_m_identity_and_coords(rng):
    assert levi_m(mat2(1, 0, 0, 1)) == identity()
    for _ in range(10):
        A = rand_mat2(rng)
        assert levi_m_coords(levi_m(A)) == A
    with pytest.raises(ValueError, match="not in the Levi M"):
        levi_m_coords(heis_n(1, 0, 0, 0, 0))


def _block_det(g):
    m = g.matrix
    return mat2(m[1, 1], m[1, 0], m[0, 1], m[0, 0]).det()


def test_levi_m_coords_refuses_by_comparison():
    """Elements outside M whose top-left block has det 1: the det test
    passes, so the comparison with the closed form must refuse them.  Each
    differs from an m(A) only outside the three diagonal blocks (rows and
    columns 0-1, 2-4, 5-6), so a reader that compares fewer entries than
    the whole grid accepts them."""
    for g in (
        heis_n(0, 0, 0, 0, 1),
        u_coord(0, 0, 0, 0, 1),
        levi_l(mat2(1, 1, 0, 1)),
        levi_m(mat2(2, 1, 1, 1)) * heis_n(0, 0, 0, 0, 1),
    ):
        assert _block_det(g) == 1
        with pytest.raises(ValueError, match="not in the Levi M"):
            levi_m_coords(g)


def test_levi_m_coords_refuses_a_singular_block_as_not_in_m():
    """A singular top-left block is refused by the det test before any
    closed form is formed, as the reader's ValueError and not the closed
    form's BadInput."""
    for g in (weyl(RootLabel("b")), iota()):
        assert _block_det(g) == 0
        with pytest.raises(ValueError, match="not in the Levi M") as info:
            levi_m_coords(g)
        assert not isinstance(info.value, BadInput)


def test_levi_m_coords_reads_members_built_elsewhere():
    """Members of M built by other constructors: u(1, 0, 0, 0, 0), the ml
    identity, and the torus element h_b(2)."""
    for g in (u_coord(1, 0, 0, 0, 0), torus(RootLabel("b"), 2)):
        A = levi_m_coords(g)
        assert levi_m(A) == g


def test_form_checks_per_levi_call(monkeypatch):
    """levi_m validates its grid once, levi_m_coords compares and does not
    validate, and levi_m_prime makes only the one check of its m(A)."""
    import g2lift.group as group

    calls = []
    check = group.preserves_form

    def counted(m):
        calls.append(m)
        return check(m)

    monkeypatch.setattr(group, "preserves_form", counted)
    A = mat2(F(2, 3), 5, -1, F(7, 2))
    g = levi_m(A)
    assert len(calls) == 1
    assert levi_m_coords(g) == A
    assert len(calls) == 1
    levi_m_prime(A)
    assert len(calls) == 2


wide_rat_st = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**32))
wide_mat2_st = st.tuples(wide_rat_st, wide_rat_st, wide_rat_st, wide_rat_st).map(lambda t: mat2(*t)).filter(
    lambda A: A.det() != 0
)


@given(A=wide_mat2_st)
@settings(max_examples=200, deadline=None)
def test_levi_m_coords_and_m_prime_on_wide_entries(A):
    """The reader recovers A from m(A), and the 7x7 route of m' equals the
    2x2 conjugation J A J^-1 = [[d, -c], [-b, a]], J = [[0, -1], [1, 0]],
    at 64-bit numerators and 32-bit denominators."""
    a, b, c, d = A.entries()
    assert levi_m_coords(levi_m(A)) == A
    assert levi_m_prime(A) == mat2(d, -c, -b, a)


def test_ml_identities(rng):
    for _ in range(10):
        a = rand_rat(rng, 9) or F(1)
        d = rand_rat(rng, 9) or F(2)
        b = rand_rat(rng, 9)
        assert levi_l(mat2(a, 0, 0, d)) == levi_m(mat2(a * d, 0, 0, a))
        assert levi_l(mat2(1, b, 0, 1)) == heis_n(-b, 0, 0, 0, 0)
        assert levi_m(mat2(1, b, 0, 1)) == u_coord(-b, 0, 0, 0, 0)


def test_action1_conjugation(rng):
    for _ in range(20):
        A = rand_mat2(rng)
        a = [rand_rat(rng, 9) for _ in range(4)]
        z = rand_rat(rng, 9)
        lhs = levi_m(A) * heis_n1(*a, z) * levi_m(A).inverse()
        assert lhs == heis_n1(*ad_w(A, a), A.det() * z)


# --- rho3 and the pairing ---------------------------------------------------

def test_rho3_identity_and_examples(rng):
    a = tuple(rand_rat(rng, 9) for _ in range(4))
    assert rho3(mat2(1, 0, 0, 1), a) == a
    x, d = F(3, 2), F(-5, 7)
    assert rho3(mat2(x, 0, 0, d), a) == (d**3 * a[0], d * d * x * a[1], d * x * x * a[2], x**3 * a[3])
    assert rho3(mat2(0, -1, 1, 0), a) == (a[3], -a[2], a[1], -a[0])


def test_rho3_rejects_singular():
    """rho3, ad_w and coad_w refuse a singular A with the one typed refusal,
    BadInput("singular matrix"), before reading w."""
    for A in (mat2(1, 1, 1, 1), mat2(0, 0, 0, 0), mat2(F(1, 2), F(1, 3), F(3, 2), 1)):
        for action in (rho3, ad_w, coad_w):
            for w in ((1, 0, 0, 0), ("x", 1, 2, 3)):
                with pytest.raises(BadInput, match="^singular matrix$") as err:
                    action(A, w)
                assert err.type is BadInput


mat_st = st.tuples(rat_st, rat_st, rat_st, rat_st).filter(lambda e: e[0] * e[3] != e[1] * e[2])


@given(mat_st, st.booleans(), vec_st)
@settings(max_examples=60, deadline=None)
def test_rho3_matches_substitution_oracle(entries, negative, w):
    """All three W actions against the polynomial substitution, for rational
    A of either sign of det: rho3 directly, ad_w = det(A)^-1 rho3(A, w) and
    coad_w = det(A)^2 rho3(A^-1, w)."""
    a, b, c, d = entries
    if (a * d - b * c < 0) != negative:
        a, b, c, d = b, a, d, c  # swapping the columns flips the sign of det
    A = mat2(a, b, c, d)
    dt = A.det()
    assert (dt < 0) == negative
    assert rho3(A, w) == tuple(rho3_oracle(A, w))
    assert ad_w(A, w) == tuple(x / dt for x in rho3_oracle(A, w))
    assert coad_w(A, w) == tuple(dt * dt * x for x in rho3_oracle(A.inverse(), w))


def test_rho3_cocycle(rng):
    for _ in range(20):
        A, B = rand_mat2(rng), rand_mat2(rng)
        w = tuple(rand_rat(rng, 9) for _ in range(4))
        assert rho3(A * B, w) == rho3(A, rho3(B, w))


def test_symplectic_values(rng):
    a = tuple(rand_rat(rng, 9) for _ in range(4))
    assert symplectic(a, a) == 0
    assert symplectic((1, 0, 0, 0), (0, 0, 0, 1)) == 1
    b = tuple(rand_rat(rng, 9) for _ in range(4))
    assert symplectic(a, b) == -symplectic(b, a)


def test_pairing_adjointness(rng):
    for _ in range(20):
        A = rand_mat2(rng)
        w = [rand_rat(rng, 9) for _ in range(4)]
        x = [rand_rat(rng, 9) for _ in range(4)]
        d3 = A.det() ** 3
        assert symplectic(rho3(A, w), x) == symplectic(w, [d3 * t for t in rho3(A.inverse(), x)])
        assert symplectic(coad_w(A, w), x) == symplectic(w, ad_w(A, x))


def test_coad_right_action_and_scalars(rng):
    for _ in range(15):
        A, B = rand_mat2(rng), rand_mat2(rng)
        w = [rand_rat(rng, 9) for _ in range(4)]
        assert coad_w(A, coad_w(B, w)) == coad_w(B * A, w)
    c = F(7, 3)
    w = tuple(rand_rat(rng, 9) for _ in range(4))
    assert coad_w(mat2(c, 0, 0, c), w) == tuple(c * x for x in w)


# --- iota and the Weyl-word identity -----------------------------------------

def test_imi_conjugation(rng):
    io = iota()
    for _ in range(15):
        A = rand_mat2(rng)
        a, b, c, d = A.entries()
        dt = A.det()
        lhs = io * levi_m(A) * io.inverse()
        assert lhs == levi_m(mat2(a / dt, -b / dt, -c / dt, d / dt))


def test_ad_weyl_alpha_roundtrip(rng):
    """w_alpha^2 = m(-I) is central in M, so Ad(w_alpha) undoes itself there
    and levi_m_prime recovers m from m'."""
    for _ in range(10):
        A = rand_mat2(rng)
        assert ad_weyl_alpha(ad_weyl_alpha(levi_m(A))) == levi_m(A)
        assert levi_m_prime(levi_m_prime(A)) == A
    assert weyl(RootLabel("a")) * weyl(RootLabel("a")) == levi_m(mat2(-1, 0, 0, -1))
    # the GL2 shadow of the conjugation
    assert levi_m_prime(mat2(1, 2, 3, 4)) == mat2(4, -3, -2, 1)


word_st = st.lists(st.tuples(st.sampled_from(ALL_ROOTS), rat_st), min_size=1, max_size=4)


@given(A=mat_st, a=vec_st, z=rat_st, u=rat_st, word=word_st)
@settings(max_examples=40, deadline=None)
def test_ad_weyl_alpha_matches_products(A, a, z, u, word):
    """The signed-permutation conjugation equals w_alpha g w_alpha^-1 formed
    by 7x7 products, in its canonical grid, on m(A), n1(a, z), u(a, z),
    x_gamma(u) for every root and short words in root generators; and
    levi_m_prime reads m' off the same product."""
    A = mat2(*A)
    gens = [root_generator(gamma, x) for gamma, x in word]
    product = gens[0]
    for g in gens[1:]:
        product = product * g
    cases = [levi_m(A), heis_n1(*a, z), u_coord(*a, z), product]
    cases += [root_generator(gamma, u) for gamma in ALL_ROOTS]
    for g in cases:
        got, want = ad_weyl_alpha(g).matrix, ad_weyl_alpha_by_products(g).matrix
        assert (got.num, got.den) == (want.num, want.den)
    assert levi_m_prime(A) == levi_m_coords(ad_weyl_alpha_by_products(levi_m(A)))


# --- root datum certification -------------------------------------------------

def _pairing(delta: RootLabel, gamma_name: str) -> int:
    m, n = root_coords(delta)
    return 2 * m - 3 * n if gamma_name == "a" else -m + 2 * n


def test_root_datum_pairings():
    """h_gamma(t) x_delta(u) h_gamma(t)^-1 = x_delta(t^<delta, gamma^v> u)
    for the rank-2 root datum with alpha short and beta long."""
    t = F(5, 3)
    u = F(7, 2)
    for gname in ("a", "b"):
        h = torus(RootLabel(gname), t)
        for delta in ALL_ROOTS:
            lhs = h * root_generator(delta, u) * h.inverse()
            assert lhs == root_generator(delta, t ** _pairing(delta, gname) * u)


def test_lie_algebra_rank_14():
    """The 12 nilpotent generators plus the 2-dimensional Cartan span a
    14-dimensional subalgebra of the 49-dimensional matrix space."""
    from g2lift.group import nilpotent_matrix

    mats = [nilpotent_matrix(g) for g in ALL_ROOTS]
    cartan1 = Matrix7.from_entries({(0, 0): 1, (5, 5): -1, (2, 2): 1, (4, 4): -1})
    cartan2 = Matrix7.from_entries({(2, 2): -1, (4, 4): 1, (1, 1): 1, (6, 6): -1})
    mats += [cartan1, cartan2]
    vecs = [[m[i, j] for i in range(7) for j in range(7)] for m in mats]
    mat = [v[:] for v in vecs]
    r = 0
    for c in range(49):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    assert r == 14


def test_z_coord_is_center_slice():
    assert z_coord(2, 3) == u_coord(0, 0, 0, 2, 3)
    assert u_tilde1(1, 2, 3) == u_coord(1, 2, 3 + 2, 0, 0)


def test_group_element_dump():
    text = identity().dump()
    assert text.splitlines()[0].split() == ["1", "0", "0", "0", "0", "0", "0"]


# --- the closed-form generator grid and its certificate -------------------------

def _key(gamma):
    return (gamma.name, gamma.positive)


def test_root_generator_matches_table_sum():
    """The one-grid construction equals identity + sum of table terms, entry
    for entry (so also in its canonical num/den), at the edge values and at
    random p/q with |p|, q up to 10^6."""
    import random

    table = exp_power_table()
    r = random.Random(20261018)
    us = [F(0), F(1), F(-1), F(15)]
    us += [F(r.randint(-10**6, 10**6), r.randint(1, 10**6)) for _ in range(50)]
    for gamma in ALL_ROOTS:
        for u in us:
            got = root_generator(gamma, u).matrix
            want = exp_by_table_sum(table[_key(gamma)], u)
            assert (got.num, got.den) == (want.num, want.den), (gamma, u)


def test_sampled_certificate_holds_on_shipped_table():
    assert certify_by_sampling(exp_power_table()) == []


def _corrupted_copies():
    """(gamma, copy) pairs: the root matrices with the first nonzero entry
    of gamma's moved by 1."""
    import g2lift.group as group

    for gamma in ALL_ROOTS:
        entries = dict(group._NILPOTENT[_key(gamma)])
        entries[next(iter(entries))] += 1
        yield gamma, {**group._NILPOTENT, _key(gamma): entries}


def test_corrupted_table_is_refused(monkeypatch):
    """Each corrupted root matrix breaks X^T S + S X = 0, and the
    certificate refuses it at that root."""
    import g2lift.group as group

    copies = list(_corrupted_copies())
    assert len(copies) == 12
    for gamma, bad in copies:
        monkeypatch.setattr(group, "_NILPOTENT", bad)
        group._exp_table.cache_clear()
        x = group.nilpotent_matrix(gamma)
        assert not (x.transpose() * GRAM + GRAM * x).is_zero()
        with pytest.raises(AssertionError, match=f"generator table corrupt at {re.escape(str(gamma))}$"):
            group._exp_table()
        assert group._exp_table.cache_info().currsize == 0  # the refusal is not kept
        # the sampled certificate also sees every one of these copies
        key = _key(gamma)
        assert certify_by_sampling({key: exp_powers(x)}) == [key]
    monkeypatch.undo()
    g = root_generator(RootLabel("a"), 1)
    assert root_generator(RootLabel("a"), 3) == g * g * g


def test_root_outside_the_lie_algebra_is_refused(monkeypatch):
    """A wrong root matrix is refused by the Lie-algebra identity
    X^T S + S X = 0."""
    import g2lift.group as group

    key = ("a+b", True)
    bad = dict(group._NILPOTENT[key])
    bad[(0, 3)] += 1
    monkeypatch.setitem(group._NILPOTENT, key, bad)
    group._exp_table.cache_clear()
    with pytest.raises(AssertionError, match="generator table corrupt at a\\+b"):
        group._exp_table()


# --- generator words on the P side: x, w, h, n and n1 ---------------------------

def _p_side_inputs(n=200):
    """Seeded (root, u, t, n coordinates): zeros, both signs, small values
    and |p|, q up to 10^6; t nonzero; every root in turn."""
    import random

    r = random.Random(20261020)

    def coord():
        kind = r.randrange(5)
        if kind == 0:
            return F(0)
        if kind == 1:
            return F(r.randint(-9, 9), r.randint(1, 9))
        return F(r.randint(-10**6, 10**6), r.randint(1, 10**6))

    out = []
    while len(out) < n:
        t = coord()
        if t != 0:
            out.append((ALL_ROOTS[len(out) % 12], coord(), t, [coord() for _ in range(5)]))
    return out


def test_p_side_values_are_pinned():
    """One sha256 over (num, den) of x_gamma(u), w_gamma(t), w_gamma,
    h_gamma(t), n, n1 and the n1 coordinates read back, on seeded inputs;
    recorded from the product-of-generators construction, and w_gamma(t)
    read as h_gamma(t) w_gamma."""
    import hashlib

    h = hashlib.sha256()

    def feed(g):
        h.update(repr((g.matrix.num, g.matrix.den)).encode())

    for gamma in ALL_ROOTS:
        feed(weyl(gamma))
    for gamma, u, t, v in _p_side_inputs():
        feed(root_generator(gamma, u))
        feed(torus(gamma, t) * weyl(gamma))
        feed(torus(gamma, t))
        feed(heis_n(*v))
        feed(heis_n1(*v))
        coords = n1_coords(heis_n(*v))
        h.update(repr([(c.numerator, c.denominator) for c in coords]).encode())
    assert h.hexdigest() == "6d6f5759cc651fae26453227dbdf7c718f6c4d02bcaae5e4e06d03bc20e44f5e"


def _canonical(g):
    return (g.num, g.den)


def test_heis_n_table_matches_generator_products():
    """The expanded n word equals the product of root generators and the
    displayed matrix in canonical (num, den), on the pinned inputs (|p|, q up
    to 10^6) and the edge values."""
    cases = [v for _, _, _, v in _p_side_inputs()]
    cases += [[F(0)] * 5, [F(1)] * 5, [F(-1), F(0), F(1), F(0), F(-1)]]
    for v in cases:
        got = _canonical(heis_n(*v).matrix)
        assert got == _canonical(heis_n_by_products(*v).matrix), v
        assert got == _canonical(n_closed(*v)), v


def test_weyl_t_table_matches_generator_products():
    """w_gamma(t) = h_gamma(t) w_gamma of every root, from the diagonal and
    the signs of ``_weyl_rows``, equals x_g(t) x_{-g}(-1/t) x_g(t) as a
    product of root generators, in canonical (num, den)."""
    ts = [F(1), F(-1), F(2), F(-1, 2), F(10**6), F(-1, 10**6)]
    ts += [t for _, _, t, _ in _p_side_inputs(24)]
    for gamma in ALL_ROOTS:
        for t in ts:
            got, want = (torus(gamma, t) * weyl(gamma)).matrix, weyl_t_by_products(gamma, t).matrix
            assert _canonical(got) == _canonical(want), (gamma, t)


# --- the second parabolic Q = L U ----------------------------------------------

def _q_side_inputs(n=200):
    """Seeded (u coordinates, Levi parameter) pairs: zero coordinates, both
    signs, small values and |p|, q up to 10^6; A invertible."""
    import random

    r = random.Random(20261019)

    def coord():
        kind = r.randrange(5)
        if kind == 0:
            return F(0)
        if kind == 1:
            return F(r.randint(-9, 9), r.randint(1, 9))
        return F(r.randint(-10**6, 10**6), r.randint(1, 10**6))

    out = []
    while len(out) < n:
        v = [coord() for _ in range(5)]
        A = mat2(*(coord() for _ in range(4)))
        if A.det() != 0:
            out.append((v, A))
    return out


def test_q_side_values_are_pinned():
    """One sha256 over (num, den) of u, z, u~1, l and iota on seeded inputs,
    recorded from the product-of-generators construction."""
    import hashlib

    h = hashlib.sha256()

    def feed(g):
        h.update(repr((g.matrix.num, g.matrix.den)).encode())

    for v, A in _q_side_inputs():
        feed(u_coord(*v))
        feed(z_coord(v[3], v[4]))
        feed(u_tilde1(*v[:3]))
        feed(levi_l(A))
    feed(iota())
    assert h.hexdigest() == "557d4a4c705043fc1c8fca3ae23e3575113b0cc4da023b25e259ec7540941a9f"


def test_u_coord_table_matches_generator_products():
    """The expanded table equals the product of root generators in its
    canonical (num, den), on the pinned inputs and the edge values."""
    cases = [v for v, _ in _q_side_inputs()]
    cases += [[F(0)] * 5, [F(1)] * 5, [F(-1), F(0), F(1), F(0), F(-1)]]
    for v in cases:
        got, want = u_coord(*v).matrix, u_coord_by_products(*v).matrix
        assert (got.num, got.den) == (want.num, want.den), v


big_rat_st = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
mat2_st = st.tuples(big_rat_st, big_rat_st, big_rat_st, big_rat_st).map(lambda t: mat2(*t)).filter(
    lambda A: A.det() != 0
)


@given(A=mat2_st)
@settings(max_examples=60, deadline=None)
def test_levi_l_preserves_the_form(A):
    assert preserves_form(levi_l(A).matrix)


@given(A=mat2_st, B=mat2_st)
@settings(max_examples=60, deadline=None)
def test_levi_l_is_a_homomorphism(A, B):
    assert levi_l(A) * levi_l(B) == levi_l(A * B)
    assert levi_l(A).inverse() == levi_l(A.inverse())


def test_levi_l_negative_determinant_and_large_denominators():
    for A in (mat2(0, 1, 1, 0), mat2(F(-999999, 1000000), F(3, 7), F(5, 999983), F(1, 999999))):
        assert A.det() < 0
        assert preserves_form(levi_l(A).matrix)
        assert levi_l(A) * levi_l(A.inverse()) == identity()


# --- the Weyl side and l(A) as closed forms ------------------------------------

_EDGE_TS = [F(1), F(-1), F(10**6), F(-1, 10**6)]


def test_weyl_t_and_torus_match_their_oracles():
    """w_gamma(t) = h_gamma(t) w_gamma as a signed monomial matrix and
    h_gamma(t) as a diagonal equal the generator products (and
    w_gamma(t) w_gamma(1)^-1) for all 12 roots, in canonical (num, den), at
    the edge values and seeded t."""
    ts = _EDGE_TS + [t for _, _, t, _ in _p_side_inputs(36)]
    for gamma in ALL_ROOTS:
        assert _canonical(weyl(gamma).matrix) == _canonical(weyl_t_by_products(gamma, 1).matrix)
        for t in ts:
            h = torus(gamma, t)
            w, h = (h * weyl(gamma)).matrix, h.matrix
            assert _canonical(w) == _canonical(weyl_t_by_products(gamma, t).matrix), (gamma, t)
            assert _canonical(h) == _canonical(torus_by_products(gamma, t).matrix), (gamma, t)
            assert sum(1 for row in w.num for x in row if x) == 7
            assert all(h.num[i][j] == 0 for i in range(7) for j in range(7) if i != j)


def test_levi_l_grid_matches_validated_rows():
    """The certified l(A) grid equals the Fraction rows that pass
    preserves_form, in canonical (num, den), on the pinned Q-side Levi
    parameters and on edge values: negative determinants, a swap, a scalar,
    and |p|, q up to 10^6."""
    cases = [A for _, A in _q_side_inputs()]
    cases += [
        mat2(1, 0, 0, 1), mat2(0, 1, 1, 0), mat2(0, -1, 1, 0), mat2(-1, 0, 0, -1),
        mat2(F(10**6), 0, 0, F(-1, 10**6)), mat2(F(1, 3), F(1, 3), F(1, 3), F(2, 3)),
        mat2(F(-999999, 1000000), F(3, 7), F(5, 999983), F(1, 999999)),
    ]
    for A in cases:
        assert _canonical(levi_l(A).matrix) == _canonical(levi_l_by_rows(A).matrix), A


def test_levi_l_trusts_its_certified_grid(monkeypatch):
    """Once ``_certify_l_grid`` has run, levi_l makes no per-call form
    check: with preserves_form made to raise, it still returns the canonical
    (num, den) of the validated Fraction rows."""
    import g2lift.group as group

    group._certify_l_grid()
    cases = [A for _, A in _q_side_inputs()]
    cases += [mat2(1, 0, 0, 1), mat2(0, 1, 1, 0), mat2(F(-999999, 1000000), F(3, 7), F(5, 999983), F(1, 999999))]
    want = [levi_l_by_rows(A).matrix for A in cases]

    def refuse(m):
        raise AssertionError("per-call form check")

    monkeypatch.setattr(group, "preserves_form", refuse)
    for A, w in zip(cases, want):
        got = levi_l(A).matrix
        assert (got.num, got.den) == (w.num, w.den), A


def test_corrupted_l_grid_is_refused(monkeypatch):
    """The l(A) grid with any one of its 49 entries moved by 1 breaks the
    polynomial identities that the once-per-process check proves, and
    levi_l refuses to run."""
    import g2lift.group as group

    group._certify_l_grid()
    grid = group._l_grid
    group._certify_l_grid.cache_clear()
    for i in range(7):
        for j in range(7):
            def moved(*args, i=i, j=j):
                out = grid(*args)
                out[i][j] = out[i][j] + 1
                return out

            monkeypatch.setattr(group, "_l_grid", moved)
            with pytest.raises(AssertionError, match="l grid corrupt"):
                levi_l(mat2(2, 3, 5, 7))
            assert group._certify_l_grid.cache_info().currsize == 0
    monkeypatch.setattr(group, "_l_grid", grid)
    group._certify_l_grid()
    assert group._certify_l_grid.cache_info().currsize == 1


def test_corrupted_weyl_word_is_refused(monkeypatch):
    """A Weyl product (gamma, -gamma, gamma) with one coefficient of any row
    moved by 1 is no longer a signed monomial matrix, and its rows are
    refused."""
    import g2lift.group as group

    grid_of = group._word_grid
    for gamma in ALL_ROOTS:
        for i in range(7):
            def moved(word, args, i=i):
                out = grid_of(word, args)
                j, entry = next((j, entry) for j, entry in enumerate(out[i]) if entry)
                out[i][j] = entry + Poly(1, {next(iter(entry)): 1})
                return out

            monkeypatch.setattr(group, "_word_grid", moved)
            group._weyl_rows.cache_clear()
            with pytest.raises(AssertionError, match=f"not a signed monomial matrix at {re.escape(str(gamma))}$"):
                group._weyl_rows(gamma)
        monkeypatch.undo()
    group._weyl_rows.cache_clear()
    assert torus(RootLabel("a"), 2) * weyl(RootLabel("a")) == weyl_t_by_products(RootLabel("a"), 2)


# certificate -> (one corrupted input, a call that relies on it, its refusal)
_MUTATIONS = {
    "generator table": (
        "g._NILPOTENT[('a+b', True)][(0, 3)] += 1",
        "g.root_generator(g.RootLabel('a+b'), 1)",
        "generator table corrupt at a+b",
    ),
    "weyl product": (
        "grid_of = g._word_grid\n"
        "def moved(word, args):\n"
        "    out = grid_of(word, args)\n"
        "    out[0][0] = out[0][0] + 1\n"
        "    return out\n"
        "g._word_grid = moved",
        "g.torus(g.RootLabel('b'), 2)",
        "Weyl word is not a signed monomial matrix at b",
    ),
    # GRAM with (3, 3) = -3 is still a symmetric signed permutation, but the
    # root matrices no longer lie in the Lie algebra of its form
    "gram entry": (
        "g.GRAM = g.Matrix7.from_entries({**{(i, j): 1 for i, j in ((0, 5), (5, 0), (1, 6), (6, 1), (2, 4), (4, 2))},"
        " (3, 3): -3})",
        "g.root_generator(g.RootLabel('a'), 1)",
        "generator table corrupt at a",
    ),
    "l grid": (
        "grid_of = g._l_grid\n"
        "def moved(*args):\n"
        "    out = grid_of(*args)\n"
        "    out[0][4] = out[0][4] + 1\n"
        "    return out\n"
        "g._l_grid = moved",
        "g.levi_l(mat2(2, 3, 5, 7))",
        "l grid corrupt",
    ),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
@pytest.mark.parametrize("certificate", list(_MUTATIONS))
def test_certificate_refuses_a_corrupted_input(certificate, flags):
    """In a fresh process, plain and under `python -O` (which strips assert
    statements), one corrupted input of each once-per-process certificate
    is refused with the certificate's own message before any result is
    built on it."""
    import subprocess
    import sys
    from pathlib import Path

    import g2lift

    corrupt, call, refusal = _MUTATIONS[certificate]
    code = (
        "import g2lift.group as g\n"
        "from g2lift.exact import mat2\n"
        f"{corrupt}\n"
        "try:\n"
        f"    {call}\n"
        "    print('ran on a corrupted input')\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
        "print(__debug__)\n"
    )
    src = str(Path(g2lift.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.splitlines() == [refusal, str(not flags)]


@given(
    word=st.lists(st.sampled_from(ALL_ROOTS), min_size=1, max_size=4),
    args=st.lists(rat_st, min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_word_table_matches_generator_products(word, args):
    """The expanded table of a random word of 1-4 letters over all 12 roots
    equals the product of its root generators."""
    import g2lift.group as group

    args = args[:len(word)]
    got = group._word_eval(tuple((gamma.name, gamma.positive) for gamma in word), args)
    assert _canonical(got.matrix) == _canonical(word_by_products(word, args).matrix)


# --- the inverse and the form check without GRAM products ----------------------

_nonzero_st = rat_st.filter(bool)
_root_st = st.sampled_from(ALL_ROOTS)
_levi_st = st.tuples(rat_st, rat_st, rat_st, rat_st).map(lambda t: mat2(*t)).filter(lambda A: A.det() != 0)
# one strategy per constructor; m(A), n(a, t), u(a, z) and the short-root
# generators have entries in row and column 3, where GRAM has its -2
_letter_st = st.one_of(
    st.builds(root_generator, _root_st, rat_st),
    st.builds(lambda gamma, t: torus(gamma, t) * weyl(gamma), _root_st, _nonzero_st),
    st.builds(weyl, _root_st),
    st.builds(torus, _root_st, _nonzero_st),
    st.builds(heis_n, rat_st, rat_st, rat_st, rat_st, rat_st),
    st.builds(heis_n1, rat_st, rat_st, rat_st, rat_st, rat_st),
    st.builds(u_coord, rat_st, rat_st, rat_st, rat_st, rat_st),
    st.builds(z_coord, rat_st, rat_st),
    st.builds(levi_m, _levi_st),
    st.builds(levi_l, _levi_st),
    st.builds(iota),
)


@given(letters=st.lists(_letter_st, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_inverse_and_form_check_match_the_gram_products(letters):
    """On random words over every constructor, GroupElement.inverse equals
    GRAM^-1 g^T GRAM in canonical (num, den), and preserves_form agrees with
    the two-product check.  Each word is then checked again with each of its
    49 entries moved by 1 (rows and columns through e3 included): the adjoint
    still equals the GRAM product, and both checks refuse the matrix."""
    g = letters[0]
    for h in letters[1:]:
        g = g * h
    m = g.matrix
    assert _canonical(g.inverse().matrix) == _canonical(inverse_by_gram(m))
    assert g * g.inverse() == identity()
    assert preserves_form(m) and preserves_form_by_products(m)
    for i in range(7):
        for j in range(7):
            num = [list(row) for row in m.num]
            num[i][j] += m.den
            moved = Matrix7._raw(num, m.den)
            assert _canonical(form_adjoint(moved)) == _canonical(inverse_by_gram(moved)), (i, j)
            assert not preserves_form(moved), (i, j)
            assert not preserves_form_by_products(moved), (i, j)
