import hashlib
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2lift.arith import InputTooLarge
from g2lift.modforms import (
    NonRationalEigenspace,
    PrecisionError,
    QExpansion,
    _convolve_int,
    _eisenstein,
    delta,
    eigenform,
    eisenstein,
    mu_f,
    satake,
)

from conftest import forget
from oracles import delta_by_eisenstein, hecke_Tp, satake_holds, series_combination, sigma


def test_eisenstein_against_divisor_sums():
    e4 = eisenstein(4, 60)
    e6 = eisenstein(6, 60)
    assert e4.coeff(0) == 1 and e6.coeff(0) == 1
    for n in range(1, 60):
        assert e4.coeff(n) == 240 * sigma(3, n)
        assert e6.coeff(n) == -504 * sigma(5, n)


# -2w / B_w, the constant of E_w, from tabled Bernoulli numbers, not the recursion
EISENSTEIN_CONSTANTS = {
    4: 240, 6: -504, 8: 480, 10: -264, 12: F(65520, 691), 14: -24, 16: F(16320, 3617), 18: F(-28728, 43867),
}


@pytest.mark.parametrize("level", [1, 4])
def test_one_eisenstein_builder_at_both_levels(level):
    """E_w(N z) for every weight a bracket reads, at N = 1 (E4, E6) and 4
    (the brackets): 1 + C_w sigma_(w-1)(n) at q^(N n), 0 elsewhere; at
    N = 1 and w = 4, 6 it is the stored E4 and E6."""
    prec = 61
    for w, c in EISENSTEIN_CONSTANTS.items():
        e = _eisenstein(w, level, prec)
        assert (e.weight, e.level, e.precision) == (w, level, prec)
        for n in range(prec):
            want = 1 if n == 0 else c * sigma(w - 1, n // level) if n % level == 0 else 0
            assert e.coeff(n) == want, (w, n)
        if level == 1 and w in (4, 6):
            assert e == eisenstein(w, prec)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(8, 10)


def test_delta_normalization_and_values():
    d = delta(60)
    assert d.coeff(0) == 0 and d.coeff(1) == 1
    assert d.coeff(2) == -24 and d.coeff(3) == 252
    assert d.coeff(6) == d.coeff(2) * d.coeff(3)


def test_delta_by_jacobi_matches_eisenstein_oracle():
    assert delta(2500) == delta_by_eisenstein(2500)


def test_delta_precision_guard():
    for prec in (-1, 0, 1):
        with pytest.raises(PrecisionError):
            delta(prec)
    assert delta(2).num == (0, 1)


def test_e4_cubed_minus_e6_squared_divisible():
    e4, e6 = eisenstein(4, 40), eisenstein(6, 40)
    cube, square = e4 * e4 * e4, e6 * e6
    num, den = series_combination([(1, cube.num, cube.den), (-1, square.num, square.den)])
    assert den == 1 and all(c % 1728 == 0 for c in num)


def test_hecke_eigenvalues_delta():
    d = delta(160)
    assert all(hecke_Tp(d, 2).coeff(n) == -24 * d.coeff(n) for n in range(1, 50))
    assert all(hecke_Tp(d, 3).coeff(n) == 252 * d.coeff(n) for n in range(1, 50))


def test_hecke_zero_and_precision_guard():
    z = QExpansion(F(12), 1, (0,) * 40)
    tz = hecke_Tp(z, 3)
    assert all(tz.coeff(n) == 0 for n in range(tz.precision))
    with pytest.raises(PrecisionError):
        hecke_Tp(QExpansion(F(12), 1, (0, 1, 0)), 5)


def test_hecke_commutativity():
    d = delta(400)
    for p, q in ((2, 3), (3, 5), (2, 7)):
        lhs = hecke_Tp(hecke_Tp(d, p), q)
        rhs = hecke_Tp(hecke_Tp(d, q), p)
        n = min(lhs.precision, rhs.precision)
        assert all(lhs.coeff(m) == rhs.coeff(m) for m in range(n))


def test_eigenform_certification():
    for two_k in (12, 16, 18, 20, 22, 26):
        f = eigenform(two_k, 240)
        assert f.coeff(0) == 0 and f.coeff(1) == 1
        for p in (2, 3, 5, 7, 11, 13):
            tp = hecke_Tp(f, p)
            ap = f.coeff(p)
            assert all(tp.coeff(n) == ap * f.coeff(n) for n in range(tp.precision))


def test_eigenform_twelve_is_delta():
    assert eigenform(12, 50) == delta(50)


def test_eigenform_unsupported_weights():
    with pytest.raises(NonRationalEigenspace):
        eigenform(14, 50)
    with pytest.raises(NonRationalEigenspace):
        eigenform(24, 50)


def test_satake_trivial_trace():
    # a_p = 0 forces alpha = i
    f = QExpansion(F(12), 1, tuple([0, 1] + [0] * 30))
    assert abs(satake(f, 3) - 1j) < 1e-15


def test_satake_delta_p2():
    d = delta(120)
    alpha = satake(d, 2)
    assert abs(alpha.real - (-24 / 2**5.5) / 2) < 1e-14
    assert satake_holds(d, 2, alpha)


def test_satake_refuses_a_p_past_deligne_bound():
    """|a_p| <= 2 p^((2k-1)/2) is tested exactly: at p = 2 and weight 12 the
    bound is a_p^2 <= 4 * 2^11 = 8192, so a_p = 90 and 181/2 pass
    (181^2 = 32761 <= 8192 * 2^2) and 91, -91 and 363/4 do not."""
    num = list(delta(12).num)
    for a_p, den in ((90, 1), (181, 2)):
        num[2] = a_p
        assert abs(abs(satake(QExpansion(F(12), 1, tuple(num), den), 2)) - 1) < 1e-12
    for a_p, den in ((91, 1), (-91, 1), (363, 4)):
        num[2] = a_p
        with pytest.raises(ValueError, match="Deligne bound violated"):
            satake(QExpansion(F(12), 1, tuple(num), den), 2)


def test_satake_records_up_to_97():
    d = delta(120)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        assert satake_holds(d, p, satake(d, p))


def test_mu_f_unitary(rng):
    d = delta(1100)
    assert mu_f(d, 1) == 1
    assert mu_f(d, -1) == 1
    for _ in range(25):
        r = F(rng.randint(1, 900), rng.randint(1, 900))
        assert abs(abs(mu_f(d, r)) - 1) < 1e-12
    with pytest.raises(ValueError):
        mu_f(d, 0)


def test_mu_f_multiplicativity(rng):
    d = delta(1100)
    for _ in range(10):
        r = F(rng.randint(1, 500), rng.randint(1, 500))
        s = F(rng.randint(1, 500), rng.randint(1, 500))
        assert abs(mu_f(d, r * s) - mu_f(d, r) * mu_f(d, s)) < 1e-12


def test_qexp_arithmetic_guards():
    """A series offers a product and no sum: sums are test oracles."""
    a = QExpansion(F(4), 1, (1, 2, 3))
    b = QExpansion(F(6), 1, (1, 0, 0))
    with pytest.raises(TypeError):
        a + b
    c = a * b
    assert c.weight == 10 and c.precision == 3
    with pytest.raises(PrecisionError):
        a.coeff(5)


def test_qexp_product_refuses_a_level_mismatch():
    with pytest.raises(ValueError, match="level mismatch in multiplication"):
        QExpansion(F(4), 1, (1, 2, 3)) * QExpansion(F(1, 2), 4, (1, 2, 0))


def test_qexp_denominator_sign():
    """A zero denominator is refused, as Fraction(p, 0) is; a negative one
    moves its sign onto the coefficients."""
    with pytest.raises(ZeroDivisionError):
        QExpansion(12, 1, [2, 4], 0)
    with pytest.raises(ZeroDivisionError):
        QExpansion._raw(12, 1, [2, 4], 0)
    g = QExpansion(12, 1, [1, 2], -3)
    assert (g.num, g.den) == ((-1, -2), 3)
    assert g.coeff(1) == F(-2, 3)


def test_dump_load_roundtrip(tmp_path):
    f = eigenform(16, 20)
    path = tmp_path / "cache.mf"
    path.write_text(f.dump())
    g = QExpansion.load(path.read_text())
    assert g == f
    # half-integral header literal
    from g2lift.shimura import theta_half

    th = theta_half(10)
    assert th.dump().splitlines()[0] == "1/2 4 10"
    assert QExpansion.load(th.dump()) == th


def test_packed_convolution_matches_naive(rng):
    """The packed series product agrees with schoolbook convolution on
    signed rational inputs: unequal lengths, empty, all-zero and
    all-negative lists, trailing zeros, entries up to 10^40, n past the
    product's length, and lists of a few hundred entries whose groups
    reach the bound exactly, so that the digit bias, the truncation and
    every carry pattern are exercised."""

    def naive(a, b, n=None):
        n = min(len(a), len(b)) if n is None else n
        return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]

    def check(a, b):
        c = QExpansion(F(4), 1, a) * QExpansion(F(6), 1, b)
        assert [c.coeff(k) for k in range(c.precision)] == naive(a, b)

    big = 10**40
    check([], [])
    check([], [1, 2, 3])
    check([0] * 9, [5, -7, 3])
    check([-1] * 12, [-3] * 7)
    check([-big] * 10, [-big] * 10)
    check([big, -big, big], [-big, big, -big, big])
    check([1, 2, 3, 0, 0, 0], [4, 5, 0, 0, 0, 0, 0])
    check([big - 1, 0, 0], [big - 1, 0, 0])
    check([F(-1, 3)] * 5, [F(2, 7), F(-5, 11)])
    # all entries at +-max: one product digit reaches the bound exactly
    for m in (1, 255, 2**32 - 1, big):
        for la in range(1, 6):
            check([m] * la, [m] * 5)
            check([-m] * la, [m] * 5)
    # a few hundred entries at +-m: group 299 is +-bound = 300 m^2 exactly,
    # and m = 1 over 500 entries makes 2 * bound = 1000 a power of ten
    for m in (1, 10**6 - 1, 2**64, big):
        alt = [(-1) ** i * m for i in range(300)]
        check([m] * 300, [m] * 500)
        check([-m] * 300, [m] * 500)
        check(alt, alt)
        assert _convolve_int(alt, alt, 300)[299] == -300 * m * m
    check([1] * 500, [1] * 500)
    # sparse factors: the bound counts nonzero terms, and a coefficient that
    # meets all of the sparser factor's terms reaches +-bound exactly
    for m in (1, 9, 10**6 - 1, 2**64, big):
        for support in ((0,), (0, 3), (1, 4, 9, 16, 25), tuple(j * j for j in range(12))):
            sparse = [0] * (support[-1] + 1)
            for i in support:
                sparse[i] = m
            for lb in (support[-1] + 1, 3 * support[-1] + 7):
                check(sparse, [-m] * lb)
                check([-m] * lb, sparse)
                check(sparse + [0] * 40, [m] * lb)
                n = support[-1] + 1
                assert _convolve_int(sparse, [-m] * lb, n)[-1] == -len(support) * m * m
                assert _convolve_int([m] * lb, sparse, n)[-1] == len(support) * m * m
    # n past len(a) + len(b) - 1: the groups past the product read 0
    for a, b in (([3, -1], [2, 5, -7]), ([big], [-big]), ([-1] * 4, [1] * 3), ([big] * 200, [-big] * 300)):
        for n in (len(a) + len(b) - 1, len(a) + len(b), 3 * (len(a) + len(b))):
            assert _convolve_int(a, b, n) == naive(a, b, n)
            assert _convolve_int(a, a, n) == naive(a, a, n)
    # 12500 groups of 85 digits: factors past the 10^6 digits that the
    # default decimal context allows
    long = [big] * 12500
    assert _convolve_int(long, long, 12500) == [(k + 1) * big * big for k in range(12500)]
    for bound in (1, 10**6, 2**64, big):
        for _ in range(12):
            la, lb = rng.randint(1, 30), rng.randint(1, 30)
            a = [F(rng.randint(-bound, bound), rng.randint(1, 97)) for _ in range(la)]
            b = [F(rng.randint(-bound, bound), rng.randint(1, 97)) for _ in range(lb)]
            if rng.random() < 0.3:
                a = [-abs(x) for x in a]
            if rng.random() < 0.3:
                cut = rng.randint(0, lb - 1)
                b[cut:] = [F(0)] * (lb - cut)
            check(a, b)


def test_too_wide_groups_are_refused_or_answered():
    """Groups wider than the int/str conversion limit are refused with a typed
    error; with the limit lifted the same product answers."""
    a = [10**2200, 3]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # the default
        with pytest.raises(InputTooLarge):
            _convolve_int(a, a, 2)
        with pytest.raises(InputTooLarge):
            _convolve_int(a, list(a), 2)
        sys.set_int_max_str_digits(0)
        assert _convolve_int(a, a, 2) == _convolve_int(a, list(a), 2) == [10**4400, 6 * 10**2200]
    finally:
        sys.set_int_max_str_digits(old)


@st.composite
def _signed_series(draw):
    """Series over the coefficient classes the naive-product test covers:
    empty, all-zero, all-negative, all at +-max, trailing zeros, rational
    entries, and numerators up to 10^40."""
    m = draw(st.sampled_from((1, 255, 2**32 - 1, 10**6, 2**64, 10**40)))
    xs = draw(st.lists(st.builds(F, st.integers(-m, m), st.integers(1, 97)), max_size=30))
    kind = draw(st.sampled_from(("mixed", "negative", "max", "zero", "trailing")))
    if kind == "negative":
        xs = [-abs(x) for x in xs]
    elif kind == "max":
        xs = [F(m if x >= 0 else -m) for x in xs]
    elif kind == "zero":
        xs = [F(0)] * len(xs)
    elif kind == "trailing":
        cut = draw(st.integers(0, len(xs)))
        xs[cut:] = [F(0)] * (len(xs) - cut)
    return QExpansion(F(3, 2), 1, xs)


@given(_signed_series())
@settings(max_examples=300, deadline=None)
def test_square_matches_product_of_distinct_copies(x):
    """x * x packs once and squares; a copy that is a distinct object takes
    the general two-factor path, which the naive test pins."""
    sq = x * x
    gen = x * QExpansion(x.weight, x.level, list(x.num), x.den)
    assert (sq.num, sq.den, sq.weight) == (gen.num, gen.den, gen.weight)


def _assert_canonical(got, want_coeffs):
    """got equals what the checking constructor builds from want_coeffs and
    from got's own coeff(n) reads, with den > 0 and gcd 1."""
    want = QExpansion(got.weight, got.level, want_coeffs)
    again = QExpansion(got.weight, got.level, [got.coeff(n) for n in range(got.precision)])
    assert (got.num, got.den) == (want.num, want.den) == (again.num, again.den)
    assert got.den > 0 and gcd(got.den, *got.num) == 1


@given(_signed_series(), _signed_series())
@settings(max_examples=300, deadline=None)
def test_trusted_results_match_the_checking_constructor(a, b):
    """A product skips the element type check; it equals the series the
    checking constructor builds from coeff(n) reads, with den > 0 and gcd 1
    (a truncated product can share a factor with den)."""
    n = min(a.precision, b.precision)
    xa, xb = [a.coeff(i) for i in range(a.precision)], [b.coeff(i) for i in range(b.precision)]
    _assert_canonical(a * b, [sum(xa[i] * xb[k - i] for i in range(k + 1)) for k in range(n)])


def _digest(series):
    h = hashlib.sha256()
    for n in range(series.precision):
        c = series.coeff(n)
        h.update(f"{c.numerator}/{c.denominator}\n".encode())
    return h.hexdigest()


PINNED_NAMES = ("delta", ("eigen", 16), ("plus_basis", 6), ("plus_basis", 8))


def test_series_digests_pinned():
    """sha256 of every exact coefficient at N = 600, read through coeff(n);
    each pinned name is dropped from the series store first, so the pins
    read builds, not truncations of longer series held by earlier tests."""
    from g2lift.shimura import plus_cusp_basis

    forget(*PINNED_NAMES)
    assert _digest(delta(600)) == "d02fc42b9e4e30c313043c83f48f073e604aafa4e54513d98618d686b8bea8fe"
    assert _digest(eigenform(16, 600)) == "cb6a0933cf747d774e3df2b8ea4dcced5fadb79a2802174817e995f7e791dec8"
    assert _digest(plus_cusp_basis(6, 600)[0]) == "c3ee81158b550d3477c8eefd36aa20c7ecef6696b8f7f37429fb836219878a82"
    assert _digest(plus_cusp_basis(8, 600)[0]) == "64533232bfc2c3023d0d7424568e5e0b7cbf25d1e607ebcb627dcea03fed56f0"


def test_series_digests_pinned_at_5000():
    """The N = 600 pins pack factors of at most 18,000 digits; these reach
    195,000 (recorded with CPython's int product)."""
    from g2lift.shimura import plus_cusp_basis

    forget(*PINNED_NAMES)
    assert _digest(delta(5000)) == "5809daa2edc7a79ecd914ddbe4c6f0eb59b7389f9e01032814a0d161e7503aa4"
    assert _digest(eigenform(16, 5000)) == "21528d26bf347e372d28487b8cfde556bbcac72a2bca6abe545aef8eeffd5dca"
    assert _digest(plus_cusp_basis(6, 5000)[0]) == "9c605d20bea7e2d07b556a3d2318be2abf883e8b06c5ceba129440aa41ae4b7e"
    assert _digest(plus_cusp_basis(8, 5000)[0]) == "d974063bf1ec2b8e1a131d4010d3bae8e3531dd03aa350a1cb3c51dd816b61aa"


def test_series_digests_pinned_off_multiples_of_four():
    """Precisions 1, 2 and 3 mod 4 give the residue classes 0 and 1 mod 4
    products of different lengths (recorded with whole-series bracket products)."""
    from g2lift.shimura import plus_cusp_basis

    pins = {
        (6, 5001): ["1e6a93c00cfdca61ba594b657f29b61f2f5ab883c0859af04ddf4a4cf906f175"],
        (6, 5002): ["71042729b7a51a1f81ed2d7372ed4e79ba83459accd82fa9b70bb82f113722f6"],
        (6, 5003): ["43e1c198e90d7e307b55f84403782379916b4c57bebb216fe1ec56b68e2cc34e"],
        (8, 5001): ["1c81b8c5d105ad4fb55cc45705176f7db4cb8a4ffd96d9789cd7c312cdf13299"],
        (8, 5002): ["d40d773cae02268f299387d46b47e37b787af4508cbf386bc716e506fc75c627"],
        (8, 5003): ["c71cf7884e1c13e4ad924515881cf5bd3574833fd6662ab5628262981ad37b15"],
        (12, 601): [
            "9cedc50e42963bbd820d522a718813a650672a97208caf39f2fb500855c2284a",
            "51dff493f7a9dbf444c7684d75e4b2f865571307df66cfb9a0914a1c4f2b572f",
        ],
        (12, 602): [
            "0fedc4f771327ed54d194b3c08b77c3a3e441a944211d15c385c2a0df900ba18",
            "492dd0b574e35e8de094458b02e4cd0cb0790a3bc4f65e699fcc7d445caf8189",
        ],
        (12, 603): [
            "d97f75866a3f90351dc4e2b7bf887a61bfccdcbe9677030a7762428cba7f870c",
            "b6a769af7f9075c6b03640beff77085faf4e7f2b8eec64de958f76e40ad7e498",
        ],
    }
    for (k, prec), want in pins.items():
        forget(("plus_basis", k))
        assert [_digest(g) for g in plus_cusp_basis(k, prec)] == want, (k, prec)


def test_plus_basis_digests_pinned():
    """sha256 of every vector of the two- and three-dimensional plus bases."""
    from g2lift.shimura import plus_cusp_basis

    forget(("plus_basis", 12), ("plus_basis", 18))
    assert [_digest(g) for g in plus_cusp_basis(12, 400)] == [
        "735d7b220d4f348d07ac37080ba38b198dc85f4797fa795ed528cd0fd9255fb6",
        "024390329bac629ecc686e8130d5cd6ef3061bc943b6006ac12a222d97c8fc41",
    ]
    assert [_digest(g) for g in plus_cusp_basis(18, 500)] == [
        "237532d7c5eef058cf14ce064d6ce339589f2f30d2f02fbfb67ee0d99c813957",
        "463718edb6a1b6363be9e2e73556bfc9d780aa925d4505d7429122562ed20536",
        "9ff70323e281ea18be281a8199b6864e66f71fb69a66a8c4475ed2b3c7db9e17",
    ]


def test_store_serves_shorter_requests_without_products(monkeypatch):
    """The store holds one series per name, the longest built: after builds
    at 5000, every request at 600 is a truncation that makes no product and
    equals a cold build at 600, and the precision floors still refuse."""
    from g2lift import modforms, shimura

    def requests(prec):
        return [
            delta(prec),
            eigenform(12, prec),
            eigenform(16, prec),
            eisenstein(4, prec),
            eisenstein(6, prec),
            shimura.theta_half(prec),
            shimura.weight2_F(prec),
            *shimura.plus_cusp_basis(6, prec),
            *shimura.plus_cusp_basis(8, prec),
        ]

    monkeypatch.setattr(modforms, "_series_cache", {})
    cold = [(x.num, x.den) for x in requests(600)]
    monkeypatch.setattr(modforms, "_series_cache", {})
    requests(5000)

    def no_product(*args):
        raise AssertionError("a held series was rebuilt")

    monkeypatch.setattr(modforms, "_convolve_int", no_product)
    monkeypatch.setattr(shimura, "_convolve_int", no_product)
    assert [(x.num, x.den) for x in requests(600)] == cold
    held = modforms._series_cache
    assert len(held) == 9
    assert all(x.precision == 5000 for v in held.values() for x in (v if isinstance(v, list) else [v]))
    for refused in (lambda: eigenform(12, 1), lambda: delta(0), lambda: shimura.plus_cusp_basis(6, 47)):
        with pytest.raises(PrecisionError):
            refused()


def test_tau_congruence_mod_691():
    """tau(n) == sigma_11(n) mod 691, an independent corroboration of the
    discriminant expansion."""
    d = delta(200)
    for n in range(1, 200):
        assert (d.coeff(n) - sigma(11, n)) % 691 == 0


def test_eigenform_classical_second_coefficients():
    # frozen classical values of a_2 for the six one-dimensional weights
    known = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
    for two_k, a2 in known.items():
        assert eigenform(two_k, 10).coeff(2) == a2
