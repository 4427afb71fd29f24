import random
import signal
import time
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from g2lift.arith import InputTooLarge, SquarefreeCofactor, fundamental_discriminant, prime_powers
from g2lift.cubic import (
    CanonicalReduction,
    CubicFieldOrbitUnsupported,
    CubicRing,
    CubicVector,
    NonEtaleInput,
    _p_maximal,
    cubic_ring,
    etale_type,
    form_disc,
    fundamental_discriminant_of_class,
    is_maximal,
    quartic_q,
    rational_projective_roots,
    reduce_to_canonical,
    reduction_json,
    verify_reduction,
)
from g2lift.exact import mat2
from g2lift.group import coad_w, rho3

from conftest import rand_mat2, rand_rat
from oracles import (
    det_cofactor,
    disc_resultant,
    is_totally_real,
    maximal_bruteforce,
    p_maximal_by_scan,
    prime_powers_by_trial,
    quartic_q_polynomial,
    rational_roots_bruteforce,
    ring_multiply,
    trace_matrix,
)


def rand_lattice_vec(rng, bound=9):
    return CubicVector.of(
        rng.randint(-bound, bound),
        F(rng.randint(-bound, bound), 3),
        F(rng.randint(-bound, bound), 3),
        rng.randint(-bound, bound),
    )


# --- quartic invariant --------------------------------------------------------

def test_quartic_examples():
    assert quartic_q((1, 0, 0, 1)) == 1
    assert quartic_q((0, 1, 0, 0)) == 0
    assert quartic_q((F(-1), 0, F(1, 3), 0)) == F(-4, 27)


def test_quartic_shape_formula(rng):
    for _ in range(20):
        t, s = rand_rat(rng, 9), rand_rat(rng, 9)
        assert quartic_q((t, 0, s / 3, 0)) == 4 * t * s**3 / 27


def test_quartic_is_scaled_discriminant(rng):
    for _ in range(30):
        w = rand_lattice_vec(rng)
        a, b, c, d = w.integral_form()
        assert -27 * quartic_q(w) == form_disc(a, b, c, d)
        if a != 0:
            assert form_disc(a, b, c, d) == disc_resultant(a, b, c, d)


_entry = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
)


@given(st.tuples(_entry, _entry, _entry, _entry))
@settings(max_examples=300, deadline=None)
@example((0, 0, 0, 0))
@example((F(1, 2), 0, 0, 1))
@example((F(-1, 10**6), F(1, 3), F(2, 999983), 0))
def test_quartic_matches_polynomial_oracle(w):
    """quartic_q reads the discriminant of the integral form; the oracle
    expands the quartic in the coordinates, on and off the lattice."""
    assert quartic_q(w) == quartic_q_polynomial(w)


def test_q_covariance(rng):
    for _ in range(30):
        A = rand_mat2(rng)
        w = tuple(rand_rat(rng, 9) for _ in range(4))
        assert quartic_q(rho3(A, w)) == A.det() ** 6 * quartic_q(w)


# --- totally real / etale -------------------------------------------------------

def test_totally_real_examples():
    assert is_totally_real((-1, 0, F(1, 3), 0))
    assert not is_totally_real((1, 0, 0, 1))
    assert is_totally_real((1, 0, -1, 1))


def test_totally_real_orbit_invariant(rng):
    for _ in range(20):
        A = rand_mat2(rng)
        w = tuple(rand_rat(rng, 9) for _ in range(4))
        assert is_totally_real(w) == is_totally_real(rho3(A, w))
        if quartic_q(w) < 0:
            assert is_totally_real(w)


def test_etale_examples():
    assert etale_type((-1, 0, F(1, 3), 0)).kind == "totally_split"
    assert str(etale_type((-1, 0, F(1, 3), 0))) == "Q^3"
    et = etale_type((-1, 0, F(2, 3), 0))
    assert et.kind == "quadratic_split" and et.quad_disc == 8 and et.real_quadratic
    et = etale_type((1, 0, -1, 1))
    assert et.kind == "cubic_field" and et.cubic_poly == (1, 0, -3, 1)
    assert str(et) == "cubic field [1,0,-3,1]"
    et = etale_type((1, 0, 0, 1))
    assert et.kind == "quadratic_split" and et.quad_disc == -3 and not et.real_quadratic


def test_etale_rejects_degenerate():
    with pytest.raises(NonEtaleInput):
        etale_type((0, 1, 0, 0))
    with pytest.raises(NonEtaleInput, match="zero form"):
        rational_projective_roots((0, 0, 0, 0))


def test_etale_orbit_invariant(rng):
    count = 0
    while count < 15:
        w = rand_lattice_vec(rng, 5)
        if quartic_q(w) == 0:
            continue
        count += 1
        base = etale_type(w)
        A = rand_mat2(rng)
        moved = etale_type(rho3(A, w))
        assert moved.kind == base.kind
        if base.kind == "quadratic_split":
            assert moved.quad_disc == base.quad_disc


def test_projective_roots_infinity_cases():
    # leading coefficient zero keeps the root at infinity
    assert (1, 0) in rational_projective_roots((0, F(1, 3), F(1, 3), 0))
    assert rational_projective_roots((-1, 0, F(1, 3), 0)) == [(-1, 1), (0, 1), (1, 1)]


# --- rational roots against divisor enumeration ------------------------------

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _planted(scale, *factors):
    """Coefficients (a, b, c, d) of scale * prod(r u^k + s v ...) as a form."""
    poly = [scale]
    for f in factors:
        poly = _poly_mul(poly, list(f))
    return tuple(poly)


def _root_of_linear(r, s):
    """Primitive root (u0, v0), v0 > 0 or (1, 0), of r u + s v."""
    g = gcd(r, s)
    u0, v0 = -s // g, r // g
    return (-u0, -v0) if v0 < 0 or (v0 == 0 and u0 < 0) else (u0, v0)


def _as_vector(a, b, c, d):
    return (a, F(b, 3), F(c, 3), d)


small = st.integers(-30, 30)
linear_st = st.one_of(st.sampled_from([(1, 0), (0, 1)]), st.tuples(small, small).filter(any))


@given(st.tuples(*[st.integers(-10**4, 10**4)] * 4).filter(any))
@settings(max_examples=300, deadline=None)
def test_roots_match_oracle_random(coeffs):
    assert rational_projective_roots(_as_vector(*coeffs)) == rational_roots_bruteforce(*coeffs)


@given(
    scale=st.integers(-12, 12).filter(bool),
    shape=st.sampled_from(["distinct", "double", "cube", "quadratic"]),
    l1=linear_st,
    l2=linear_st,
    l3=linear_st,
    quad=st.tuples(small, small, small).filter(any),
)
@settings(max_examples=300, deadline=None)
def test_roots_match_oracle_planted(scale, shape, l1, l2, l3, quad):
    linears = {"distinct": [l1, l2, l3], "double": [l1, l1, l2], "cube": [l1] * 3, "quadratic": [l1]}[shape]
    coeffs = _planted(scale, *linears, *([quad] if shape == "quadratic" else []))
    got = rational_projective_roots(_as_vector(*coeffs))
    assert got == rational_roots_bruteforce(*coeffs)
    assert all(_root_of_linear(*l) in got for l in linears)


@given(
    coeffs=st.tuples(st.integers(-10**4, 10**4).filter(bool), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4)),
    scale=st.sampled_from([1, 2, 3, 7, 10**6]),
)
@settings(max_examples=300, deadline=None)
@example(coeffs=(1, 0, 0), scale=1)
@example(coeffs=(2, -3, 1), scale=7)
def test_roots_with_a4_zero_match_oracle(coeffs, scale):
    """a4 = 0 and a1 != 0 runs the monic bisection, whose root y = 0 is
    (0 : 1); a vector scaled off the lattice has the same roots."""
    a, b, c = coeffs
    w = _as_vector(a, b, c, 0)
    assert rational_projective_roots(w) == rational_roots_bruteforce(a, b, c, 0)
    assert rational_projective_roots(tuple(F(x) / scale for x in w)) == rational_roots_bruteforce(a, b, c, 0)


@pytest.mark.parametrize(
    "coeffs,want",
    [
        # t = 0: d != 0; (0, 1, -3, 2) also vanishes at t = 1 and t = 2
        ((0, 1, -3, 2), [(1, 0), (1, 1), (2, 1)]),
        ((0, 0, 0, 5), [(1, 0)]),
        ((0, 0, 2, 3), [(-3, 2), (1, 0)]),
        ((0, 1, 0, -4), [(-2, 1), (1, 0), (2, 1)]),
        # t = 1: d = 0 and b + c != 0
        ((0, 1, 1, 0), [(-1, 1), (0, 1), (1, 0)]),
        ((0, 2, 0, 0), [(0, 1), (1, 0)]),
        ((0, 0, 1, 0), [(0, 1), (1, 0)]),
        ((0, 3, 5, 0), [(-5, 3), (0, 1), (1, 0)]),
        # t = 2: d = 0 and b + c = 0
        ((0, 1, -1, 0), [(0, 1), (1, 0), (1, 1)]),
        ((0, -6, 6, 0), [(0, 1), (1, 0), (1, 1)]),
    ],
)
def test_roots_with_a1_zero_take_the_shifted_path(coeffs, want):
    """a = 0 reads f at (t u + v, u) for the least t in {0, 1, 2} with
    f(t, 1) != 0, and maps each root (y : a') back to (t y + a' : y); the
    same roots come out on the lattice and scaled off it."""
    a, b, c, d = coeffs
    assert rational_roots_bruteforce(*coeffs) == want
    w = _as_vector(*coeffs)
    assert rational_projective_roots(w) == want
    assert rational_projective_roots(tuple(F(x) / 7 for x in w)) == want
    assert rational_projective_roots((0, F(b, 6), F(c, 6), F(d, 2))) == want


@given(st.tuples(*[st.integers(-60, 60)] * 3).filter(any), st.sampled_from([1, 2, 5]))
@settings(max_examples=300, deadline=None)
@example((1, -3, 2), 1)
@example((3, 1, 0), 2)
@example((2, -2, 0), 1)
def test_roots_with_a1_zero_match_oracle(bcd, scale):
    b, c, d = bcd
    w = tuple(F(x) / scale for x in _as_vector(0, b, c, d))
    assert rational_projective_roots(w) == rational_roots_bruteforce(0, b, c, d)


def test_roots_match_oracle_clustered_and_extreme():
    # Roots a unit apart sit next to the critical points of the monic
    # transform; a root (u - N v)(u^2 + e v^2) sits at the Cauchy bound.
    lines = [(q, -p) for q in (1, 2) for p in range(-4, 5)]
    forms = [
        _planted(scale, l1, l2, l3)
        for scale in (1, -3)
        for i, l1 in enumerate(lines)
        for j, l2 in enumerate(lines[i:], i)
        for l3 in lines[j:]
    ]
    forms += [
        _planted(1, (1, -sign * n), (1, 0, e))
        for n in (1, 2, 7, 10**6)
        for sign in (1, -1)
        for e in (1, -2)
    ]
    for coeffs in forms:
        assert rational_projective_roots(_as_vector(*coeffs)) == rational_roots_bruteforce(*coeffs), coeffs


def test_roots_planted_256_bits():
    rng = random.Random(256)
    three = [(rng.getrandbits(85) | 1, -rng.getrandbits(85)) for _ in range(3)]
    line = (rng.getrandbits(128) | 1, rng.getrandbits(128))
    definite = (rng.getrandbits(128) + 1, 0, rng.getrandbits(128) + 1)  # no real root
    cases = [
        (_planted(1, *three), sorted(_root_of_linear(*l) for l in three)),
        (_planted(1, line, definite), [_root_of_linear(*line)]),
    ]
    for coeffs, want in cases:
        assert max(abs(x) for x in coeffs).bit_length() >= 250
        t0 = time.perf_counter()
        got = rational_projective_roots(_as_vector(*coeffs))
        elapsed = time.perf_counter() - t0
        assert got == want
        assert elapsed < 0.05, f"256-bit root finding took {elapsed:.3f} s"


# --- bounded factoring -------------------------------------------------------------

MR_EXACT = 3317044064679887385961981
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 97, 997, 65521, 1048573]  # 1048573 < 2^20
LARGE_PRIMES = [1048583, 1048601, 1000000007, 2147483647, 2**61 - 1, 2**89 - 1]
# a strong pseudoprime to the first 12 prime bases (2 .. 37); base 41 exposes it
PSP12 = 399165290221 * 798330580441


@given(st.integers(1, 10**6))
@settings(max_examples=400, deadline=None)
def test_prime_powers_match_trial_division(n):
    assert list(prime_powers(n)) == prime_powers_by_trial(n)


@given(
    small=st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 4)), max_size=4,
                   unique_by=lambda t: t[0]),
    large=st.lists(st.sampled_from(LARGE_PRIMES), max_size=4),
)
@example(small=[], large=[1048583, 1048583])  # prime square just past the trial limit
@example(small=[(2, 3)], large=[2**61 - 1, 2**61 - 1])  # prime square certified by Miller-Rabin
@example(small=[], large=[1048583, 1048601])  # two primes just past the limit
@example(small=[(1048573, 2)], large=[2**89 - 1])  # a prime too large to certify
@example(small=[], large=[1048583, 1048583, 1048601, 1048601])  # square of a semiprime
@settings(max_examples=60, deadline=None)  # a full trial pass takes ~0.1 s
def test_prime_powers_planted(small, large):
    n = 1
    for p, e in small:
        n *= p**e
    for p in large:
        n *= p
    large.sort()
    settled = (
        not large
        or (len(large) == 1 and large[0] < MR_EXACT)
        or (len(large) == 2 and large[0] == large[1] and large[0] < MR_EXACT)
    )
    if settled:
        want = sorted(small) + ([(large[0], len(large))] if large else [])
        assert list(prime_powers(n)) == want
    else:
        with pytest.raises(InputTooLarge):
            list(prime_powers(n))


def test_prime_powers_refuse_strong_pseudoprime():
    for n in (PSP12, 12 * PSP12, PSP12**2):
        with pytest.raises(InputTooLarge):
            list(prime_powers(n))


# 4 * 10^18 + 37 is the discriminant and a prime; the semiprime one is not
BIG_W = (-(10**18 + 7), 1, F(1, 3), 0)
SEMIPRIME_W = (-(1000000007 * 2147483647 - 9) // 4, 1, F(1, 3), 0)
BIG_CALLS = {
    "reduce": reduce_to_canonical,
    "etale": etale_type,
    "maximal": lambda w: is_maximal(cubic_ring(w)),
}


def _within(seconds, fn, *args):
    """fn(*args), or its InputTooLarge, under a SIGALRM timer."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except InputTooLarge as exc:
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", sorted(BIG_CALLS))
def test_nineteen_digit_vectors_answer_or_refuse_within_half_a_second(call):
    reduce_to_canonical((-5, 1, F(1, 3), 0))  # warm the group tables
    got = _within(0.5, BIG_CALLS[call], BIG_W)
    assert isinstance(_within(0.5, BIG_CALLS[call], SEMIPRIME_W), InputTooLarge)
    d0 = 4 * 10**18 + 37
    assert cubic_ring(BIG_W).discriminant == d0
    if call == "reduce":
        assert (got.t, got.S) == (-d0, 1)
    elif call == "etale":
        assert str(got) == f"Q x Q(sqrt({d0}))"
    else:
        assert got is True


def test_squarefree_cofactor_answers_square_class_callers():
    """A 41-bit cofactor with no prime factor below the trial limit that is
    neither prime nor a square is two distinct primes: is_maximal and
    fundamental_discriminant answer, mu_f (which needs the primes) refuses,
    and a 61-bit semiprime past (TRIAL_LIMIT + 1)^3 is refused as before."""
    q1, q2 = 1291313, 1504519
    assert prime_powers_by_trial(q1 * q2) == [(q1, 1), (q2, 1)]
    ring = CubicRing(883, -739, 372, -3407)
    assert ring.discriminant == -(11**2) * q1 * q2
    assert is_maximal(ring) is True and maximal_bruteforce(ring) is True
    assert fundamental_discriminant(5 * q1 * q2) == 4 * 5 * q1 * q2
    assert fundamental_discriminant(-(7**2) * q1 * q2) == -q1 * q2
    from g2lift.modforms import delta, mu_f

    with pytest.raises(InputTooLarge):
        mu_f(delta(8), F(q1 * q2, 7))
    with pytest.raises(InputTooLarge) as exc:
        list(prime_powers(1000000007 * 2147483647))
    assert not isinstance(exc.value, SquarefreeCofactor)


# --- cubic rings -----------------------------------------------------------------

def test_ring_disc_identity_random(rng):
    for _ in range(100):
        w = rand_lattice_vec(rng)
        ring = cubic_ring(w)
        assert ring.discriminant == -27 * quartic_q(w)


def test_ring_trace_form_matches_disc(rng):
    for _ in range(40):
        w = rand_lattice_vec(rng)
        ring = cubic_ring(w)
        tm = [[F(x) for x in row] for row in trace_matrix(ring)]
        assert det_cofactor(tm) == ring.discriminant


def test_ring_multiplication_associative(rng):
    for _ in range(25):
        ring = cubic_ring(rand_lattice_vec(rng))
        triples = [
            ((0, 1, 0), (0, 0, 1), (0, 1, 1)),
            ((1, 2, 3), (0, 1, 0), (2, 0, 1)),
        ]
        for x, y, z in triples:
            assert ring_multiply(ring, ring_multiply(ring, x, y), z) == ring_multiply(ring, x, ring_multiply(ring, y, z))


def test_ring_rejects_nonlattice():
    with pytest.raises(ValueError):
        cubic_ring((F(1, 2), 0, 0, 1))
    assert CubicVector.of(F(1, 2), 0, 0, 1).integral_form() == (1, 0, 0, 2)


def test_maximality_examples():
    assert cubic_ring((0, F(1, 3), F(1, 3), 0)).discriminant == 1
    assert is_maximal(cubic_ring((0, F(1, 3), F(1, 3), 0)))
    ring = cubic_ring((-1, 0, F(1, 3), 0))
    assert ring.discriminant == 4
    assert not is_maximal(ring)
    assert cubic_ring((1, 0, -1, 1)).discriminant == 81
    assert is_maximal(cubic_ring((1, 0, -1, 1)))
    with pytest.raises(NonEtaleInput):
        is_maximal(cubic_ring((0, F(1, 3), 0, 0)))  # u^2 v: discriminant 0


def test_maximality_matches_bruteforce_smallbox():
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                for d in range(-2, 3):
                    ring = CubicRing(a, b, c, d)
                    disc = ring.discriminant
                    if disc == 0 or abs(disc) > 200:
                        continue
                    assert is_maximal(ring) == maximal_bruteforce(ring), (a, b, c, d, disc)


PRIMES_TO_10K = [n for n in range(2, 10**4) if prime_powers_by_trial(n) == [(n, 1)]]


def _planted_multiple_root(kind, r, alpha, beta):
    """(a, b, c, d) with a planted double or triple root at (r : 1) or at
    infinity; the cofactor is alpha u + beta v."""
    if kind == "double":  # (u - r v)^2 (alpha u + beta v)
        return (alpha, beta - 2 * r * alpha, r * r * alpha - 2 * r * beta, r * r * beta)
    if kind == "triple":  # alpha (u - r v)^3
        return (alpha, -3 * r * alpha, 3 * r * r * alpha, -(r**3) * alpha)
    if kind == "double_inf":  # v^2 (alpha u + beta v)
        return (0, 0, alpha, beta)
    return (0, 0, 0, alpha)  # alpha v^3


@given(
    p=st.one_of(st.sampled_from([2, 3, 5, 7]), st.sampled_from(PRIMES_TO_10K)),
    kind=st.sampled_from(["double", "triple", "double_inf", "triple_inf"]),
    r=st.integers(0, 10**4),
    alpha=st.integers(-50, 50),
    beta=st.integers(-50, 50),
    by_p=st.tuples(*[st.integers(-9, 9)] * 4),
    by_p2=st.tuples(*[st.integers(-9, 9)] * 4),
)
@settings(max_examples=300, deadline=None)
def test_p_maximal_matches_residue_scan(p, kind, r, alpha, beta, by_p, by_p2):
    planted = _planted_multiple_root(kind, r % p, alpha, beta)
    form = tuple(x + p * y + p * p * z for x, y, z in zip(planted, by_p, by_p2))
    if any(form):
        assert _p_maximal(*form, p) == p_maximal_by_scan(*form, p), (form, p)


@given(
    p=st.sampled_from([2, 3, 5, 7]),
    kind=st.sampled_from(["double", "triple", "double_inf", "triple_inf"]),
    r=st.integers(0, 6),
    alpha=st.integers(-4, 4),
    beta=st.integers(-4, 4),
    by_p=st.tuples(*[st.integers(-4, 4)] * 4),
    by_p2=st.tuples(*[st.integers(-2, 2)] * 4),
)
@settings(max_examples=80, deadline=None)
def test_maximality_matches_bruteforce_on_planted_square_divisors(p, kind, r, alpha, beta, by_p, by_p2):
    """Past the |a|, ..., |d| <= 2 box: forms with a multiple root planted
    mod p at a centered residue, so p^2 divides the discriminant (a form
    congruent mod p^2 to one with a multiple root has that).  The
    discriminant stays below 10^9 and its square divisors at primes <= 7,
    which keeps the oracle's trial loop and subspace scan short."""
    r %= p
    planted = _planted_multiple_root(kind, r - p if 2 * r > p else r, alpha, beta)
    form = tuple(x + p * y + p * p * z for x, y, z in zip(planted, by_p, by_p2))
    if CubicRing(*form).discriminant % (p * p):
        form = tuple(x + p * p * z for x, z in zip(planted, by_p2))
    ring = CubicRing(*form)
    disc = ring.discriminant
    assume(disc != 0 and abs(disc) <= 10**9)
    assume(all(q <= 7 for q, e in prime_powers_by_trial(abs(disc)) if e >= 2))
    assert disc % (p * p) == 0
    assert is_maximal(ring) == maximal_bruteforce(ring), (form, disc)


def test_maximality_at_a_square_prime_below_the_trial_limit_is_fast():
    p = 1048573  # the largest prime below the trial limit; O(p) work here takes ~0.5 s
    ring = CubicRing(1, 0, -p * p, p * p)
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        assert is_maximal(ring) is False
        seconds.append(time.perf_counter() - t0)
    assert min(seconds) < 0.05


def test_maximality_at_a_square_prime_past_the_trial_limit_answers():
    ring = CubicRing(1, 1, -5242915, -2199052615778)
    assert ring.discriminant == -397 * 523 * 22907 * 24967 * 1048583**2
    assert is_maximal(ring) is False


# --- canonical reduction ----------------------------------------------------------

def test_reduction_identity_cases():
    red = reduce_to_canonical((-1, 0, F(1, 3), 0))
    assert (red.t, red.S) == (-1, 1) and red.m == mat2(1, 0, 0, 1)
    red = reduce_to_canonical((-1, 0, F(2, 3), 0))
    assert (red.t, red.S) == (-1, 2) and red.m == mat2(1, 0, 0, 1)


def test_reduction_roundtrip_translate():
    # translate the shape vector by a unipotent and reduce back
    w0 = (F(-5), F(0), F(1, 3), F(0))
    mp = mat2(1, 1, 0, 1)
    w = coad_w(mp.inverse(), w0)
    red = reduce_to_canonical(w)
    assert verify_reduction(red)
    assert red.index == 5


def test_reduction_errors():
    with pytest.raises(ValueError, match=r"^q\(w\) < 0 required$"):
        reduce_to_canonical((1, 0, 0, 1))
    with pytest.raises(CubicFieldOrbitUnsupported):
        reduce_to_canonical((1, 0, -1, 1))


def test_reduction_random_orbit(rng):
    for D in (1, 5, 8, 12, 13):
        base = (F(-D), F(0), F(1, 3), F(0))
        for _ in range(12):
            A = rand_mat2(rng)
            w = coad_w(A, base)
            red = reduce_to_canonical(w)
            assert red.t == -D and red.S == 1
            assert verify_reduction(red)
            assert red.m.det() != 0


def test_reduction_of_68_bit_translate_is_fast():
    # A GL2 translate of (-5, 0, 1/3, 0) with 68-bit integral form; divisor
    # enumeration of its roots needs about 5 * 10^11 trial divisions.
    w = (
        F(-57335190652522987060),
        F(-55031013639692703290),
        F(-158458309517042563243, 3),
        F(-50696737862109098683),
    )
    t0 = time.perf_counter()
    red = reduce_to_canonical(w)
    elapsed = time.perf_counter() - t0
    assert (red.t, red.S) == (-5, 1)
    assert verify_reduction(red)
    assert elapsed < 0.5, f"reduction took {elapsed:.3f} s"


def test_reduction_verified_against_7x7(rng):
    for _ in range(8):
        A = rand_mat2(rng)
        w = coad_w(A, (F(-13), F(0), F(1, 3), F(0)))
        red = reduce_to_canonical(w)
        broken = CanonicalReduction(w=red.w, t=red.t, S=red.S + 1, m=red.m)
        assert not verify_reduction(broken)


def test_fundamental_class_normalization():
    assert fundamental_discriminant_of_class(F(5)) == (5, 1)
    assert fundamental_discriminant_of_class(F(2)) == (8, 2)
    assert fundamental_discriminant_of_class(F(9, 4)) == (1, F(2, 3))
    d0, lam = fundamental_discriminant_of_class(F(75))
    assert d0 == 12 and lam * lam * 75 == 12
    for r in (F(0), F(-5)):
        with pytest.raises(ValueError, match="positive rational"):
            fundamental_discriminant_of_class(r)


def test_reduction_json_record():
    rec = reduction_json((-5, 0, F(1, 3), 0))
    assert rec["q"] == "-20/27"
    assert rec["t"] == "-5" and rec["S"] == "1"
    assert rec["etale"].startswith("Q x Q(sqrt(5))")


def test_reduction_json_factors_the_square_class_once(monkeypatch):
    """The reduction's D0 is the quadratic field's discriminant, so `reduce`
    on a 19-digit vector factors its square class once, not twice."""
    import g2lift.cubic as cubic

    calls = []
    real = cubic.fundamental_discriminant
    monkeypatch.setattr(cubic, "fundamental_discriminant", lambda n: calls.append(n) or real(n))
    rec = reduction_json((-(10**18 + 7), 1, F(1, 3), 0))
    assert rec["t"] == "-4000000000000000037"
    assert rec["etale"] == "Q x Q(sqrt(4000000000000000037))"
    assert len(calls) == 1


def test_reduction_d0_is_the_etale_field_discriminant(rng):
    """On translates of shape vectors, and on the shape vectors themselves,
    the etale type read off the reduction is the one that factoring the
    quadratic factor gives.  A vector not already in shape is the one with
    m != 1, and its -t*S is D0."""
    for _ in range(40):
        shape = (-rng.randint(1, 400), 0, F(rng.randint(1, 60), 3 * rng.randint(1, 9)), 0)
        for w in (coad_w(rand_mat2(rng), shape), shape):
            red = reduce_to_canonical(w)
            in_shape = w[1] == w[3] == 0 and w[0] < 0 < w[2]
            assert (red.m == mat2(1, 0, 0, 1)) == in_shape, w
            assert red.etale == etale_type(w), w
            if not in_shape:
                d0 = int(red.index)
                assert (red.t, red.S) == (-d0, 1)
                assert (d0 == 1) == (etale_type(w).kind == "totally_split"), (w, d0)


def test_reduction_json_reads_the_etale_type_off_the_record(monkeypatch):
    """`reduce` searches for roots only inside the reduction: none for a
    vector in shape and one for a GL2 translate, whose a4 != 0."""
    import g2lift.cubic as cubic

    calls = []
    real = cubic.rational_projective_roots
    monkeypatch.setattr(cubic, "rational_projective_roots", lambda w: calls.append(w) or real(w))
    for w, searches in (((-5, 0, F(1, 3), 0), 0), ((-5, 5, F(-14, 3), 4), 1)):
        calls.clear()
        assert reduction_json(w)["etale"] == "Q x Q(sqrt(5))"
        assert len(calls) == searches, w


def test_verify_reduction_rejects_wrong_m():
    w = coad_w(mat2(1, 2, 0, 1), (F(-5), F(0), F(1, 3), F(0)))
    red = reduce_to_canonical(w)
    wrong = CanonicalReduction(w=red.w, t=red.t, S=red.S, m=red.m * mat2(1, 1, 0, 1))
    assert not verify_reduction(wrong)


def test_verification_reads_m_prime_once(monkeypatch):
    """One verification forms m' once: one m(A), whose construction is the
    one form check, one ``levi_m_coords`` read of Ad(w_alpha) m(A), and three
    7x7 products (the form check's and the identity's two).  Rebuilding
    m(m') from the coordinate read makes a second m(A), a second form check
    and a fourth product."""
    import g2lift.cubic as cubic
    import g2lift.group as group
    from g2lift.exact import Matrix7

    red = reduce_to_canonical(coad_w(mat2(1, 2, 0, 1), (-5, 0, F(1, 3), 0)))
    assert red.m != mat2(1, 0, 0, 1)
    calls = {"preserves_form": 0, "levi_m": 0, "levi_m_coords": 0, "product": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    # cubic may hold its own binding of a group function; patch both
    for name in ("preserves_form", "levi_m", "levi_m_coords"):
        wrapped = counted(name, getattr(group, name))
        monkeypatch.setattr(group, name, wrapped)
        monkeypatch.setattr(cubic, name, wrapped, raising=False)
    monkeypatch.setattr(Matrix7, "__mul__", counted("product", Matrix7.__mul__))
    assert verify_reduction(red)
    assert calls == {"preserves_form": 1, "levi_m": 1, "levi_m_coords": 1, "product": 3}


def test_broken_reduction_steps_raise(monkeypatch):
    """Each invariant of the reduction raises its own AssertionError when the
    step before it is broken: a wrong square class, a wrong root (so a4 is
    not cleared) and a wrong scale (so t != -D0)."""
    import g2lift.cubic as cubic

    with monkeypatch.context() as m:
        m.setattr(cubic, "fundamental_discriminant", lambda n: 2 * n)
        with pytest.raises(AssertionError, match="^square-class arithmetic broke$"):
            fundamental_discriminant_of_class(F(5))
    with monkeypatch.context() as m:
        m.setattr(cubic, "rational_projective_roots", lambda w: [(1, 0)])
        with pytest.raises(AssertionError, match=r"^reduction did not reach the shape \(t, 0, S/3, 0\)"):
            reduce_to_canonical((-5, 5, F(-14, 3), 4))
    real = cubic.fundamental_discriminant_of_class
    monkeypatch.setattr(cubic, "fundamental_discriminant_of_class", lambda r: (real(r)[0], 2 * real(r)[1]))
    with pytest.raises(AssertionError, match="^reduction did not reach t = -D0, S = 1$"):
        reduce_to_canonical((-5, 5, F(-14, 3), 4))


def test_failed_verification_is_refused_under_optimize():
    """`python -O` strips assert statements; a reduction whose 7x7 check
    fails must still be refused, on the in-shape path and the general one."""
    import subprocess
    import sys
    from pathlib import Path

    import g2lift

    code = (
        "from fractions import Fraction as F\n"
        "import g2lift.cubic as cubic\n"
        "cubic.verify_reduction = lambda red: False\n"
        "for w in ((-5, 0, F(1, 3), 0), (-5, 10, F(-59, 3), 38)):\n"
        "    try:\n"
        "        cubic.reduce_to_canonical(w)\n"
        "        print('returned')\n"
        "    except AssertionError as e:\n"
        "        print('refused:', e)\n"
        "print(__debug__)\n"
    )
    src = str(Path(g2lift.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, check=True, env={"PYTHONPATH": src},
    )
    assert out.stdout.splitlines() == [
        "refused: reduction failed its 7x7 verification",
        "refused: reduction failed its 7x7 verification",
        "False",
    ]
