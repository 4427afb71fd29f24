"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPT <n> <name>: PASS (cond, X.Xs < budget)` on
success and asserts both the numeric condition at its stated tolerance
and the runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction as F
from math import lcm

import pytest

from conftest import PREC_FULL, forget, rand_mat2

BUDGETS = {1: 30, 2: 1, 3: 120, 4: 60, 5: 10, 6: 60, 7: 5, 8: 60}


def _report(num, name, cond, t0, extra=""):
    elapsed = time.perf_counter() - t0
    status = "PASS" if cond and elapsed < BUDGETS[num] else "FAIL"
    print(f"ACCEPT {num} {name}: {status} ({extra}{'; ' if extra else ''}{elapsed:.2f}s < {BUDGETS[num]}s)")
    assert cond, f"criterion {num} condition failed"
    assert elapsed < BUDGETS[num], f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_exact_structure_suite():
    """All group identities exactly, >= 100 random samples each."""
    from g2lift.structure import run_structure_suite

    t0 = time.perf_counter()
    report = run_structure_suite(samples=100, seed=20260808)
    names = {c["name"] for c in report["checks"]}
    required = {
        "heisen1", "heisen2", "heisen3", "heisen4", "action1",
        "action_tilde_u", "action_z", "ml", "imi", "pairing",
        "q_covariance_det6", "modulus_det3_P", "modulus_det5_Q",
    }
    cond = report["passed"] and required <= names
    _report(1, "exact structure suite", cond, t0, f"{len(report['checks'])} checks x 100 samples")


def test_criterion_2_degree7_factorization():
    """Formal Laurent identity plus 20 numeric spot checks at 1e-14."""
    import cmath
    import math
    import random

    from g2lift.lfunctions import factorization_check, std7_numeric_check

    t0 = time.perf_counter()
    formal = factorization_check()
    rng = random.Random(11)
    numeric = all(
        std7_numeric_check(
            cmath.exp(1j * rng.uniform(0, 2 * math.pi)),
            rng.choice([2, 3, 5, 7, 11, 13]),
            complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)),
            tol=1e-14,
        )
        for _ in range(20)
    )
    _report(2, "degree-7 factorization", formal and numeric, t0, "formal + 20 spot checks")


def test_criterion_3_shimura_pipeline():
    """dim = 1 at k = 6; exact lift identity for fundamental D <= 40, n <= 10.

    Rebuilds the N = 5000 series inside the timed region (every name it
    reads is dropped from the series store first) so the reported runtime
    covers the real cost.
    """
    from g2lift.modforms import delta
    from g2lift.shimura import is_fundamental_discriminant, plus_cusp_basis, shimura_lift_check

    forget("delta", "theta", "F", ("plus_basis", 6))
    t0 = time.perf_counter()
    f = delta(PREC_FULL)
    basis = plus_cusp_basis(6, PREC_FULL)
    dim_ok = len(basis) == 1
    g = basis[0]
    lift_ok = True
    tested = []
    for D in range(1, 41):
        if not is_fundamental_discriminant(D) or g.coeff(D) == 0:
            continue
        tested.append(D)
        lift_ok = lift_ok and shimura_lift_check(g, f, D, 10)
    cond = dim_ok and lift_ok and len(tested) >= 10
    _report(3, "half-integral pipeline", cond, t0, f"dim=1 at N={PREC_FULL}, D in {tested}")


def test_criterion_4_ratio_experiment(lift_ctx):
    """Ratio constant over D in {5, 8, 12, 13, 17}, relative spread < 1e-4."""
    t0 = time.perf_counter()
    ratios = [lift_ctx.gross_ratio((-D, 0, F(1, 3), 0), tol=1e-10) for D in (5, 8, 12, 13, 17)]
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    _report(4, "ratio experiment", spread < 1e-4, t0, f"spread={spread:.2e}")


def test_criterion_5_nonvanishing(lift_ctx):
    """Split nonvanishing with |L(6, f)| > 1e3 x error bound."""
    from g2lift.lfunctions import central_twisted_value

    t0 = time.perf_counter()
    ok = lift_ctx.nonvanishing_split(tol=1e-10)
    L = central_twisted_value(lift_ctx.f, 1, 1e-10)
    margin = abs(L.value) > 1000 * L.abs_error_bound
    _report(5, "nonvanishing", ok and margin, t0,
            f"L={L.value:.6f}, err={L.abs_error_bound:.1e}")


def test_criterion_6_reduction_coherence(lift_ctx):
    """50 random translates of (-D, 0, 1/3, 0): independent evaluation
    matches the transported record; coefficients exactly, phases 1e-10."""
    import random

    from g2lift.cubic import CubicVector
    from g2lift.exact import mat2
    from g2lift.group import ad_weyl_alpha, coad_w, levi_m, levi_m_coords

    rng = random.Random(6)
    t0 = time.perf_counter()
    done = 0
    exact_ok = True
    phase_ok = True
    targets = [(5, 17), (8, 17), (13, 16)]
    for D, quota in targets:
        base_w = (F(-D), F(0), F(1, 3), F(0))
        base = lift_ctx.fourier_coefficient(base_w)
        got_n = 0
        while got_n < quota:
            A = rand_mat2(rng, bound=9)
            mp = levi_m_coords(ad_weyl_alpha(levi_m(A)))
            w = coad_w(mp, base_w)
            den = lcm(*(x.denominator for x in (w[0], 3 * w[1], 3 * w[2], w[3])))
            if den != 1:
                A = A * mat2(den, 0, 0, den)
                mp = levi_m_coords(ad_weyl_alpha(levi_m(A)))
                w = coad_w(mp, base_w)
            wv = CubicVector.of(*w)
            if wv.a2 == 0 and wv.a4 == 0:
                continue
            got = lift_ctx.fourier_coefficient(wv)
            pred = lift_ctx.transform_coefficient(base, A)
            exact_ok = exact_ok and got.c_value == pred.c_value and (got.t, got.S) == (pred.t, pred.S)
            phase_ok = phase_ok and abs(got.phase - pred.phase) < 1e-10
            got_n += 1
            done += 1
    _report(6, "reduction coherence", exact_ok and phase_ok and done == 50, t0, f"{done} translates")


def test_criterion_7_plethysm():
    """Closed formula vs character oracle for n <= 30 with dimension sums."""
    from math import comb

    from g2lift.ktypes import decomposition_dimension, plethysm_symn_sym3

    from oracles import plethysm_oracle

    t0 = time.perf_counter()
    ok = True
    for n in range(31):
        formula = plethysm_symn_sym3(n)
        ok = ok and formula == plethysm_oracle(n)
        ok = ok and decomposition_dimension(formula) == comb(n + 3, 3)
    _report(7, "plethysm vs oracle", ok, t0, "n <= 30")


def test_criterion_8_cubic_rings(rng):
    """Discriminant identity on 100 random lattice vectors; local
    maximality agrees with superring search for |disc| <= 500."""
    from g2lift.cubic import CubicRing, CubicVector, cubic_ring, is_maximal, quartic_q

    from oracles import maximal_bruteforce

    t0 = time.perf_counter()
    disc_ok = True
    for _ in range(100):
        w = CubicVector.of(
            rng.randint(-30, 30), F(rng.randint(-30, 30), 3),
            F(rng.randint(-30, 30), 3), rng.randint(-30, 30),
        )
        disc_ok = disc_ok and cubic_ring(w).discriminant == -27 * quartic_q(w)
    max_ok = True
    compared = 0
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    ring = CubicRing(a, b, c, d)
                    disc = ring.discriminant
                    if disc == 0 or abs(disc) > 500:
                        continue
                    compared += 1
                    if is_maximal(ring) != maximal_bruteforce(ring):
                        max_ok = False
    _report(8, "cubic rings", disc_ok and max_ok and compared > 300, t0,
            f"{compared} rings vs brute force")
