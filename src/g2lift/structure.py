"""Randomized exact-identity suite for the group kernel.

Each check draws random rational samples (numerators and denominators
bounded by 1000) and verifies a structural identity by exact matrix
arithmetic.  A check returns None on success or a counterexample dict;
the driver collects one report entry per check.  Deterministic given the
seed, which is what the CLI contract requires.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

from .exact import Matrix5, mat2
from .group import (
    ALL_ROOTS,
    RootLabel,
    ad_w,
    coad_w,
    heis_n,
    heis_n1,
    identity,
    iota,
    levi_l,
    levi_m,
    n1_coords,
    preserves_form,
    rho3,
    root_generator,
    symplectic,
    torus,
    u_coord,
    u_coords,
    u_tilde,
    u_tilde1,
    u_tilde1_coords_mod_center,
    weyl,
    z_coord,
)
from .cubic import quartic_q

BOUND = 1000


def _rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))


def _rand_mat2(rng: random.Random):
    while True:
        A = mat2(*( _rand_rat(rng) for _ in range(4)))
        if A.det() != 0:
            return A


def _ce(**kw):
    """Counterexample payload with stringified rationals."""
    return {k: (str(v) if isinstance(v, Fraction) else v) for k, v in kw.items()}


# --- individual checks -----------------------------------------------------

def check_heisen1(rng, samples):
    for _ in range(samples):
        a = [_rand_rat(rng) for _ in range(5)]
        b = [_rand_rat(rng) for _ in range(5)]
        t = a[4] + b[4] - a[3] * b[0] + 3 * a[2] * b[1]
        if heis_n(*a) * heis_n(*b) != heis_n(
            a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], t
        ):
            return _ce(a=[str(x) for x in a], b=[str(x) for x in b])
    return None


def check_heisen2(rng, samples):
    for _ in range(samples):
        a = [_rand_rat(rng) for _ in range(5)]
        b = [_rand_rat(rng) for _ in range(5)]
        t = a[4] + b[4] + symplectic(a[:4], b[:4])
        if heis_n1(*a) * heis_n1(*b) != heis_n1(
            a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], t
        ):
            return _ce(a=[str(x) for x in a], b=[str(x) for x in b])
    return None


def check_action1(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        a = [_rand_rat(rng) for _ in range(4)]
        z = _rand_rat(rng)
        m = levi_m(A)
        lhs = m * heis_n1(*a, z) * m.inverse()
        if lhs != heis_n1(*ad_w(A, a), A.det() * z):
            return _ce(A=[str(x) for x in A.entries()], a=[str(x) for x in a], z=z)
    return None


def check_pairing(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        w = [_rand_rat(rng) for _ in range(4)]
        x = [_rand_rat(rng) for _ in range(4)]
        d3 = A.det() ** 3
        if symplectic(rho3(A, w), x) != symplectic(w, [d3 * t for t in rho3(A.inverse(), x)]):
            return _ce(kind="rho3-adjoint", A=[str(t) for t in A.entries()])
        if symplectic(coad_w(A, w), x) != symplectic(w, ad_w(A, x)):
            return _ce(kind="coad-adjoint", A=[str(t) for t in A.entries()])
    return None


def check_heisen3(rng, samples):
    for _ in range(samples):
        a = [_rand_rat(rng) for _ in range(3)]
        b = [_rand_rat(rng) for _ in range(3)]
        c1, c2, c3, _, _ = u_coords(u_tilde(*a) * u_tilde(*b))
        if (c1, c2, c3) != (a[0] + b[0], a[1] + b[1], a[2] + b[2] + 2 * a[1] * b[0]):
            return _ce(a=[str(x) for x in a], b=[str(x) for x in b])
    return None


def check_heisen4(rng, samples):
    for _ in range(samples):
        a = [_rand_rat(rng) for _ in range(3)]
        b = [_rand_rat(rng) for _ in range(3)]
        got = u_tilde1_coords_mod_center(u_tilde1(*a) * u_tilde1(*b))
        sym = a[1] * b[0] - a[0] * b[1]
        if got != (a[0] + b[0], a[1] + b[1], a[2] + b[2] + sym):
            return _ce(a=[str(x) for x in a], b=[str(x) for x in b])
    return None


def check_action_tilde_u(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        a, b, c, d = A.entries()
        dt = A.det()
        v = [_rand_rat(rng) for _ in range(3)]
        el = levi_l(A)
        got = u_tilde1_coords_mod_center(el.inverse() * u_tilde1(*v) * el)
        want = ((a * v[0] + c * v[1]) / dt, (b * v[0] + d * v[1]) / dt, v[2] / dt)
        if got != want:
            return _ce(A=[str(x) for x in A.entries()], v=[str(x) for x in v])
    return None


def check_action_z(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        a, b, c, d = A.entries()
        dt2 = A.det() ** 2
        x, y = _rand_rat(rng), _rand_rat(rng)
        el = levi_l(A)
        lhs = el.inverse() * z_coord(x, y) * el
        if lhs != z_coord((x * a + y * c) / dt2, (x * b + y * d) / dt2):
            return _ce(A=[str(t) for t in A.entries()], x=x, y=y)
    return None


def check_ml(rng, samples):
    for _ in range(samples):
        a = _rand_rat(rng) or Fraction(1)
        d = _rand_rat(rng) or Fraction(1)
        b = _rand_rat(rng)
        if levi_l(mat2(a, 0, 0, d)) != levi_m(mat2(a * d, 0, 0, a)):
            return _ce(kind="l-diag", a=a, d=d)
        if levi_l(mat2(1, b, 0, 1)) != heis_n(-b, 0, 0, 0, 0):
            return _ce(kind="l-upper", b=b)
        if levi_m(mat2(1, b, 0, 1)) != u_coord(-b, 0, 0, 0, 0):
            return _ce(kind="m-upper", b=b)
    return None


def check_imi(rng, samples, iota_element=None):
    io = iota_element if iota_element is not None else iota()
    io_inv = io.inverse()
    for _ in range(samples):
        A = _rand_mat2(rng)
        a, b, c, d = A.entries()
        dt = A.det()
        lhs = io * levi_m(A) * io_inv
        if lhs != levi_m(mat2(a / dt, -b / dt, -c / dt, d / dt)):
            return _ce(
                A=[str(x) for x in A.entries()],
                got=[[str(x) for x in row] for row in lhs.matrix.rows],
            )
    return None


def check_q_covariance(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        w = [_rand_rat(rng) for _ in range(4)]
        if quartic_q(rho3(A, w)) != A.det() ** 6 * quartic_q(w):
            return _ce(A=[str(x) for x in A.entries()], w=[str(x) for x in w])
    return None


def check_modulus_p(rng, samples):
    basis = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    for _ in range(samples):
        A = _rand_mat2(rng)
        m = levi_m(A)
        mi = m.inverse()
        det = Matrix5([n1_coords(m * heis_n1(*e) * mi) for e in basis]).det()
        if det != A.det() ** 3:
            return _ce(A=[str(x) for x in A.entries()], det=str(det))
    return None


def check_modulus_q(rng, samples):
    for _ in range(samples):
        A = _rand_mat2(rng)
        el = levi_l(A)
        eli = el.inverse()
        cols = []
        for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            c1, c2, c3, c4, cz = u_coords(el * u_tilde1(*e) * eli)
            cols.append((c1, c2, c3 - c1 * c2, c4, cz))
        for e in [(1, 0), (0, 1)]:
            cols.append(u_coords(el * z_coord(*e) * eli))
        det = Matrix5(cols).det()
        if det != A.det() ** 5:
            return _ce(A=[str(x) for x in A.entries()], det=str(det))
    return None


def check_one_parameter(rng, samples):
    for _ in range(samples):
        gam = rng.choice(ALL_ROOTS)
        u, v = _rand_rat(rng), _rand_rat(rng)
        if root_generator(gam, u) * root_generator(gam, v) != root_generator(gam, u + v):
            return _ce(root=str(gam), u=u, v=v)
    return None


def check_torus(rng, samples):
    for _ in range(samples):
        gam = rng.choice(ALL_ROOTS)
        t = _rand_rat(rng) or Fraction(1)
        s = _rand_rat(rng) or Fraction(1)
        if torus(gam, 1) != identity():
            return _ce(root=str(gam), kind="h(1)")
        if torus(gam, t) * torus(gam, s) != torus(gam, t * s):
            return _ce(root=str(gam), t=t, s=s)
    return None


def check_closure(rng, samples):
    """Random generator words stay inside the orthogonal group."""
    for _ in range(samples):
        g = identity()
        for _ in range(rng.randint(2, 6)):
            gam = rng.choice(ALL_ROOTS)
            g = g * root_generator(gam, Fraction(rng.randint(-20, 20), rng.randint(1, 20)))
        if not preserves_form(g.matrix):
            return _ce(kind="closure")
    return None


def check_weyl_levi(rng, samples):
    if weyl(RootLabel("a")) != levi_m(mat2(0, -1, 1, 0)):
        return _ce(kind="w_alpha")
    # The displayed beta representative is the inverse of w_beta(1); both
    # are recorded so a silent convention drift gets caught here.
    if weyl(RootLabel("b")) != levi_l(mat2(0, 1, -1, 0)).inverse():
        return _ce(kind="w_beta")
    return None


CHECKS: dict[str, Callable] = {
    "heisen1": check_heisen1,
    "heisen2": check_heisen2,
    "heisen3": check_heisen3,
    "heisen4": check_heisen4,
    "action1": check_action1,
    "action_tilde_u": check_action_tilde_u,
    "action_z": check_action_z,
    "ml": check_ml,
    "imi": check_imi,
    "pairing": check_pairing,
    "q_covariance_det6": check_q_covariance,
    "modulus_det3_P": check_modulus_p,
    "modulus_det5_Q": check_modulus_q,
    "one_parameter": check_one_parameter,
    "torus_laws": check_torus,
    "generator_closure": check_closure,
    "weyl_levi_values": check_weyl_levi,
}


def run_structure_suite(
    samples: int = 100,
    seed: int = 0,
    inject_bad_weyl: bool = False,
    include_timings: bool = False,
):
    """Run all identity checks; returns a JSON-ready report dict.

    The default report is bitwise-deterministic given (samples, seed);
    timing fields only appear when ``include_timings`` is set.
    ``inject_bad_weyl`` swaps a deliberately wrong iota word into the imi
    check so the failure path stays exercised end to end.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    report = {
        "schema": 1,
        "command": "verify-structure",
        "samples": samples,
        "seed": seed,
        "checks": [],
        "passed": True,
    }
    t_start = time.perf_counter()
    for name in sorted(CHECKS):
        rng = random.Random((seed, name).__repr__())
        t0 = time.perf_counter()
        if name == "imi" and inject_bad_weyl:
            bad = iota() * torus(RootLabel("a"), 2)
            ce = check_imi(rng, samples, iota_element=bad)
        else:
            ce = CHECKS[name](rng, samples)
        entry = {"name": name, "status": "pass" if ce is None else "fail", "samples": samples}
        if include_timings:
            entry["seconds"] = round(time.perf_counter() - t0, 4)
        if ce is not None:
            entry["counterexample"] = ce
            report["passed"] = False
        report["checks"].append(entry)
    if include_timings:
        report["wall_time"] = round(time.perf_counter() - t_start, 4)
    return report
