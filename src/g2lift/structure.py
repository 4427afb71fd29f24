"""Randomized exact-identity suite for the group kernel.

Each identity of the 7x7 model is declared once in ``IDENTITIES``: a
sampler, which draws its arguments from an rng as {name: argument}
(rationals with numerators and denominators bounded by 1000), and a sides
function, which maps the arguments to a list of (kind, lhs, rhs) compared
by exact arithmetic.  ``kind`` names one side of an identity with several
and is None otherwise.  ``_check`` makes each declaration a check,
``CHECKS[name](rng, samples)``, which returns None on success or a
counterexample: the drawn arguments as exact strings, the failing left side
under "got", and its kind.  ``weyl_levi_values`` compares constant matrices,
so it has no sampler and is evaluated once.  Operands that do not depend
on the draw, the unit elements of the modulus checks, are built once per
process on first use; each sample's 7x7 work is unchanged.  A conjugation
g h g^-1 is formed as g (h g^-1), so the sparse unipotent factor h is the
left factor of the first product, whose zero entries the kernel skips; the
values and the product count are those of (g h) g^-1.  The report is
deterministic given the seed, which is what the CLI contract requires.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cache, partial
from math import prod
from operator import add
from typing import Callable

from .arith import BadInput
from .exact import Matrix2, Matrix5, mat2
from .group import (
    ALL_ROOTS, GroupElement, RootLabel, ad_w, coad_w, heis_n, heis_n1, identity, iota, levi_l,
    levi_m, n1_coords, preserves_form, rho3, root_generator, symplectic, torus, u_coord,
    u_coords, u_tilde, u_tilde1, u_tilde1_coords_mod_center, weyl, z_coord,
)
from .cubic import quartic_q

BOUND = 1000


def _rand_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))


def _rats(rng: random.Random, n: int) -> list:
    return [_rand_rat(rng) for _ in range(n)]


def _nonzero(rng: random.Random) -> Fraction:
    return _rand_rat(rng) or Fraction(1)


def _rand_mat2(rng: random.Random):
    while True:
        A = mat2(*_rats(rng, 4))
        if A.det() != 0:
            return A


def _text(value):
    """Exact JSON text of an argument or a side: a string per rational."""
    if isinstance(value, GroupElement):
        value = value.matrix.rows
    elif isinstance(value, Matrix2):
        value = value.entries()
    if isinstance(value, (list, tuple)):
        return [_text(x) for x in value]
    return str(value)


def _check(sampler, sides) -> Callable:
    """The check of one declaration: ``samples`` draws (one evaluation
    without a sampler), stopping at the first side that fails."""

    def check(rng: random.Random, samples: int):
        for _ in range(samples if sampler else 1):
            args = sampler(rng) if sampler else {}
            for kind, lhs, rhs in sides(**args):
                if lhs != rhs:
                    drawn = {name: _text(value) for name, value in args.items()}
                    kinds = {} if kind is None else {"kind": kind}
                    return {**drawn, **kinds, "got": _text(lhs)}
        return None

    return check


# --- the identities (Gan-Gross-Savin, Duke 2002) ---------------------------

def _heisen1(a, b):
    t = a[4] + b[4] - a[3] * b[0] + 3 * a[2] * b[1]
    return [(None, heis_n(*a) * heis_n(*b), heis_n(*map(add, a[:4], b[:4]), t))]


def _heisen2(a, b):
    t = a[4] + b[4] + symplectic(a[:4], b[:4])
    return [(None, heis_n1(*a) * heis_n1(*b), heis_n1(*map(add, a[:4], b[:4]), t))]


def _heisen3(a, b):
    got = u_coords(u_tilde(*a) * u_tilde(*b))[:3]
    return [(None, got, (a[0] + b[0], a[1] + b[1], a[2] + b[2] + 2 * a[1] * b[0]))]


def _heisen4(a, b):
    got = u_tilde1_coords_mod_center(u_tilde1(*a) * u_tilde1(*b))
    return [(None, got, (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[1] * b[0] - a[0] * b[1]))]


def _action1(A, a, z):
    m = levi_m(A)
    return [(None, m * (heis_n1(*a, z) * m.inverse()), heis_n1(*ad_w(A, a), A.det() * z))]


def _action_tilde_u(A, v):
    a, b, c, d = A.entries()
    dt = A.det()
    el = levi_l(A)
    got = u_tilde1_coords_mod_center(el.inverse() * (u_tilde1(*v) * el))
    return [(None, got, ((a * v[0] + c * v[1]) / dt, (b * v[0] + d * v[1]) / dt, v[2] / dt))]


def _action_z(A, x, y):
    a, b, c, d = A.entries()
    dt2 = A.det() ** 2
    el = levi_l(A)
    return [(None, el.inverse() * (z_coord(x, y) * el), z_coord((x * a + y * c) / dt2, (x * b + y * d) / dt2))]


def _ml(a, d, b):
    return [
        ("l-diag", levi_l(mat2(a, 0, 0, d)), levi_m(mat2(a * d, 0, 0, a))),
        ("l-upper", levi_l(mat2(1, b, 0, 1)), heis_n(-b, 0, 0, 0, 0)),
        ("m-upper", levi_m(mat2(1, b, 0, 1)), u_coord(-b, 0, 0, 0, 0)),
    ]


def _imi(A, io=None):
    """iota m(A) iota^-1 = m(det(A)^-1 [[a, -b], [-c, d]]); io replaces iota
    in the bad-Weyl control."""
    io = iota() if io is None else io
    a, b, c, d = A.entries()
    dt = A.det()
    return [(None, io * levi_m(A) * io.inverse(), levi_m(mat2(a / dt, -b / dt, -c / dt, d / dt)))]


def _pairing(A, w, x):
    d3 = A.det() ** 3
    return [
        ("rho3-adjoint", symplectic(rho3(A, w), x), symplectic(w, [d3 * t for t in rho3(A.inverse(), x)])),
        ("coad-adjoint", symplectic(coad_w(A, w), x), symplectic(w, ad_w(A, x))),
    ]


@cache
def _unit_bases():
    """n1(e_i) for the five unit vectors e_i, u~1(e_j) for the three and
    z(e_k) for the two: the draw-independent operands of the modulus
    checks, built once per process."""

    def units(n):
        return [tuple(int(i == j) for i in range(n)) for j in range(n)]

    return (
        tuple(heis_n1(*e) for e in units(5)),
        tuple(u_tilde1(*e) for e in units(3)),
        tuple(z_coord(*e) for e in units(2)),
    )


def _modulus_p(A):
    m = levi_m(A)
    mi = m.inverse()
    n1_basis = _unit_bases()[0]
    return [(None, Matrix5([n1_coords(m * (n * mi)) for n in n1_basis]).det(), A.det() ** 3)]


def _modulus_q(A):
    el = levi_l(A)
    eli = el.inverse()
    _, u_basis, z_basis = _unit_bases()
    cols = []
    for u in u_basis:
        c1, c2, c3, c4, cz = u_coords(el * (u * eli))
        cols.append((c1, c2, c3 - c1 * c2, c4, cz))
    for z in z_basis:
        cols.append(u_coords(el * (z * eli)))
    return [(None, Matrix5(cols).det(), A.det() ** 5)]


def _torus(root, t, s):
    return [
        ("h(1)", torus(root, 1), identity()),
        ("h(t)h(s)", torus(root, t) * torus(root, s), torus(root, t * s)),
    ]


def _closure(word):
    """Random generator words stay inside the orthogonal group."""
    g = prod((root_generator(gam, u) for gam, u in word), start=identity())
    return [(None, preserves_form(g.matrix), True)]


def _word(rng):
    n = rng.randint(2, 6)
    return {"word": [(rng.choice(ALL_ROOTS), Fraction(rng.randint(-20, 20), rng.randint(1, 20))) for _ in range(n)]}


def _weyl_levi():
    # The displayed beta representative is the inverse of w_beta(1); both
    # are recorded so a silent convention drift gets caught here.
    return [
        ("w_alpha", weyl(RootLabel("a")), levi_m(mat2(0, -1, 1, 0))),
        ("w_beta", weyl(RootLabel("b")), levi_l(mat2(0, 1, -1, 0)).inverse()),
    ]


# name -> (sampler or None, sides); each sampler makes its draws in this order
IDENTITIES: dict[str, tuple] = {
    "heisen1": (lambda r: {"a": _rats(r, 5), "b": _rats(r, 5)}, _heisen1),
    "heisen2": (lambda r: {"a": _rats(r, 5), "b": _rats(r, 5)}, _heisen2),
    "heisen3": (lambda r: {"a": _rats(r, 3), "b": _rats(r, 3)}, _heisen3),
    "heisen4": (lambda r: {"a": _rats(r, 3), "b": _rats(r, 3)}, _heisen4),
    "action1": (lambda r: {"A": _rand_mat2(r), "a": _rats(r, 4), "z": _rand_rat(r)}, _action1),
    "action_tilde_u": (lambda r: {"A": _rand_mat2(r), "v": _rats(r, 3)}, _action_tilde_u),
    "action_z": (lambda r: {"A": _rand_mat2(r), "x": _rand_rat(r), "y": _rand_rat(r)}, _action_z),
    "ml": (lambda r: {"a": _nonzero(r), "d": _nonzero(r), "b": _rand_rat(r)}, _ml),
    "imi": (lambda r: {"A": _rand_mat2(r)}, _imi),
    "pairing": (lambda r: {"A": _rand_mat2(r), "w": _rats(r, 4), "x": _rats(r, 4)}, _pairing),
    "q_covariance_det6": (
        lambda r: {"A": _rand_mat2(r), "w": _rats(r, 4)},
        lambda A, w: [(None, quartic_q(rho3(A, w)), A.det() ** 6 * quartic_q(w))],
    ),
    "modulus_det3_P": (lambda r: {"A": _rand_mat2(r)}, _modulus_p),
    "modulus_det5_Q": (lambda r: {"A": _rand_mat2(r)}, _modulus_q),
    "one_parameter": (
        lambda r: {"root": r.choice(ALL_ROOTS), "u": _rand_rat(r), "v": _rand_rat(r)},
        lambda root, u, v: [(None, root_generator(root, u) * root_generator(root, v), root_generator(root, u + v))],
    ),
    "torus_laws": (lambda r: {"root": r.choice(ALL_ROOTS), "t": _nonzero(r), "s": _nonzero(r)}, _torus),
    "generator_closure": (_word, _closure),
    "weyl_levi_values": (None, _weyl_levi),
}

CHECKS: dict[str, Callable] = {name: _check(*decl) for name, decl in IDENTITIES.items()}


def run_structure_suite(
    samples: int = 100,
    seed: int = 0,
    inject_bad_weyl: bool = False,
    include_timings: bool = False,
):
    """Run all identity checks; returns a JSON-ready report dict.

    The default report is bitwise-deterministic given (samples, seed);
    timing fields only appear when ``include_timings`` is set.
    ``inject_bad_weyl`` evaluates the imi declaration with a deliberately
    wrong iota word, so the failure path stays exercised end to end.
    """
    if samples < 1:
        raise BadInput("samples must be >= 1")
    checks = dict(CHECKS)
    if inject_bad_weyl:
        checks["imi"] = _check(IDENTITIES["imi"][0], partial(_imi, io=iota() * torus(RootLabel("a"), 2)))
    report = {
        "schema": 1,
        "command": "verify-structure",
        "samples": samples,
        "seed": seed,
        "checks": [],
        "passed": True,
    }
    t_start = time.perf_counter()
    for name in sorted(checks):
        rng = random.Random((seed, name).__repr__())
        t0 = time.perf_counter()
        ce = checks[name](rng, samples)
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
