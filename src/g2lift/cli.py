"""Command-line front end.

Subcommands wrap the library operations and emit versioned JSON (schema 1)
with exact rationals serialized as "num/den" strings.  Exit codes:
0 pass, 1 check failure, 2 usage error, 3 numeric-inconclusive; ``main``
maps every refusal to its error code and exit code through ``REFUSALS``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

from . import arith, cubic, ktypes, lfunctions, modforms, shimura, structure
from .exact import mat2, parse_rational
from .group import (
    GroupElement,
    RootLabel,
    heis_n,
    heis_n1,
    identity,
    iota,
    levi_l,
    levi_m,
    root_generator,
    torus,
    u_coord,
    weyl,
    z_coord,
)
from .lift import CentralVanishing, LiftContext

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FORMS = {"delta": 12, "eigen12": 12, "eigen16": 16, "eigen18": 18, "eigen20": 20, "eigen22": 22, "eigen26": 26}

# Work caps, checked in main before any work (INPUT_TOO_LARGE, exit 2): work
# grows with these values, so exponentially in their bit length.  Slowest
# cold call at each cap (Python 3.11.7, 2-vCPU Xeon):
MAX_PREC = 20000  # --prec, --prec-half, mf dump --prec: mf dump --series plus20, 1.2 s
MAX_PLUS_K = 20  # k of mf dump --series plusK: the same 3.0 s (nine bracket products)
MAX_SAMPLES = 1000  # verify-structure --samples: 13 s cold
MAX_KTYPES_N = 10000  # ktypes --n: 0.2 s
CAPS = {"prec": MAX_PREC, "prec_half": MAX_PREC, "samples": MAX_SAMPLES, "n": MAX_KTYPES_N}

# mf dump --series name -> builder(prec)
SERIES = {
    "e4": partial(modforms.eisenstein, 4),
    "e6": partial(modforms.eisenstein, 6),
    "delta": partial(modforms.eigenform, 12),
    "theta": shimura.theta_half,
    "f2": shimura.weight2_F,
    **{f"eigen{k}": partial(modforms.eigenform, k) for k in modforms.RATIONAL_EIGEN_WEIGHTS},
    **{f"plus{k}": lambda prec, k=k: shimura.plus_cusp_basis(k, prec)[0] for k in range(6, MAX_PLUS_K + 1, 2)},
}


class Refusal(Exception):
    """A bad input, tagged at its parse site with the error code to report."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# The one map from an exception to (error code, exit code), used by main;
# the first row that matches wins, so subclasses come before ValueError.
REFUSALS = (
    (Refusal, None, EXIT_USAGE),  # the code was tagged at the parse site
    (lfunctions.SeriesInstability, "SERIES_INSTABILITY", EXIT_INCONCLUSIVE),
    (cubic.CubicFieldOrbitUnsupported, "CUBIC_FIELD_ORBIT", EXIT_USAGE),
    (arith.InputTooLarge, "INPUT_TOO_LARGE", EXIT_USAGE),
    (ValueError, "BAD_INPUT", EXIT_USAGE),
)


@contextmanager
def _refuse_as(code: str, *kinds):
    """Report an error of one of kinds, raised in the block, as code."""
    try:
        yield
    except kinds as exc:
        raise Refusal(code, str(exc)) from exc


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _parse_w(text: str):
    try:
        parts = [parse_rational(p.strip()) for p in text.split(",")]
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in w: {exc}") from exc
    if len(parts) != 4:
        raise ValueError("w needs four comma-separated rationals")
    return tuple(parts)


def _parse_word(text: str) -> GroupElement:
    out = identity()
    for token in text.split("*"):
        token = token.strip()
        if token == "iota":
            out = out * iota()
            continue
        head, _, rest = token.partition(":")
        if head == "x":
            root, _, u = rest.partition(":")
            out = out * root_generator(RootLabel(root), parse_rational(u))
            continue
        if head == "w":
            out = out * weyl(RootLabel(rest))
            continue
        if head == "h":
            root, _, t = rest.partition(":")
            out = out * torus(RootLabel(root), parse_rational(t))
            continue
        args = [parse_rational(p) for p in rest.split(",")] if rest else []
        if head == "n" and len(args) == 5:
            out = out * heis_n(*args)
        elif head == "n1" and len(args) == 5:
            out = out * heis_n1(*args)
        elif head == "u" and len(args) == 5:
            out = out * u_coord(*args)
        elif head == "z" and len(args) == 2:
            out = out * z_coord(*args)
        elif head == "m" and len(args) == 4:
            out = out * levi_m(mat2(*args))
        elif head == "l" and len(args) == 4:
            out = out * levi_l(mat2(*args))
        else:
            raise ValueError(f"unrecognized token {token!r}")
    return out


def cmd_verify_structure(args) -> int:
    report = structure.run_structure_suite(
        samples=args.samples,
        seed=args.seed,
        inject_bad_weyl=args.inject_bad_weyl,
        include_timings=args.timings,
    )
    _emit(report)
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_show(args) -> int:
    with _refuse_as("BAD_WORD", ValueError, ZeroDivisionError):
        el = _parse_word(args.word)
    print(el.dump())
    return EXIT_PASS


def cmd_reduce(args) -> int:
    with _refuse_as("BAD_VECTOR", ValueError):
        w = _parse_w(args.w)
    payload = cubic.reduction_json(w)
    payload["schema"] = 1
    _emit(payload)
    return EXIT_PASS


def _lifted_form(name: str) -> int:
    """2k of a form the lift and the central values support: k must be even."""
    two_k = FORMS.get(name)
    if two_k is None or two_k % 4 != 0:
        raise Refusal("FORM_UNSUPPORTED", f"unknown or unsupported form {name!r}")
    return two_k


def _lift_context(args) -> LiftContext:
    return LiftContext(_lifted_form(args.form), prec_int=args.prec, prec_half=args.prec_half)


def cmd_coeff(args) -> int:
    ctx = _lift_context(args)
    _emit(ctx.fourier_coefficient(_parse_w(args.w)).as_json())
    return EXIT_PASS


def cmd_gross(args) -> int:
    if not math.isfinite(args.spread_tol):
        raise ValueError("spread-tol must be finite")
    ctx = _lift_context(args)
    discs = sorted(int(d) for d in args.discs.split(","))
    if len(set(discs)) < len(discs):  # a repeat is one point counted twice
        raise ValueError("repeated discriminant in --discs")
    rows = []
    ratios = []
    for D in discs:
        if D % 4 in (2, 3):  # c(D) = 0, so the ratio is 0 and the relative spread undefined
            raise ValueError(f"D = {D} is 2 or 3 mod 4, not a discriminant")
        w = (Fraction(-D), Fraction(0), Fraction(1, 3), Fraction(0))
        try:
            r = ctx.gross_ratio(w, tol=args.tol)
        except CentralVanishing:
            rows.append({"D": D, "status": "central-vanishing"})
            continue
        ratios.append(r)
        rows.append({"D": D, "ratio": r, "c": str(ctx.g.coeff(D)), "status": "ok"})
    if len(ratios) < 2:
        _emit({"schema": 1, "error": "TOO_FEW_POINTS", "rows": rows})
        return EXIT_INCONCLUSIVE
    spread = (max(ratios) - min(ratios)) / abs(min(ratios))
    passed = spread < args.spread_tol
    payload = {
        "schema": 1,
        "form": args.form,
        "rows": rows,
        "relative_spread": spread,
        "spread_tol": args.spread_tol,
        "passed": passed,
    }
    if args.csv:
        print("D,ratio,status")
        for r in rows:
            print(f"{r['D']},{r.get('ratio', '')},{r['status']}")
    else:
        _emit(payload)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_lfunc(args) -> int:
    f = modforms.eigenform(_lifted_form(args.form), args.prec)
    val = lfunctions.central_twisted_value(f, args.disc, args.tol, ext_float=args.ext_float)
    _emit(
        {
            "schema": 1,
            "form": args.form,
            "disc": args.disc,
            "value": val.value,
            "error": val.abs_error_bound,
            "terms": val.terms_used,
        }
    )
    return EXIT_PASS


def cmd_mf_dump(args) -> int:
    build = SERIES.get(args.series)
    if build is None:
        k = args.series.removeprefix("plus")
        if args.series.startswith("plus") and k.isdecimal() and int(k) > MAX_PLUS_K:
            raise arith.InputTooLarge(f"plus-space weight {k} exceeds the cap {MAX_PLUS_K}")
        raise Refusal("FORM_UNSUPPORTED", f"unknown or unsupported series {args.series!r}")
    series = build(args.prec)
    text = series.dump()
    if args.out:
        with _refuse_as("BAD_INPUT", OSError), open(args.out, "w") as fh:
            fh.write(text)
        _emit({"schema": 1, "written": args.out, "precision": series.precision})
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_mf_load(args) -> int:
    with _refuse_as("BAD_CACHE_FILE", OSError, ValueError), open(args.file) as fh:
        series = modforms.QExpansion.load(fh.read())
    _emit(
        {
            "schema": 1,
            "weight": str(series.weight),
            "level": series.level,
            "precision": series.precision,
            "first_coeffs": [
                f"{c.numerator}/{c.denominator}" for c in map(series.coeff, range(min(8, series.precision)))
            ],
        }
    )
    return EXIT_PASS


def cmd_ktypes(args) -> int:
    dec = ktypes.plethysm_symn_sym3(args.n)
    payload = {
        "schema": 1,
        "n": args.n,
        "decomposition": {str(j): mult for j, mult in sorted(dec.items(), reverse=True)},
        "dimension": ktypes.decomposition_dimension(dec),
    }
    if args.k is not None:
        payload["ktype_dimension"] = ktypes.ktype_dimension(args.k, args.n)
    _emit(payload)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="g2lift",
        description="Exact split G2, cubic forms, the half-integral pipeline, and lift coefficients",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-structure", help="run the exact identity suite")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-bad-weyl", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--timings", action="store_true", help="include timing fields (breaks byte determinism)")
    p.set_defaults(func=cmd_verify_structure)

    p = sub.add_parser("show", help="print a group element as an exact 7x7 grid")
    p.add_argument("word", help="tokens joined by '*', e.g. 'x:b:1*w:a*m:1,2,0,1'")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("reduce", help="reduce a vector to the shape (t, 0, S/3, 0)")
    p.add_argument("--w", required=True, help="four rationals, e.g. '-5,0,1/3,0'")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("coeff", help="lift coefficient record at w")
    p.add_argument("--form", default="delta")
    p.add_argument("--w", required=True)
    p.add_argument("--prec", type=int, default=2000)
    p.add_argument("--prec-half", type=int, default=600)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("gross", help="ratio-constancy experiment over discriminants")
    p.add_argument("--form", default="delta")
    p.add_argument("--discs", default="5,8,12,13,17")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--spread-tol", type=float, default=1e-4)
    p.add_argument("--prec", type=int, default=2000)
    p.add_argument("--prec-half", type=int, default=600)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_gross)

    p = sub.add_parser("lfunc", help="numeric central values")
    lf = p.add_subparsers(dest="lfunc_action", required=True)
    q = lf.add_parser("value")
    q.add_argument("--form", default="delta")
    q.add_argument("--disc", type=int, default=1)
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--prec", type=int, default=2000)
    q.add_argument("--ext-float", action="store_true")
    q.set_defaults(func=cmd_lfunc)

    p = sub.add_parser("mf", help="dump/load exact q-expansion cache files")
    mf = p.add_subparsers(dest="mf_action", required=True)
    q = mf.add_parser("dump")
    q.add_argument("--series", default="delta", help="e4 e6 delta eigenNN theta f2 plusK")
    q.add_argument("--prec", type=int, default=100)
    q.add_argument("--out")
    q.set_defaults(func=cmd_mf_dump)
    q = mf.add_parser("load")
    q.add_argument("file")
    q.set_defaults(func=cmd_mf_load)

    p = sub.add_parser("ktypes", help="symmetric-power decomposition table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_ktypes)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, cap in CAPS.items():
            value = getattr(args, name, 0)
            if value > cap:
                raise arith.InputTooLarge(f"--{name.replace('_', '-')} {value} exceeds the cap {cap}")
        return args.func(args)
    except tuple(kind for kind, _, _ in REFUSALS) as exc:
        code, exit_code = next((code, exit_code) for kind, code, exit_code in REFUSALS if isinstance(exc, kind))
        _emit({"schema": 1, "error": code or exc.code, "message": str(exc)})
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
