"""Command-line front end.

Subcommands wrap the library operations and emit versioned JSON (schema 1)
with exact rationals serialized as "num/den" strings.  Exit codes: 0 pass,
1 check failure or internal error, 2 usage error, 3 numeric-inconclusive.
``main`` prints a refusal with the error code and exit code its class
declares (``arith.Refusal``), and any other exception as INTERNAL_ERROR.
Python's int/str conversion limit guards input only (``check_digit_runs``);
``main`` lifts it while a command runs, as every output is polynomial in the input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial

from . import cubic, ktypes, lfunctions, modforms, shimura, structure
from .arith import BadInput, InputTooLarge, ParseError, Refusal, is_fundamental_discriminant
from .exact import check_digit_runs, int_str_limit, mat2, parse_rational
from .group import (
    GroupElement, RootLabel, heis_n, heis_n1, identity, iota, levi_l, levi_m, root_generator, torus, u_coord,
    weyl, z_coord,
)
from .lift import CentralVanishing, LiftContext

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 3

FORMS = {"delta": 12, **{f"eigen{k}": k for k in modforms.RATIONAL_EIGEN_WEIGHTS}}

# Work caps, checked in main before any work (INPUT_TOO_LARGE, exit 2): work
# grows with these values, so exponentially in their bit length.  Each comment
# names the slowest cold calls at its cap (the README gives their times):
MAX_PREC = 20000  # --prec, --prec-half, mf dump --prec: gross --form eigen20, mf dump --series eigen26
MAX_PLUS_K = 20  # k of mf dump --series plusK: plus20 at --prec 20000
MAX_SAMPLES = 1000  # verify-structure --samples 1000
MAX_KTYPES_N = 10000  # ktypes --n 10000
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


class FormUnsupported(BadInput):
    code = "FORM_UNSUPPORTED"


class BadWord(ParseError):
    code = "BAD_WORD"


class BadVector(ParseError):
    code = "BAD_VECTOR"


# show tokens: head -> (count of rationals, constructor); the heads x, w and h
# take a root label first, as in x:3a+b:3/4, w:a and h:2a+b:2
WORD_TOKENS = {
    "x": (1, root_generator), "w": (0, weyl), "h": (1, torus),
    "n": (5, heis_n), "n1": (5, heis_n1), "u": (5, u_coord), "z": (2, z_coord),
    "m": (4, lambda *a: levi_m(mat2(*a))), "l": (4, lambda *a: levi_l(mat2(*a))),
}


def _emit(payload):
    print(json.dumps(payload, sort_keys=True))


def _parse_w(text: str):
    with BadVector.reading("zero denominator in w: {}"):
        parts = [parse_rational(p.strip()) for p in text.split(",")]
    if len(parts) != 4:
        raise BadVector("w needs four comma-separated rationals")
    return tuple(parts)


def _parse_word(text: str) -> GroupElement:
    out = identity()
    for token in text.split("*"):
        token = token.strip()
        if token == "iota":
            out = out * iota()
            continue
        head, _, rest = token.partition(":")
        labels = []
        if head in ("x", "w", "h"):
            root, _, rest = rest.partition(":")
            labels = [RootLabel(root)]
        with BadWord.reading():
            args = [parse_rational(p) for p in rest.split(",")] if rest else []
        arity, build = WORD_TOKENS.get(head, (None, None))
        if len(args) != arity:
            raise BadWord(f"unrecognized token {token!r}")
        out = out * build(*labels, *args)
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
    print(_parse_word(args.word).dump())
    return EXIT_PASS


def cmd_reduce(args) -> int:
    _emit(cubic.reduction_json(_parse_w(args.w)))
    return EXIT_PASS


def _lifted_form(name: str) -> int:
    """2k of a form the lift and the central values support: k must be even."""
    two_k = FORMS.get(name)
    if two_k is None or two_k % 4 != 0:
        raise FormUnsupported(f"unknown or unsupported form {name!r}")
    return two_k


def _lift_context(args) -> LiftContext:
    return LiftContext(_lifted_form(args.form), prec_int=args.prec, prec_half=args.prec_half)


def cmd_coeff(args) -> int:
    ctx = _lift_context(args)
    _emit(ctx.fourier_coefficient(_parse_w(args.w)).as_json())
    return EXIT_PASS


def cmd_gross(args) -> int:
    if not math.isfinite(args.spread_tol):
        raise BadInput("spread-tol must be finite")
    ctx = _lift_context(args)
    with ParseError.reading():
        discs = sorted(int(check_digit_runs(d)) for d in args.discs.split(","))
    if len(set(discs)) < len(discs):  # a repeat is one point counted twice
        raise BadInput("repeated discriminant in --discs")
    for D in discs:  # constancy is predicted at fundamental D only (Kohnen-Zagier)
        if D >= 1:
            ctx.g.coeff(D)  # refuses a D beyond the plus form's precision before factoring it
        if not is_fundamental_discriminant(D):
            raise BadInput(f"D = {D} is not a positive fundamental discriminant")
    rows, ratios = [], []
    for D in discs:
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
    _emit({"schema": 1, "form": args.form, "rows": rows, "relative_spread": spread,
           "spread_tol": args.spread_tol, "passed": passed})
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_lfunc(args) -> int:
    f = modforms.eigenform(_lifted_form(args.form), args.prec)
    val = lfunctions.central_twisted_value(f, args.disc, args.tol)
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
        if args.series.startswith("plus") and k.isdecimal() and int(check_digit_runs(k)) > MAX_PLUS_K:
            raise InputTooLarge(f"plus-space weight {k} exceeds the cap {MAX_PLUS_K}")
        raise FormUnsupported(f"unknown or unsupported series {args.series!r}")
    sys.stdout.write(build(args.prec).dump())
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
    p.set_defaults(func=cmd_gross)

    p = sub.add_parser("lfunc", help="numeric central values")
    lf = p.add_subparsers(dest="lfunc_action", required=True)
    q = lf.add_parser("value")
    q.add_argument("--form", default="delta")
    q.add_argument("--disc", type=int, default=1)
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--prec", type=int, default=2000)
    q.set_defaults(func=cmd_lfunc)

    p = sub.add_parser("mf", help="dump exact q-expansions")
    mf = p.add_subparsers(dest="mf_action", required=True)
    q = mf.add_parser("dump")
    q.add_argument("--series", default="delta", help="e4 e6 delta eigenNN theta f2 plusK")
    q.add_argument("--prec", type=int, default=100)
    q.set_defaults(func=cmd_mf_dump)

    p = sub.add_parser("ktypes", help="symmetric-power decomposition table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_ktypes)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = int_str_limit()
    try:
        try:
            for name, cap in CAPS.items():
                value = getattr(args, name, 0)
                if value > cap:
                    raise InputTooLarge(f"--{name.replace('_', '-')} {value} exceeds the cap {cap}")
            if limit:
                sys.set_int_max_str_digits(0)
            code = args.func(args)
        except Refusal as exc:
            _emit({"schema": 1, "error": exc.code, "message": str(exc)})
            code = exc.exit_code
        except BrokenPipeError:
            raise
        except Exception as exc:  # a fault of the program, never the input's
            _emit({"schema": 1, "error": "INTERNAL_ERROR", "message": f"{type(exc).__name__}: {exc}"})
            code = EXIT_FAIL
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the SIGPIPE recipe of Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
