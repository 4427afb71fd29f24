"""Command-line front end.

Subcommands wrap the library operations and emit versioned JSON (schema 1)
with exact rationals serialized as "num/den" strings.  Exit codes:
0 pass, 1 check failure, 2 usage error, 3 numeric-inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import cubic, ktypes, lfunctions, modforms, shimura, structure
from .exact import mat2
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

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FORMS = {"delta": 12, "eigen12": 12, "eigen16": 16, "eigen18": 18, "eigen20": 20, "eigen22": 22, "eigen26": 26}


def _emit(payload, csv_rows=None, csv=False):
    if csv and csv_rows is not None:
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:
        print(json.dumps(payload, sort_keys=True))


def _usage_error(code: str, message: str) -> int:
    print(json.dumps({"schema": 1, "error": code, "message": message}, sort_keys=True))
    return EXIT_USAGE


def _parse_w(text: str):
    parts = [Fraction(p.strip()) for p in text.split(",")]
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
            out = out * root_generator(RootLabel(root), Fraction(u))
            continue
        if head == "w":
            out = out * weyl(RootLabel(rest))
            continue
        if head == "h":
            root, _, t = rest.partition(":")
            out = out * torus(RootLabel(root), Fraction(t))
            continue
        args = [Fraction(p) for p in rest.split(",")] if rest else []
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
    try:
        el = _parse_word(args.word)
    except (ValueError, ZeroDivisionError) as exc:
        return _usage_error("BAD_WORD", str(exc))
    print(el.dump())
    return EXIT_PASS


def cmd_reduce(args) -> int:
    try:
        w = _parse_w(args.w)
    except ValueError as exc:
        return _usage_error("BAD_VECTOR", str(exc))
    try:
        payload = cubic.reduction_json(w)
    except cubic.CubicFieldOrbitUnsupported:
        return _usage_error("CUBIC_FIELD_ORBIT", "cubic-field orbit unsupported")
    except (ValueError, cubic.NonEtaleInput) as exc:
        return _usage_error("BAD_INPUT", str(exc))
    payload["schema"] = 1
    _emit(payload)
    return EXIT_PASS


def _lift_context(form: str, prec: int, prec_half: int):
    from .lift import LiftContext

    two_k = FORMS.get(form)
    if two_k is None or two_k % 4 != 0:
        return None
    return LiftContext(two_k, prec_int=prec, prec_half=prec_half)


def cmd_coeff(args) -> int:
    ctx = _lift_context(args.form, args.prec, args.prec_half)
    if ctx is None:
        return _usage_error("FORM_UNSUPPORTED", f"unknown or unsupported form {args.form!r}")
    from .lift import UnsupportedLatticeIndex

    try:
        w = _parse_w(args.w)
        rec = ctx.fourier_coefficient(w)
    except cubic.CubicFieldOrbitUnsupported:
        return _usage_error("CUBIC_FIELD_ORBIT", "cubic-field orbit unsupported")
    except UnsupportedLatticeIndex as exc:
        return _usage_error("BAD_INDEX", str(exc))
    except ValueError as exc:
        return _usage_error("BAD_INPUT", str(exc))
    _emit(rec.as_json())
    return EXIT_PASS


def cmd_gross(args) -> int:
    ctx = _lift_context(args.form, args.prec, args.prec_half)
    if ctx is None:
        return _usage_error("FORM_UNSUPPORTED", f"unknown or unsupported form {args.form!r}")
    from .lift import CentralVanishing

    discs = sorted(int(d) for d in args.discs.split(","))
    t0 = time.perf_counter()
    rows = []
    ratios = []
    for D in discs:
        w = (Fraction(-D), Fraction(0), Fraction(1, 3), Fraction(0))
        try:
            r = ctx.gross_ratio(w, tol=args.tol)
        except CentralVanishing:
            rows.append({"D": D, "status": "central-vanishing"})
            continue
        except lfunctions.SeriesInstability as exc:
            _emit({"schema": 1, "error": "SERIES_INSTABILITY", "message": str(exc)})
            return EXIT_INCONCLUSIVE
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
        "wall_time": round(time.perf_counter() - t0, 3),
    }
    csv_rows = [("D", "ratio", "status")] + [
        (r["D"], r.get("ratio", ""), r["status"]) for r in rows
    ]
    _emit(payload, csv_rows=csv_rows, csv=args.csv)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_lfunc(args) -> int:
    two_k = FORMS.get(args.form)
    if two_k is None:
        return _usage_error("FORM_UNSUPPORTED", f"unknown form {args.form!r}")
    f = modforms.eigenform(two_k, args.prec)
    try:
        val = lfunctions.central_twisted_value(f, args.disc, args.tol, ext_float=args.ext_float)
    except lfunctions.SeriesInstability as exc:
        _emit({"schema": 1, "error": "SERIES_INSTABILITY", "message": str(exc)})
        return EXIT_INCONCLUSIVE
    except ValueError as exc:
        return _usage_error("BAD_INPUT", str(exc))
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


def _series_by_name(name: str, prec: int):
    if name == "e4":
        return modforms.eisenstein(4, prec)
    if name == "e6":
        return modforms.eisenstein(6, prec)
    if name in ("delta", "eigen12"):
        return modforms.eigenform(12, prec)
    if name.startswith("eigen"):
        return modforms.eigenform(int(name[5:]), prec)
    if name == "theta":
        return shimura.theta_half(prec)
    if name == "f2":
        return shimura.weight2_F(prec)
    if name.startswith("plus"):
        return shimura.plus_cusp_basis(int(name[4:]), prec)[0]
    raise KeyError(name)


def cmd_mf(args) -> int:
    if args.mf_action == "dump":
        try:
            series = _series_by_name(args.series, args.prec)
        except (KeyError, modforms.NonRationalEigenspace):
            return _usage_error("FORM_UNSUPPORTED", f"unknown series {args.series!r}")
        text = series.dump()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            _emit({"schema": 1, "written": args.out, "precision": series.precision})
        else:
            sys.stdout.write(text)
        return EXIT_PASS
    # load
    try:
        with open(args.file) as fh:
            series = modforms.QExpansion.load(fh.read())
    except (OSError, ValueError) as exc:
        return _usage_error("BAD_CACHE_FILE", str(exc))
    w = series.weight
    _emit(
        {
            "schema": 1,
            "weight": f"{w.numerator}/{w.denominator}" if w.denominator != 1 else str(w.numerator),
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
    q.set_defaults(func=cmd_mf)
    q = mf.add_parser("load")
    q.add_argument("file")
    q.set_defaults(func=cmd_mf)

    p = sub.add_parser("ktypes", help="symmetric-power decomposition table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_ktypes)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
