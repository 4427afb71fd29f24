import contextlib
import hashlib
import io
import json
import pathlib
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2lift import cli, lfunctions, lift
from g2lift.arith import Refusal
from g2lift.cli import main
from g2lift.exact import mat2
from g2lift.group import (
    RootLabel, heis_n, heis_n1, iota, levi_l, levi_m, root_generator, torus, u_coord, weyl, z_coord,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_structure_small(capsys):
    code, out = run_cli(capsys, "verify-structure", "--samples", "3", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1 and report["passed"]


def test_verify_structure_deterministic(capsys):
    _, out1 = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "5")
    _, out2 = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "5")
    assert out1 == out2  # bytewise-identical JSON


def test_verify_structure_timings(capsys):
    """--timings adds seconds to every check and a wall_time; the default
    report has neither."""
    _, out = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "5", "--timings")
    report = json.loads(out)
    assert report["passed"] and report["wall_time"] >= 0
    assert all(c["seconds"] >= 0 for c in report["checks"])
    _, out = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "5")
    report = json.loads(out)
    assert "wall_time" not in report
    assert not any("seconds" in c for c in report["checks"])


def test_verify_structure_injected_failure(capsys):
    code, out = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "0", "--inject-bad-weyl")
    assert code == 1
    report = json.loads(out)
    bad = next(c for c in report["checks"] if c["status"] == "fail")
    assert "counterexample" in bad


def test_show_word(capsys):
    code, out = run_cli(capsys, "show", "n:1,0,0,0,0")
    assert code == 0
    assert out.splitlines()[2].split() == ["0", "0", "1", "0", "0", "1", "0"]


def test_show_bad_word(capsys):
    code, out = run_cli(capsys, "show", "frobnicate:1")
    assert code == 2
    assert json.loads(out)["error"] == "BAD_WORD"


def test_coeff_identity(capsys):
    code, out = run_cli(capsys, "coeff", "--form", "delta", "--w", " -1,0,1/3,0",
                        "--prec", "300", "--prec-half", "100")
    assert code == 0
    rec = json.loads(out)
    assert rec["phase"]["re"] == pytest.approx(1.0)
    assert rec["c_value"] == "1"


def test_coeff_unknown_form(capsys):
    code, out = run_cli(capsys, "coeff", "--form", "nope", "--w", " -1,0,1/3,0")
    assert code == 2
    assert json.loads(out)["error"] == "FORM_UNSUPPORTED"


def test_coeff_cubic_field_orbit(capsys):
    code, out = run_cli(capsys, "coeff", "--form", "delta", "--w", "1,0,-1,1",
                        "--prec", "300", "--prec-half", "100")
    assert code == 2
    assert json.loads(out)["error"] == "CUBIC_FIELD_ORBIT"


def test_reduce_record(capsys):
    code, out = run_cli(capsys, "reduce", "--w", " -5,0,1/3,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["t"] == "-5" and rec["S"] == "1"


def test_gross_passes(capsys):
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5,8,13",
                        "--tol", "1e-9", "--prec", "900", "--prec-half", "100")
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] and rec["relative_spread"] < 1e-4


def test_lfunc_value(capsys):
    code, out = run_cli(capsys, "lfunc", "value", "--form", "delta", "--disc", "1",
                        "--tol", "1e-10", "--prec", "600")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.7921228386460305, abs=1e-9)
    assert rec["error"] < 1e-10


def test_mf_dump_half_integral_header(capsys):
    code, out = run_cli(capsys, "mf", "dump", "--series", "theta", "--prec", "6")
    assert code == 0
    assert out.splitlines()[0] == "1/2 4 6"


@pytest.mark.parametrize("series", ["plus7", "plusx", "plus4", "eigenx", "eigen13"])
def test_mf_dump_unsupported_series(capsys, series):
    code, out = run_cli(capsys, "mf", "dump", "--series", series, "--prec", "100")
    assert code == 2
    assert json.loads(out)["error"] == "FORM_UNSUPPORTED"


@pytest.mark.parametrize("series,prec", [("e4", "1"), ("theta", "1"), ("delta", "0"), ("plus6", "40")])
def test_mf_dump_precision_below_minimum(capsys, series, prec):
    code, out = run_cli(capsys, "mf", "dump", "--series", series, "--prec", prec)
    assert code == 2
    assert json.loads(out)["error"] == "BAD_INPUT"


def test_ktypes_table(capsys):
    code, out = run_cli(capsys, "ktypes", "--n", "2", "--k", "6")
    assert code == 0
    rec = json.loads(out)
    assert rec["decomposition"] == {"6": 1, "2": 1}
    assert rec["dimension"] == 10
    assert rec["ktype_dimension"] == 150


def test_usage_error_exit_code():
    """A missing required option and the retired mf load, lfunc value
    --ext-float, gross --csv and mf dump --out end in argparse's usage error."""
    for argv in (["coeff"], ["mf", "load", "f.mf"], ["lfunc", "value", "--ext-float"], ["gross", "--csv"],
                 ["mf", "dump", "--out", "x.mf"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def assert_refused(out, error):
    """The output is one error object with the given code, valid against
    the shipped error schema."""
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    rec = json.loads(out)
    assert rec["error"] == error
    schema = pathlib.Path(__file__).parent.parent / "docs" / "schemas" / "error.schema.json"
    jsonschema.validate(rec, json.loads(schema.read_text()))


SEMIPRIME_W = f"--w={-(1000000007 * 2147483647 - 9) // 4},1,1/3,0"  # disc 1000000007 * 2147483647
COFACTOR_121_BIT_DISC = str(10**45 + 57)  # a 121-bit cofactor beyond bounded factoring


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("reduce", SEMIPRIME_W), id="reduce"),
        pytest.param(("coeff", SEMIPRIME_W), id="coeff"),
        pytest.param(("lfunc", "value", "--disc", COFACTOR_121_BIT_DISC), id="lfunc"),
    ],
)
def test_unfactorable_input_refused(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, "INPUT_TOO_LARGE")


@pytest.mark.parametrize(
    "argv",
    [
        ("coeff", "--form", "delta", "--w=-5,0,1/3,0", "--prec", "1"),
        ("coeff", "--form", "delta", "--w=-5,0,1/3,0", "--prec", "1", "--prec-half", "10"),
        ("coeff", "--form", "delta", "--w=-5,0,1/3,0", "--prec-half", "10"),
        ("gross", "--form", "delta", "--discs", "5,8,13", "--prec", "1"),
        ("lfunc", "value", "--form", "delta", "--disc", "5", "--prec", "1"),
    ],
    ids=["coeff", "coeff-prec-half", "coeff-only-prec-half", "gross", "lfunc"],
)
def test_precision_below_minimum_refused(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, "BAD_INPUT")


def test_lfunc_huge_disc_refused_quickly(capsys):
    """A fundamental disc whose series cutoff far exceeds the precision is
    refused from the cutoff alone, found in O(log D) steps."""
    import signal

    def deadline(signum, frame):
        raise TimeoutError("lfunc value did not refuse within 0.5 s")

    old = signal.signal(signal.SIGALRM, deadline)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        code, out = run_cli(capsys, "lfunc", "value", "--form", "delta", "--disc", "1000000000001")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code == 2
    assert_refused(out, "BAD_INPUT")


@pytest.mark.parametrize("discs", ["100000,200000", "5,x"])
def test_gross_bad_disc_is_usage_error(capsys, discs):
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", discs)
    assert code == 2
    assert json.loads(out)["error"] == "BAD_INPUT"


def test_gross_central_vanishing_is_a_row(capsys, monkeypatch):
    """A vanishing central value is a result row, not a refusal: patched for
    D = 8, the way the recorded-output cases patch, it leaves two ratios."""
    real = lift.LiftContext.gross_ratio

    def gross_ratio(self, w, *args, **kwargs):
        if w[0] == -8:
            raise lift.CentralVanishing("central vanishing; ratio undefined")
        return real(self, w, *args, **kwargs)

    monkeypatch.setattr(lift.LiftContext, "gross_ratio", gross_ratio)
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5,8,13",
                        "--tol", "1e-9", "--prec", "900", "--prec-half", "100")
    assert code == 0
    rec = json.loads(out)
    assert rec["rows"][1] == {"D": 8, "status": "central-vanishing"}
    assert [r["status"] for r in rec["rows"]] == ["ok", "central-vanishing", "ok"]
    assert rec["passed"]


def test_gross_repeated_disc_is_usage_error(capsys):
    """One discriminant given twice is one point, not a spread of 0 from two."""
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5,5",
                        "--tol", "1e-8", "--prec", "900", "--prec-half", "100")
    assert code == 2
    assert_refused(out, "BAD_INPUT")


def test_gross_too_few_points_inconclusive(capsys):
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5",
                        "--tol", "1e-8", "--prec", "900", "--prec-half", "100")
    assert code == 3
    assert json.loads(out)["error"] == "TOO_FEW_POINTS"


def test_outputs_validate_against_shipped_schemas(capsys, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schemas = pathlib.Path(__file__).parent.parent / "docs" / "schemas"

    def load(name):
        return json.loads((schemas / name).read_text())

    _, out = run_cli(capsys, "verify-structure", "--samples", "2", "--seed", "1")
    jsonschema.validate(json.loads(out), load("run-report.schema.json"))

    _, out = run_cli(capsys, "coeff", "--form", "delta", "--w", " -5,0,1/3,0",
                     "--prec", "300", "--prec-half", "100")
    jsonschema.validate(json.loads(out), load("lift-coefficient.schema.json"))

    _, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5,8",
                     "--tol", "1e-8", "--prec", "900", "--prec-half", "100")
    jsonschema.validate(json.loads(out), load("gross-report.schema.json"))

    _, out = run_cli(capsys, "lfunc", "value", "--form", "delta", "--disc", "1",
                     "--tol", "1e-9", "--prec", "600")
    jsonschema.validate(json.loads(out), load("lfunc-value.schema.json"))

    _, out = run_cli(capsys, "reduce", "--w", " -5,0,1/3,0")
    jsonschema.validate(json.loads(out), load("reduce-record.schema.json"))

    for argv in (("ktypes", "--n", "5", "--k", "6"), ("ktypes", "--n", "0")):
        _, out = run_cli(capsys, *argv)
        jsonschema.validate(json.loads(out), load("ktypes.schema.json"))

    _, out = run_cli(capsys, "coeff", "--form", "bogus", "--w", " -5,0,1/3,0")
    jsonschema.validate(json.loads(out), load("error.schema.json"))


def test_ktypes_schema_refuses_malformed_tables(capsys):
    """The ktypes schema holds the table to digit-string weights with
    multiplicities >= 1 and to its four required keys."""
    jsonschema = pytest.importorskip("jsonschema")

    schema = json.loads((pathlib.Path(__file__).parent.parent / "docs" / "schemas" / "ktypes.schema.json").read_text())
    _, out = run_cli(capsys, "ktypes", "--n", "2", "--k", "6")
    rec = json.loads(out)
    jsonschema.validate(rec, schema)
    bad = [{**rec, "decomposition": {key: 1}} for key in ("x", "-1", "06", "")]
    bad += [{**rec, "decomposition": {"6": mult}} for mult in (0, -1, "1", 1.5)]
    bad += [{k: v for k, v in rec.items() if k != drop} for drop in ("schema", "n", "decomposition", "dimension")]
    for doc in bad:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


def test_show_singular_levi_is_bad_input(capsys):
    """The word parses; the library refuses the value, so the code is the
    library's, not the word format's."""
    code, out = run_cli(capsys, "show", "l:1,2,2,4")
    assert code == 2
    assert json.loads(out)["error"] == "BAD_INPUT"


def test_show_iota_token(capsys):
    code, out = run_cli(capsys, "show", "iota")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


_A = (F(1, 2), -3, F(2, 7), 5, -1)
SHOW_TOKENS = {
    "n1": ("n1:1/2,-3,2/7,5,-1", lambda: heis_n1(*_A)),
    "u": ("u:1/2,-3,2/7,5,-1", lambda: u_coord(*_A)),
    "z": ("z:2,3", lambda: z_coord(2, 3)),
    "m": ("m:1/2,-3,5,7", lambda: levi_m(mat2(F(1, 2), -3, 5, 7))),
    "l": ("l:1,2,3,5", lambda: levi_l(mat2(1, 2, 3, 5))),
    "h": ("h:2a+b:2", lambda: torus(RootLabel("2a+b"), 2)),
    "x": ("x:3a+b:3/4", lambda: root_generator(RootLabel("3a+b"), F(3, 4))),
    "w": ("w:a", lambda: weyl(RootLabel("a"))),
    "n": ("n:1/2,-3,2/7,5,-1", lambda: heis_n(*_A)),
    "iota": ("iota", iota),
}


@pytest.mark.parametrize("token", list(SHOW_TOKENS))
def test_show_token_matches_its_constructor(capsys, token):
    """Every show token prints its constructor's dump() at the same arguments."""
    word, build = SHOW_TOKENS[token]
    code, out = run_cli(capsys, "show", word)
    assert code == 0
    assert out == build().dump() + "\n"


# --- refusal codes from their classes, work caps, non-finite tolerances ------

RECORDED = json.loads((pathlib.Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def _raising(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


@pytest.mark.parametrize("case", RECORDED, ids=[c["id"] for c in RECORDED])
def test_output_matches_recording(capsys, monkeypatch, case):
    """stdout and exit code equal those recorded from the per-command
    handlers that the refusal classes replaced, byte for byte.  Four codes
    were recorded again: coeff's three-entry --w is BAD_VECTOR, as under
    reduce, and the three show words that parse but name a value the library
    refuses (a singular Levi, t = 0, an unknown root) are BAD_INPUT.
    lfunc shares the lift's form check, so its two form refusals, eigen14
    and the odd-k eigen18 (which answered SERIES_INSTABILITY before), were
    recorded again with the message coeff gives.  Real input does not
    reach SERIES_INSTABILITY, so its cases patch the library call to
    raise it.  The four long-input cases and the seven mf dump series at
    the precision cap keep the SHA-256 of their stdout (0.3 to 1 MB) in
    place of the text, still a byte-exact check; the cap series' products
    run on the libmpdec that each CPython release ships.  Five texts were
    recorded again when each refused condition kept one check: reduce-zero
    now has coeff's q(w) text, and four gross cases name the D that is not a
    positive fundamental discriminant.  gross-disc-beyond-precision was
    recorded again when gross came to read c(D) before factoring D: 100000
    is refused for precision, as it was before those four."""
    if case["patch"] == "series_instability":
        unstable = _raising(lfunctions.SeriesInstability("series instability: 1.0 vs 2.0"))
        monkeypatch.setattr(lfunctions, "central_twisted_value", unstable)
        monkeypatch.setattr(lift, "central_twisted_value", unstable)
    argv = case["argv"]
    code, out = run_cli(capsys, *argv)
    assert code == case["exit"]
    if "stdout_sha256" in case:
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    else:
        assert out == case["stdout"]


@pytest.mark.parametrize(
    "exc",
    [
        ValueError("Deligne bound violated; upstream eigenform is wrong"),
        AssertionError("reduction failed its 7x7 verification"),
        ZeroDivisionError("division by zero"),
    ],
    ids=["undeclared-value-error", "assertion", "zero-division"],
)
def test_internal_error_is_not_the_inputs(capsys, monkeypatch, exc):
    """An exception of no refusal class is a fault of the program: one
    INTERNAL_ERROR object and exit 1, never BAD_INPUT and never a traceback."""
    monkeypatch.setattr(lift, "mu_f", _raising(exc))
    code = main(["coeff", "--w=-5,0,1/3,0", "--prec", "300", "--prec-half", "100"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert_refused(out, "INTERNAL_ERROR")
    assert json.loads(out)["message"] == f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "argv,error",
    [
        (("gross", "--discs", "5,2", "--prec", "900", "--prec-half", "100"), "BAD_INPUT"),
        (("reduce", "--w=1/0,0,0,0"), "BAD_VECTOR"),
        (("coeff", "--w=1/0,0,0,0"), "BAD_VECTOR"),
        (("verify-structure", "--samples", "0"), "BAD_INPUT"),
        (("ktypes", "--n", "-1"), "BAD_INPUT"),
        (("ktypes", "--n", "2", "--k", "1"), "BAD_INPUT"),
    ],
    ids=["gross-disc-2-mod-4", "reduce-zero-denominator", "coeff-zero-denominator", "samples-0",
         "ktypes-n", "ktypes-k"],
)
def test_former_tracebacks_refused(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, error)


@pytest.mark.parametrize(
    "argv",
    [
        ("lfunc", "value", "--disc", "5", "--tol", "nan"),
        ("lfunc", "value", "--disc", "5", "--tol", "inf"),
        ("gross", "--discs", "5,8", "--tol", "nan", "--prec", "900", "--prec-half", "100"),
        ("gross", "--discs", "5,8", "--spread-tol", "nan", "--prec", "900", "--prec-half", "100"),
        ("gross", "--discs", "5,8", "--spread-tol", "inf", "--prec", "900", "--prec-half", "100"),
    ],
    ids=["lfunc-tol-nan", "lfunc-tol-inf", "gross-tol-nan", "gross-spread-tol-nan", "gross-spread-tol-inf"],
)
def test_non_finite_tolerance_refused(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, "BAD_INPUT")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("reduce", "--w=-5,0,1/3,0"), ("mf", "dump", "--series", "delta", "--prec", "5000"),
     ("reduce", "--w=0,0,0,0")],
    ids=["short-answer", "long-answer", "refusal"],
)
def test_closed_stdout_exits_1_in_silence(argv, unbuffered):
    """A reader that closed stdout before the answer was written (as
    ``| head`` does) gets exit 1 and nothing on stderr: no INTERNAL_ERROR
    written to the same closed pipe, no traceback, and no exit 120 from the
    flush at interpreter exit.  The long answer fills the write buffer, so
    it fails inside the command, the short one only at the final flush."""
    import os
    import subprocess

    import g2lift

    env = {"PYTHONPATH": str(pathlib.Path(g2lift.__file__).resolve().parents[1])}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "g2lift.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


class Deadline(BaseException):
    """Raised by the alarm; a BaseException, so no refusal handler takes it."""


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise Deadline(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


OVER_PREC = str(cli.MAX_PREC + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ("mf", "dump", "--series", "e4", "--prec", "30000000"),
        ("mf", "dump", "--series", "plus250", "--prec", "2000"),
        ("mf", "dump", "--series", f"plus{cli.MAX_PLUS_K + 2}", "--prec", "2000"),
        ("mf", "dump", "--series", "delta", "--prec", OVER_PREC),
        ("coeff", "--w=-5,0,1/3,0", "--prec", OVER_PREC),
        ("coeff", "--w=-5,0,1/3,0", "--prec-half", OVER_PREC),
        ("gross", "--prec-half", OVER_PREC),
        ("lfunc", "value", "--prec", OVER_PREC),
        ("verify-structure", "--samples", str(cli.MAX_SAMPLES + 1)),
        ("ktypes", "--n", str(cli.MAX_KTYPES_N + 1)),
    ],
    ids=["e4-hang", "plus250", "plus-over-cap", "mf-prec", "coeff-prec", "coeff-prec-half",
         "gross-prec-half", "lfunc-prec", "samples", "ktypes-n"],
)
def test_work_caps_refuse_before_the_work(capsys, argv):
    with deadline(0.5):
        code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, "INPUT_TOO_LARGE")


def test_gross_reads_c_before_factoring_d(capsys):
    """gross reads c(D) before it factors D, so a D beyond the plus form's
    precision is refused for that at once: a 4,300-digit D, the most the
    digit limit lets through, spent over a second in trial division to 2^20
    before its INPUT_TOO_LARGE."""
    with deadline(0.5):
        code, out = run_cli(capsys, "gross", "--discs", "5," + "1" * 4299 + "7")
    assert code == 2
    assert_refused(out, "BAD_INPUT")
    assert json.loads(out)["message"].endswith(" beyond precision 600")


@pytest.mark.parametrize(
    "argv,error",
    [
        (("reduce", "--w=1e10000000,0,1/3,0"), "BAD_VECTOR"),
        (("show", "x:a:1E10000000"), "BAD_WORD"),
        (("show", "n:1,0,1e-10000000,0,3"), "BAD_WORD"),
    ],
    ids=["reduce", "show-root", "show-heisenberg"],
)
def test_exponent_form_refused_before_expansion(capsys, argv, error):
    """Fraction would build 10^(10^7) in full, about 14 s, before refusing."""
    with deadline(0.5):
        code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, error)


INT_STR_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVERSIZED = "7" * (INT_STR_LIMIT + 700)


@pytest.mark.skipif(not INT_STR_LIMIT, reason="no int/str conversion limit")
@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", f"--w={OVERSIZED},0,1/3,0"),
        ("show", f"m:{OVERSIZED},0,0,1"),
        ("coeff", f"--w={OVERSIZED},0,1/3,0"),
        ("gross", f"--discs=5,{OVERSIZED}"),
        ("mf", "dump", "--series", f"plus{OVERSIZED}"),
    ],
    ids=["reduce", "show", "coeff", "gross", "mf-dump-plus"],
)
def test_oversized_literal_refused_in_the_programs_words(capsys, argv):
    """A digit run past Python's int/str limit is refused with the limit in
    digits, not with Python's advice to raise it, which a CLI user cannot."""
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert_refused(out, "INPUT_TOO_LARGE")
    message = json.loads(out)["message"]
    assert message == f"a {len(OVERSIZED)}-digit number exceeds the {INT_STR_LIMIT}-digit limit"


@pytest.mark.skipif(not INT_STR_LIMIT, reason="no int/str conversion limit")
def test_conversion_limit_is_lifted_only_while_a_command_runs(capsys, monkeypatch):
    """A command prints numbers past the limit, its input stays held to it,
    and the limit in force before main is back after it, on an answer and
    on a refusal alike."""
    limits = []
    real = cli.cubic.reduction_json
    monkeypatch.setattr(cli.cubic, "reduction_json", lambda w: limits.append(sys.get_int_max_str_digits()) or real(w))
    old = sys.get_int_max_str_digits()
    nines = "9" * (INT_STR_LIMIT // 4 + 5)  # q has degree 4 in the entries
    try:
        sys.set_int_max_str_digits(INT_STR_LIMIT)
        code, out = run_cli(capsys, "reduce", f"--w= -{nines},0,{nines}/3,0")
        assert code == 0 and len(json.loads(out)["q"]) > INT_STR_LIMIT
        assert limits == [0] and sys.get_int_max_str_digits() == INT_STR_LIMIT
        code, out = run_cli(capsys, "reduce", f"--w={OVERSIZED},0,1/3,0")
        assert code == 2
        assert_refused(out, "INPUT_TOO_LARGE")
        assert sys.get_int_max_str_digits() == INT_STR_LIMIT
    finally:
        sys.set_int_max_str_digits(old)


def test_precision_cap_reaches_the_ratio_table_precision():
    assert cli.MAX_PREC >= 20000


def test_only_format_parsers_convert_foreign_errors():
    """A refusal's code comes from its class, so no cmd_* catches an
    exception, except gross, whose CentralVanishing is a result row.  The
    only handlers of Python's own errors are ParseError.reading and main's
    INTERNAL_ERROR, and only the parsers of outside formats read under it:
    --w, show words and --discs.  It converts ValueError only, since no
    command opens a file.  main also takes BrokenPipeError, a closed stdout,
    past INTERNAL_ERROR to its outer handler."""
    import ast
    import importlib
    import inspect
    import pkgutil

    import g2lift

    caught, readers = {}, set()
    for info in pkgutil.iter_modules(g2lift.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"g2lift.{info.name}")))
        defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for name, fn in defs:
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler):
                    caught.setdefault(f"{info.name}.{name}", []).append(ast.unparse(node.type))
                elif isinstance(node, ast.Attribute) and node.attr == "reading":
                    readers.add(f"{info.name}.{name}")
    assert caught == {
        "arith.ParseError.reading": ["Refusal", "ZeroDivisionError", "ValueError"],
        "arith.fundamental_discriminant": ["SquarefreeCofactor"],
        "cubic.is_maximal": ["SquarefreeCofactor"],
        "cli.cmd_gross": ["CentralVanishing"],
        "cli.main": ["BrokenPipeError", "Refusal", "BrokenPipeError", "Exception"],
    }
    assert readers == {"cli._parse_w", "cli._parse_word", "cli.cmd_gross"}


def _refusal_classes(cls=Refusal):
    return [cls, *(sub for c in cls.__subclasses__() for sub in _refusal_classes(c))]


def test_refusal_classes_keep_their_library_bases():
    """Every declared class is still a ValueError or an ArithmeticError, so a
    library caller catches it as before, and its code is in the error schema."""
    schema = json.loads((pathlib.Path(__file__).parent.parent / "docs" / "schemas" / "error.schema.json").read_text())
    for cls in _refusal_classes()[1:]:
        assert issubclass(cls, (ValueError, ArithmeticError)), cls
        assert cls.code in schema["properties"]["error"]["enum"] and cls.exit_code in (2, 3), cls


def test_error_schema_lists_exactly_the_declared_codes():
    """The error enum is the refusal classes' codes and the two that no class
    declares, gross's TOO_FEW_POINTS and main's INTERNAL_ERROR: no entry
    outlives its class, and no class ships without its entry."""
    schema = json.loads((pathlib.Path(__file__).parent.parent / "docs" / "schemas" / "error.schema.json").read_text())
    declared = {cls.code for cls in _refusal_classes()} | {"TOO_FEW_POINTS", "INTERNAL_ERROR"}
    assert sorted(schema["properties"]["error"]["enum"]) == sorted(declared)
    assert schema["properties"]["schema"] == {"const": 1}


# --- fuzz gate ----------------------------------------------------------------

MALFORMED = st.sampled_from(["", " ", "x", "1/0", "-3/0", ",", "1,", ",1", "1,,2", "nan", "inf", "-inf", "1/", "/2",
                             "1e5", "-2E-3", "1.5e10000000", "1e10000000"])
_magnitude = st.integers(1, 256).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))  # exactly b bits
_integer = st.one_of(st.integers(-20, 20), st.tuples(st.booleans(), _magnitude).map(lambda t: -t[1] if t[0] else t[1]))
_rational = st.one_of(_integer.map(str), st.tuples(_integer, _magnitude).map(lambda t: f"{t[0]}/{t[1]}"))
_token = st.one_of(MALFORMED, _rational)
_float = st.one_of(st.sampled_from(["1e-10", "1e-8", "nan", "inf", "-inf", "1e-300", "1e300", "x", ""]), st.floats().map(repr))
_forms = st.sampled_from([*cli.FORMS, "nope", "eigen14", ""])
_w = st.one_of(
    st.sampled_from(["-5,0,1/3,0", "542,2437/3,3652/3,1824", "1,0,-1,1", SEMIPRIME_W[4:]]),
    st.lists(_token, max_size=5).map(",".join),
)
_root = st.sampled_from(["a", "b", "a+b", "2a+b", "3a+b", "3a+2b", "alpha", "-a", "q", ""])
_show_token = st.one_of(
    st.just("iota"),
    MALFORMED,
    st.builds("x:{}:{}".format, _root, _token),
    st.builds("w:{}".format, _root),
    st.builds("h:{}:{}".format, _root, _token),
    st.builds("{}:{}".format, st.sampled_from(["n", "n1", "u", "z", "m", "l", "q"]),
              st.lists(_token, min_size=1, max_size=6).map(",".join)),
)


def _capped(cap, small=2000):
    """Above the cap, or at most small; the draw from 0 up reaches answers more often."""
    return st.one_of(st.integers(cap + 1, 2**256), st.integers(max_value=small), st.integers(0, small))


_prec = st.one_of(st.sampled_from([100, 300, 600, 900]), _capped(cli.MAX_PREC))
_disc = st.one_of(st.sampled_from(["1", "5", "8", "13", "17"]), _token)
_series = st.one_of(
    st.sampled_from(["e4", "e6", "delta", "eigen12", "eigen16", "eigen26", "eigen13", "eigenx", "theta", "f2",
                     "plus6", "plus20", "plusx", "e8", ""]),
    _capped(cli.MAX_PLUS_K).map("plus{}".format),
)
# each sample runs all 17 structure checks, about 12-15 ms in-process; 8 samples take at most 115 ms
ARGV = st.one_of(
    st.tuples(st.just("verify-structure"), _capped(cli.MAX_SAMPLES, small=8).map("--samples={}".format),
              _integer.map("--seed={}".format)),
    st.lists(_show_token, min_size=1, max_size=4).map(lambda t: ("show", "*".join(t))),
    _w.map(lambda w: ("reduce", f"--w={w}")),
    st.builds(lambda *a: ("coeff", *a), _forms.map("--form={}".format), _w.map("--w={}".format),
              _prec.map("--prec={}".format), _prec.map("--prec-half={}".format)),
    # gross has no --csv: the draw keeps argparse's usage error in reach
    st.builds(lambda csv, *a: ("gross", *a) + (("--csv",) if csv else ()), st.booleans(),
              _forms.map("--form={}".format), st.lists(_disc, min_size=1, max_size=5).map(lambda t: "--discs=" + ",".join(t)),
              _float.map("--tol={}".format), _float.map("--spread-tol={}".format),
              _prec.map("--prec={}".format), _prec.map("--prec-half={}".format)),
    # lfunc value has no --ext-float: the draw keeps argparse's usage error in reach
    st.builds(lambda ext, *a: ("lfunc", "value", *a) + (("--ext-float",) if ext else ()), st.booleans(),
              _forms.map("--form={}".format), _disc.map("--disc={}".format), _float.map("--tol={}".format),
              _prec.map("--prec={}".format)),
    st.builds(lambda *a: ("mf", "dump", *a), _series.map("--series={}".format), _prec.map("--prec={}".format)),
    st.just(("mf", "load", "no/such/file.mf")),
    # --k is optional, so the table alone is drawn too
    st.builds(lambda n, k: ("ktypes", n, *k), _capped(cli.MAX_KTYPES_N).map("--n={}".format),
              st.one_of(st.just(()), _integer.map(lambda k: (f"--k={k}",)))),
)
DECLARED = {cls.code for cls in _refusal_classes()}
SCHEMAS = {"verify-structure": "run-report", "coeff": "lift-coefficient", "gross": "gross-report",
           "lfunc": "lfunc-value", "reduce": "reduce-record", "ktypes": "ktypes"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
def test_cli_fuzz(argv):
    """Every argv ends in an answer or a typed refusal: exit 0-3, no
    traceback, never INTERNAL_ERROR, every error code declared by a refusal
    class, and JSON valid against its shipped schema."""
    jsonschema = pytest.importorskip("jsonschema")
    schemas = pathlib.Path(__file__).parent.parent / "docs" / "schemas"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), deadline(10):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
            assert code == 2
            return
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert '"INTERNAL_ERROR"' not in out.getvalue()
    if code in (2, 3):
        assert json.loads(out.getvalue())["error"] in DECLARED | {"TOO_FEW_POINTS"}
        schema = "error"
    elif argv[0] in SCHEMAS:
        schema = SCHEMAS[argv[0]]
    else:
        return
    jsonschema.validate(json.loads(out.getvalue()), json.loads((schemas / f"{schema}.schema.json").read_text()))
