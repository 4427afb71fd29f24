import contextlib
import io
import json
import pathlib
import signal
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2lift import cli, lfunctions, lift
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


def test_gross_csv(capsys):
    code, out = run_cli(capsys, "gross", "--form", "delta", "--discs", "5,8",
                        "--tol", "1e-8", "--prec", "900", "--prec-half", "100", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,ratio,status"
    assert len(lines) == 3


def test_lfunc_value(capsys):
    code, out = run_cli(capsys, "lfunc", "value", "--form", "delta", "--disc", "1",
                        "--tol", "1e-10", "--prec", "600")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(0.7921228386460305, abs=1e-9)
    assert rec["error"] < 1e-10


def test_mf_dump_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "delta.mf"
    code, _ = run_cli(capsys, "mf", "dump", "--series", "delta", "--prec", "16", "--out", str(path))
    assert code == 0
    code, out = run_cli(capsys, "mf", "load", str(path))
    assert code == 0
    rec = json.loads(out)
    assert rec["weight"] == "12" and rec["precision"] == 16
    assert rec["first_coeffs"][1] == "1/1"


def test_mf_dump_half_integral_header(capsys):
    code, out = run_cli(capsys, "mf", "dump", "--series", "theta", "--prec", "6")
    assert code == 0
    assert out.splitlines()[0] == "1/2 4 6"


def test_mf_load_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.mf"
    path.write_text("12 1 5\n1/1\n")
    code, out = run_cli(capsys, "mf", "load", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "BAD_CACHE_FILE"


@pytest.mark.parametrize("text", ["", "\n\n", "12 1\n1/1\n", "1/0 1 1\n1/1\n", "12 1 1\n1/0\n"])
def test_mf_load_rejects_empty_or_malformed_header(tmp_path, capsys, text):
    path = tmp_path / "bad.mf"
    path.write_text(text)
    code, out = run_cli(capsys, "mf", "load", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "BAD_CACHE_FILE"


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
    with pytest.raises(SystemExit) as exc:
        main(["coeff"])  # missing required --w
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

    _, out = run_cli(capsys, "coeff", "--form", "bogus", "--w", " -5,0,1/3,0")
    jsonschema.validate(json.loads(out), load("error.schema.json"))


def test_show_singular_levi_is_a_bad_word(capsys):
    code, out = run_cli(capsys, "show", "l:1,2,2,4")
    assert code == 2
    assert json.loads(out)["error"] == "BAD_WORD"


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


# --- one refusal table, work caps, non-finite tolerances ----------------------

RECORDED = json.loads((pathlib.Path(__file__).parent / "data" / "cli_outputs.json").read_text())


def _raising(exc):
    def raise_(*args, **kwargs):
        raise exc

    return raise_


@pytest.mark.parametrize("case", RECORDED, ids=[c["id"] for c in RECORDED])
def test_output_matches_recording(capsys, monkeypatch, tmp_path, case):
    """stdout and exit code equal those recorded from the per-command
    handlers that the refusal table replaced, byte for byte.
    lfunc shares the lift's form check, so its two form refusals, eigen14
    and the odd-k eigen18 (which answered SERIES_INSTABILITY before), were
    recorded again with the message coeff gives.  Real input does not
    reach SERIES_INSTABILITY, so its cases patch the library call to
    raise it."""
    if case["patch"] == "series_instability":
        unstable = _raising(lfunctions.SeriesInstability("series instability: 1.0 vs 2.0"))
        monkeypatch.setattr(lfunctions, "central_twisted_value", unstable)
        monkeypatch.setattr(lift, "central_twisted_value", unstable)
    argv = case["argv"]
    if case["file_text"] is not None:
        path = tmp_path / "f.mf"
        path.write_text(case["file_text"])
        argv = [a.replace("{file}", str(path)) for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (("mf", "dump", "--series", "e4", "--prec", "5", "--out", "no/such/dir/e4.mf"), "BAD_INPUT"),
        (("gross", "--discs", "5,2", "--prec", "900", "--prec-half", "100"), "BAD_INPUT"),
        (("reduce", "--w=1/0,0,0,0"), "BAD_VECTOR"),
        (("coeff", "--w=1/0,0,0,0"), "BAD_INPUT"),
        (("verify-structure", "--samples", "0"), "BAD_INPUT"),
        (("ktypes", "--n", "-1"), "BAD_INPUT"),
        (("ktypes", "--n", "2", "--k", "1"), "BAD_INPUT"),
    ],
    ids=["mf-dump-out", "gross-disc-2-mod-4", "reduce-zero-denominator", "coeff-zero-denominator", "samples-0",
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


@pytest.mark.parametrize(
    "argv,error",
    [
        (("reduce", "--w=1e10000000,0,1/3,0"), "BAD_VECTOR"),
        (("show", "x:a:1E10000000"), "BAD_WORD"),
        (("show", "n:1,0,1e-10000000,0,3"), "BAD_WORD"),
        (("mf", "load", "{file}"), "BAD_CACHE_FILE"),
    ],
    ids=["reduce", "show-root", "show-heisenberg", "mf-load"],
)
def test_exponent_form_refused_before_expansion(capsys, tmp_path, argv, error):
    """Fraction would build 10^(10^7) in full, about 14 s, before refusing."""
    path = tmp_path / "f.mf"
    path.write_text("4 1 2\n1\n1e10000000\n")
    with deadline(0.5):
        code, out = run_cli(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == 2
    assert_refused(out, error)


def test_precision_cap_reaches_the_ratio_table_precision():
    assert cli.MAX_PREC >= 20000


def test_refusal_table_is_the_only_exception_map():
    """No cmd_* function catches an exception itself, except gross, whose
    CentralVanishing is a result row, not a refusal."""
    import ast
    import inspect

    caught = {}
    for fn in ast.parse(inspect.getsource(cli)).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.ExceptHandler):
                    caught.setdefault(fn.name, []).append(ast.unparse(node.type))
    assert caught == {"cmd_gross": ["CentralVanishing"]}


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
_file_text = st.one_of(
    st.text(max_size=200),
    st.builds(lambda head, lines: head + "\n" + "\n".join(lines),
              st.lists(_token, min_size=2, max_size=4).map(" ".join), st.lists(_token, max_size=12)),
)
# each sample runs all 17 structure checks, about 60 ms, so in-cap --samples draws stay at 2 or less
ARGV = st.one_of(
    st.tuples(st.just("verify-structure"), _capped(cli.MAX_SAMPLES, small=2).map("--samples={}".format),
              _integer.map("--seed={}".format)),
    st.lists(_show_token, min_size=1, max_size=4).map(lambda t: ("show", "*".join(t))),
    _w.map(lambda w: ("reduce", f"--w={w}")),
    st.builds(lambda *a: ("coeff", *a), _forms.map("--form={}".format), _w.map("--w={}".format),
              _prec.map("--prec={}".format), _prec.map("--prec-half={}".format)),
    st.builds(lambda csv, *a: ("gross", *a) + (("--csv",) if csv else ()), st.booleans(),
              _forms.map("--form={}".format), st.lists(_disc, min_size=1, max_size=5).map(lambda t: "--discs=" + ",".join(t)),
              _float.map("--tol={}".format), _float.map("--spread-tol={}".format),
              _prec.map("--prec={}".format), _prec.map("--prec-half={}".format)),
    st.builds(lambda ext, *a: ("lfunc", "value", *a) + (("--ext-float",) if ext else ()), st.booleans(),
              _forms.map("--form={}".format), _disc.map("--disc={}".format), _float.map("--tol={}".format),
              _prec.map("--prec={}".format)),
    st.builds(lambda *a: ("mf", "dump", *a), _series.map("--series={}".format), _prec.map("--prec={}".format)),
    st.just(("mf", "load", "no/such/file.mf")),
    st.builds(lambda *a: ("ktypes", *a), _capped(cli.MAX_KTYPES_N).map("--n={}".format),
              _integer.map("--k={}".format)),
)
CASES = st.one_of(ARGV.map(lambda argv: (argv, None)), _file_text.map(lambda text: (("mf", "load", "{file}"), text)))
SCHEMAS = {"verify-structure": "run-report", "coeff": "lift-coefficient", "gross": "gross-report",
           "lfunc": "lfunc-value", "reduce": "reduce-record"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_cli_fuzz(case, tmp_path_factory):
    """Every argv ends in an answer or a typed refusal: exit 0-3, no
    traceback, and JSON valid against its shipped schema."""
    jsonschema = pytest.importorskip("jsonschema")
    schemas = pathlib.Path(__file__).parent.parent / "docs" / "schemas"
    argv, file_text = case
    if file_text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "f.mf"
        path.write_text(file_text)
        argv = [a.replace("{file}", str(path)) for a in argv]
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
    if code in (2, 3):
        schema = "error"
    elif argv[0] in SCHEMAS and "--csv" not in argv:
        schema = SCHEMAS[argv[0]]
    else:
        return
    jsonschema.validate(json.loads(out.getvalue()), json.loads((schemas / f"{schema}.schema.json").read_text()))
