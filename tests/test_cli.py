import json

import pytest

from g2lift.cli import main


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


def test_show_iota_token(capsys):
    code, out = run_cli(capsys, "show", "iota")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
