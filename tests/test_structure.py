import hashlib
import json
import pathlib
import random
from fractions import Fraction

import pytest

from g2lift import group, structure
from g2lift.exact import Matrix7
from g2lift.group import heis_n1, u_tilde1, z_coord
from g2lift.structure import CHECKS, IDENTITIES, _check, run_structure_suite


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_all_checks_pass_quick():
    report = run_structure_suite(samples=12, seed=3)
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == set(CHECKS)
    assert all(c["status"] == "pass" for c in report["checks"])


def test_deterministic_given_seed():
    a = run_structure_suite(samples=5, seed=42)
    b = run_structure_suite(samples=5, seed=42)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_timings_opt_in():
    bare = run_structure_suite(samples=2, seed=1)
    timed = run_structure_suite(samples=2, seed=1, include_timings=True)
    assert "wall_time" not in bare and all("seconds" not in c for c in bare["checks"])
    assert "wall_time" in timed and all("seconds" in c for c in timed["checks"])


def test_injected_bad_weyl_fails_with_counterexample():
    report = run_structure_suite(samples=5, seed=0, inject_bad_weyl=True)
    assert not report["passed"]
    imi = next(c for c in report["checks"] if c["name"] == "imi")
    assert imi["status"] == "fail"
    assert "counterexample" in imi
    assert "got" in imi["counterexample"]  # the offending matrix is reported


def test_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        run_structure_suite(samples=0)


def test_injected_report_and_draws_are_pinned():
    """The bad-Weyl report and every check's draws, as recorded from the
    hand-written checks the declarations replaced: the structure workload
    times one op per draw, so its ops depend on them."""
    assert _digest(run_structure_suite(5, 0, inject_bad_weyl=True)) == (
        "40c2137b92cf07a7992caaa5049ec31197e25c34c341158f4053fee6aa91293c"
    )
    assert _digest(run_structure_suite(2, 0, inject_bad_weyl=True)) == (
        "c00cd86f0fb63484d0fd08ba4204204831a86832a51adfbe399f4276b288f15a"
    )
    after = {}
    for name in sorted(CHECKS):
        rng = random.Random((0, name).__repr__())
        CHECKS[name](rng, 7)
        after[name] = rng.getrandbits(32)
    assert _digest(after) == "f7d9dd41012f266231396e4b1660e84760692a88fa3fc817ef8c9c6b57ad6f7c"


def test_modulus_bases_are_the_unit_elements_built_once(monkeypatch):
    """The modulus checks' operands are n1, u~1 and z at the unit vectors,
    built on the first sample and not again."""
    structure._unit_bases.cache_clear()
    calls = []

    def counted(name, build):
        return lambda *e: calls.append(name) or build(*e)

    for name, build in (("heis_n1", heis_n1), ("u_tilde1", u_tilde1), ("z_coord", z_coord)):
        monkeypatch.setattr(structure, name, counted(name, build))
    for name in ("modulus_det3_P", "modulus_det5_Q"):
        assert CHECKS[name](random.Random(name), 4) is None
    assert calls == ["heis_n1"] * 5 + ["u_tilde1"] * 3 + ["z_coord"] * 2
    n1_basis, u_basis, z_basis = structure._unit_bases()
    units5 = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    assert list(n1_basis) == [heis_n1(*e) for e in units5]
    assert list(u_basis) == [u_tilde1(*e) for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    assert list(z_basis) == [z_coord(*e) for e in [(1, 0), (0, 1)]]


@pytest.mark.parametrize("name, products", [("modulus_det3_P", 11), ("modulus_det5_Q", 10)])
def test_modulus_sample_reads_without_rebuilding(monkeypatch, name, products):
    """One sample of a modulus check makes no heis_n or u_coord call: its
    five coordinate reads compare integers with the word table instead of
    rebuilding the element (five such calls a sample before).  Its 7x7
    products stay the ten conjugation products, plus the form check of
    the checking levi_m on the P side."""
    structure._unit_bases()  # the bases themselves are built through heis_n and u_coord
    calls = []

    def counted(label, fn):
        return lambda *a: calls.append(label) or fn(*a)

    for build in ("heis_n", "u_coord"):
        monkeypatch.setattr(group, build, counted(build, getattr(group, build)))
    monkeypatch.setattr(Matrix7, "__mul__", counted("matmul", Matrix7.__mul__))
    assert CHECKS[name](random.Random(name), 1) is None
    assert calls.count("heis_n") == calls.count("u_coord") == 0
    assert calls.count("matmul") == products


@pytest.mark.parametrize(
    "name, part, build, args",
    [
        ("modulus_det3_P", 0, heis_n1, (2, 0, 0, 0, 0)),
        ("modulus_det5_Q", 1, u_tilde1, (2, 0, 0)),
        ("modulus_det5_Q", 2, z_coord, (2, 0)),
    ],
    ids=["P-n1", "Q-u_tilde1", "Q-z"],
)
def test_modulus_checks_refuse_a_non_unit_basis(monkeypatch, name, part, build, args):
    """A basis element that is not a unit element doubles the determinant,
    and the check reports its first draw."""
    bases = [list(b) for b in structure._unit_bases()]
    bases[part][0] = build(*args)
    monkeypatch.setattr(structure, "_unit_bases", lambda: bases)
    ce = CHECKS[name](random.Random(name), 3)
    assert ce is not None and set(ce) == {"A", "got"}


def _leaves(value):
    if isinstance(value, list):
        for x in value:
            yield from _leaves(x)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_every_identity_reports_its_counterexample(name):
    """Each declaration, with a left side made to differ, fails on its
    first draw and names every drawn argument in exact strings, the failing
    left side under "got", and its kind when it has several sides."""
    jsonschema = pytest.importorskip("jsonschema")
    sampler, sides = IDENTITIES[name]

    def wrong(**args):
        return [(kind, ("not", lhs), rhs) for kind, lhs, rhs in sides(**args)]

    ce = _check(sampler, wrong)(random.Random(name), 3)
    drawn = sampler(random.Random(name)) if sampler else {}
    first = sides(**drawn)
    assert set(ce) == set(drawn) | {"got"} | ({"kind"} if len(first) > 1 else set())
    assert ce.get("kind") == first[0][0]
    assert ce["got"][0] == "not" and len(ce["got"]) == 2
    for arg, value in drawn.items():
        assert all(isinstance(x, str) for x in _leaves(ce[arg]))
        if isinstance(value, Fraction):
            assert Fraction(ce[arg]) == value
    report = {
        "schema": 1, "command": "verify-structure", "samples": 3, "seed": 0, "passed": False,
        "checks": [{"name": name, "status": "fail", "samples": 3, "counterexample": ce}],
    }
    schema = pathlib.Path(__file__).parent.parent / "docs" / "schemas" / "run-report.schema.json"
    jsonschema.validate(json.loads(json.dumps(report)), json.loads(schema.read_text()))
