"""The list of src/g2lift lines that may stay unreached (MAY_STAY_UNREACHED
in tests/user_reach.py), checked against the source without the tracer:
every entry names exactly one executable line, has one of the four kinds,
and names only code that exists; and the audit's verdict flags an unreached
line the list lacks, and a listed line that ran or is gone.  The traced run
itself is `python tests/user_reach.py`."""

import importlib
import re

import user_reach
from line_audit import PACKAGE, executable_lines
from user_reach import KINDS, MAY_STAY_UNREACHED, line_keys, problems

PATHS = sorted(PACKAGE.glob("*.py"))
KEYS = {path.name: line_keys(path) for path in PATHS}
# a backticked dotted name, such as `cubic.etale_type`, names a module attribute
CODE_NAME = re.compile(r"`([a-z_]+(?:\.\w+)+)`")


def _lines(key):
    return [n for n, k in KEYS[key[0]].items() if k == key]


def _every_line_but_the_listed():
    """A report in which every executable line ran except the listed ones."""
    listed = {(key[0], n) for key in MAY_STAY_UNREACHED for n in _lines(key)}
    return {str(p): {n for n in executable_lines(p) if (p.name, n) not in listed} for p in PATHS}


def test_every_entry_names_one_executable_line():
    wrong = {}
    for key in MAY_STAY_UNREACHED:
        lines = _lines(key)
        path = PACKAGE / key[0]
        if len(lines) != 1 or lines[0] not in executable_lines(path):
            wrong[key] = lines
    assert wrong == {}


def test_every_entry_has_a_kind_and_names_existing_code():
    wrong = []
    for key, (kind, reason) in MAY_STAY_UNREACHED.items():
        if kind not in KINDS or not reason:
            wrong.append(key)
        for name in CODE_NAME.findall(reason):
            module, *attrs = name.split(".")
            obj = importlib.import_module(f"g2lift.{module}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if obj is None:
                wrong.append((key, name))
    assert wrong == []


def test_the_list_alone_passes():
    assert problems(_every_line_but_the_listed()) == []


def test_an_unlisted_unreached_line_fails():
    ran = _every_line_but_the_listed()
    cli = str(PACKAGE / "cli.py")
    first = min(ran[cli])
    ran[cli].discard(first)
    assert problems(ran) == [f"src/g2lift/cli.py:{first}: unreached, and not in MAY_STAY_UNREACHED"]


def test_a_listed_line_that_ran_fails():
    ran = _every_line_but_the_listed()
    key = next(iter(MAY_STAY_UNREACHED))
    ran[str(PACKAGE / key[0])] |= set(_lines(key))
    assert problems(ran) == [f"{key}: in MAY_STAY_UNREACHED, but it ran"]


def test_a_listed_line_that_is_gone_fails(monkeypatch):
    key = ("cli.py", "main", 'raise InternalError("a line the package does not have")')
    monkeypatch.setitem(user_reach.MAY_STAY_UNREACHED, key, (user_reach.FAULT, "a deleted guard"))
    assert problems(_every_line_but_the_listed()) == [f"{key}: in MAY_STAY_UNREACHED, but it is gone"]
