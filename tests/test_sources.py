"""Rules on the package's own text: no comment or docstring under
src/g2lift quotes a measured time, no module imports anything outside the
standard library, and no module holds an assert statement or reads
__debug__.  A cost is stated by what sets it ("one transform-sized
product", "two squarings"); measured times live in the README, where they
are re-measured when the code moves them.  A check that must hold raises
AssertionError explicitly, so python -O runs the same code."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import g2lift

PACKAGE = Path(g2lift.__file__).resolve().parent
# a number, one space, then a unit of time as a whole word
TIME = re.compile(r"(?:\d+\.)?\d+ (?:ms|µs|s)\b")


def _prose(path):
    """The comments and the docstrings of the module at path, each a list of
    (line, text); a docstring is a string token that makes a whole statement."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline))
    comments = [(t.start[0], t.string) for t in tokens if t.type == tokenize.COMMENT]
    code = [t for t in tokens if t.type not in (tokenize.NL, tokenize.COMMENT)]
    opens = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    docstrings = [
        (t.start[0], t.string)
        for before, t, after in zip([None, *code], code, code[1:])
        if t.type == tokenize.STRING and (before is None or before.type in opens) and after.type == tokenize.NEWLINE
    ]
    return comments, docstrings


def test_time_pattern():
    for quoted in ("0.24 s", "about 10 ms,", "52 µs a call", "(4.7 s)"):
        assert TIME.search(quoted), quoted
    for prose in ("factor out 2s of n", "n = 4s + eps", "100 samples", "2 squarings", "N = 5000 s_i"):
        assert not TIME.search(prose), prose


def test_no_comment_or_docstring_quotes_a_time():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    quoted = []
    for path in modules:
        comments, docstrings = _prose(path)
        assert docstrings, f"{path.name}: no docstring found"
        for line, text in comments + docstrings:
            for m in TIME.finditer(text):
                at = line + text.count("\n", 0, m.start())
                quoted.append(f"{path.name}:{at}: {m.group()!r}")
    assert not quoted, "measured times belong in the README:\n" + "\n".join(quoted)


def _imported_names(path):
    """(line, top-level module name) of every absolute import in the module
    at path, nested imports included; relative and __future__ imports are
    left out."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
            names.append((node.lineno, node.module.partition(".")[0]))
    return names


def test_package_imports_only_the_standard_library():
    """src/g2lift runs on a bare interpreter: every import, also one inside
    a function, is relative, __future__ or a standard-library module."""
    outside = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _imported_names(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, "imports outside the standard library:\n" + "\n".join(outside)


def _optimize_branches(source):
    """(line, what) of every assert statement and every read of __debug__
    in source: what python -O strips or turns to False."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
    return found


def test_optimize_branch_rule():
    assert _optimize_branches("assert x") == [(1, "assert")]
    assert _optimize_branches("if __debug__:\n    pass") == [(1, "__debug__")]
    assert _optimize_branches('if not x:\n    raise AssertionError("x broke")') == []


def test_package_runs_the_same_under_optimize():
    """No module under src/g2lift holds an assert statement or reads
    __debug__, so every path runs the same with and without python -O."""
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _optimize_branches(path.read_text(encoding="utf-8"))
    ]
    assert not found, "raise AssertionError instead:\n" + "\n".join(found)
