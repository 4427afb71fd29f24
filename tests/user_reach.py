"""Reach audit of src/g2lift: run what a user of the package runs under the
line tracer of ``line_audit``, print every executable line of the package
that none of it reached, and check those lines against MAY_STAY_UNREACHED.

    PYTHONPATH=src python tests/user_reach.py

The runs are every recorded CLI case in tests/data/cli_outputs.json that
needs no library patch, the commands of UNRECORDED, one answer written to a
stdout whose reader has closed, and one seed-1 pass of each benchmark
workload of perfbench/workloads.py, verification included.

MAY_STAY_UNREACHED keys each line that no run may reach by its file, its
enclosing function and its source text, not by its line number, and gives
the reason, of one of the KINDS.  The script exits 1 if an unreached line is
not in it, or if a line in it ran or no longer exists; test_user_reach.py
checks the list against the source without the tracer.  Pytest does not
collect this file, because its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from line_audit import PACKAGE, ROOT, executable_lines, report, traced

# commands whose stdout is not recorded: three at their defaults, and
# --timings, whose seconds differ from run to run
UNRECORDED = (["gross"], ["lfunc", "value"], ["verify-structure"], ["verify-structure", "--samples", "1", "--timings"])

LIBRARY = "library"
NO_CALLER = "no caller"
FAULT = "fault"
DUNDER = "dunder"
KINDS = {
    LIBRARY: "an input of a library entry point the README documents, which no command passes",
    NO_CALLER: "a condition that none of the named callers can produce",
    FAULT: "a guard against a fault of the program, never of the input",
    DUNDER: "a dunder body or the __main__ guard, which no command calls in-process",
}

# (file, enclosing function, source text) -> (kind, reason); code names in
# backticks are module attributes, which test_user_reach.py resolves
MAY_STAY_UNREACHED = {
    # arith
    ("arith.py", "fundamental_discriminant", 'raise BadInput("zero has no square class")'): (
        NO_CALLER, "`arith.is_fundamental_discriminant` tests D > 0 first, `cubic.fundamental_discriminant_of_class` "
        "r > 0, `cubic.etale_type` factors the nonzero discriminant of a separable quadratic, and "
        "`cubic.CanonicalReduction` the n = -4ac > 0 of a shape vector"),
    ("arith.py", "kronecker", 'raise BadInput("negative modulus")'): (
        NO_CALLER, "`lfunctions._chi_table` passes r >= 0 and `shimura.shimura_lift_check` d >= 1"),
    # cli
    ("cli.py", "cmd_gross", 'rows.append({"D": D, "status": "central-vanishing"})'): (
        NO_CALLER, "no known input: L(f x chi_D, k) vanishes with c(D) (Kohnen-Zagier), and no form of `cli.FORMS` "
        "has a known fundamental D with c(D) = 0"),
    ("cli.py", "cmd_gross", "continue"): (NO_CALLER, "the central-vanishing row above"),
    ("cli.py", "main", "except Exception as exc:  # a fault of the program, never the input's"): (
        FAULT, "INTERNAL_ERROR: any exception of no refusal class"),
    ("cli.py", "main", '_emit({"schema": 1, "error": "INTERNAL_ERROR", "message": f"{type(exc).__name__}: {exc}"})'): (
        FAULT, "INTERNAL_ERROR"),
    ("cli.py", "main", "code = EXIT_FAIL"): (FAULT, "INTERNAL_ERROR"),
    ("cli.py", "<module>", "sys.exit(main())"): (DUNDER, "the __main__ guard of `python -m g2lift.cli`"),
    # cubic
    ("cubic.py", "_monic_integer_roots", "ranges = [(-bound, bound, 1)]"): (
        LIBRARY, "a monotone cubic has one real root, so q(w) > 0: `cubic.etale_type` and "
        "`cubic.rational_projective_roots` answer it, `cubic.reduce_to_canonical` refuses q(w) >= 0 first"),
    ("cubic.py", "rational_projective_roots", 'raise NonEtaleInput("zero form has no root divisor")'): (
        NO_CALLER, "`cubic.etale_type` refuses a zero discriminant first and `cubic.reduce_to_canonical` "
        "searches only with a4 != 0"),
    ("cubic.py", "fundamental_discriminant_of_class", 'raise BadInput("positive rational expected")'): (
        NO_CALLER, "`cubic.reduce_to_canonical` passes -3 t S after checking t < 0 < S"),
    ("cubic.py", "fundamental_discriminant_of_class", 'raise AssertionError("square-class arithmetic broke")'): (
        FAULT, "the scale found does not carry r to D0"),
    ("cubic.py", "EtaleType.__str__", "a, b, c, d = self.cubic_poly"): (
        LIBRARY, "the cubic-field type of `cubic.etale_type`; `reduce` and `coeff` refuse a cubic-field orbit "
        "before any type is read"),
    ("cubic.py", "EtaleType.__str__", 'return f"cubic field [{a},{b},{c},{d}]"'): (LIBRARY, "as above"),
    ("cubic.py", "etale_type", 'raise NonEtaleInput("non-etale input")'): (
        LIBRARY, "`cubic.etale_type` at q(w) = 0; every command reduces first, which refuses q(w) >= 0"),
    ("cubic.py", "etale_type", 'return EtaleType("cubic_field", cubic_poly=(a, b, c, d))'): (
        LIBRARY, "the cubic-field type of `cubic.etale_type`, as above"),
    ("cubic.py", "cubic_ring", 'raise BadInput("vector is not in the integral lattice")'): (
        LIBRARY, "`cubic.cubic_ring` off the lattice; no command builds a ring"),
    ("cubic.py", "_p_maximal", "points = [(1, 0) if h2 % p == 0 else (-h1, 2 * h2)]"): (
        LIBRARY, "a case of `cubic.is_maximal`, which no command calls; the `lift` workload's vectors miss it"),
    ("cubic.py", "is_maximal", 'raise NonEtaleInput("non-etale input")'): (LIBRARY, "`cubic.is_maximal` at q(w) = 0"),
    ("cubic.py", "is_maximal", "except SquarefreeCofactor:"): (
        LIBRARY, "`cubic.is_maximal` with a squarefree cofactor above the trial limit"),
    ("cubic.py", "is_maximal", "pass"): (LIBRARY, "as above"),
    ("cubic.py", "is_maximal", "return True"): (LIBRARY, "as above"),
    ("cubic.py", "reduce_to_canonical", 'raise AssertionError("reduction failed its 7x7 verification")'): (
        FAULT, "the record fails its 7x7 identity"),
    ("cubic.py", "_reduce_to_shape", 'raise AssertionError("reduction did not reach the shape (t, 0, S/3, 0), t < 0 < S")'): (
        FAULT, "the root move and the shear missed the shape"),
    ("cubic.py", "_reduce_to_shape", 'raise AssertionError("reduction did not reach t = -D0, S = 1")'): (
        FAULT, "the rescaling missed (-D0, 1)"),
    # exact
    ("exact.py", "rat", 'raise TypeError(f"float {x!r} is not an exact rational")'): (
        LIBRARY, "a float given to a constructor that takes rationals (`exact.rat`); commands read text with "
        "`exact.parse_rational`"),
    ("exact.py", "canonical", 'raise ZeroDivisionError("denominator is zero")'): (
        LIBRARY, "`modforms.QExpansion` built with den = 0; the package's own callers pass an lcm of denominators"),
    ("exact.py", "echelon", "break  # every row has its pivot"): (
        LIBRARY, "`exact.kernel` of fewer rows than columns; the determinant eliminates square rows and "
        "`shimura.plus_cusp_basis` more rows than columns"),
    ("exact.py", "_MatrixBase.__init__", 'raise ValueError(f"expected {n}x{n} matrix")'): (
        LIBRARY, "`exact.Matrix7` or `exact.Matrix2` from rows of the wrong shape; commands build 2x2 rows by "
        "`exact.mat2`"),
    ("exact.py", "_MatrixBase.__setattr__", 'raise AttributeError("matrix is immutable")'): (DUNDER, "immutability"),
    ("exact.py", "_MatrixBase.__hash__", "return hash((self.num, self.den))"): (DUNDER, "no command hashes a matrix"),
    ("exact.py", "_MatrixBase.__mul__", "return NotImplemented"): (DUNDER, "a product with a foreign type"),
    ("exact.py", "_MatrixBase.__add__", "return NotImplemented"): (DUNDER, "a sum with a foreign type"),
    ("exact.py", "_MatrixBase.__repr__", 'body = "\\n".join("[" + "  ".join(str(x) for x in r) + "]" for r in self.rows)'): (
        DUNDER, "repr"),
    ("exact.py", "_MatrixBase.__repr__", 'return f"{type(self).__name__}(\\n{body}\\n)"'): (DUNDER, "repr"),
    ("exact.py", "Matrix2.inverse", 'raise ZeroDivisionError("matrix is singular")'): (
        LIBRARY, "`exact.Matrix2.inverse` of a singular matrix; `cubic.reduce_to_canonical` inverts only its "
        "unimodular or diagonal moves"),
    ("exact.py", "_adjoint_table", 'raise AssertionError("GRAM is not a signed permutation")'): (
        FAULT, "the form's table is corrupt"),
    ("exact.py", "_adjoint_table", 'raise AssertionError("GRAM is not symmetric")'): (FAULT, "the form's table is corrupt"),
    # group
    ("group.py", "RootLabel.__str__", 'return self.name if self.positive else "-" + self.name'): (DUNDER, "str"),
    ("group.py", "GroupElement.__init__", 'raise ValueError("matrix does not preserve the form with det 1")'): (
        LIBRARY, "`group.GroupElement` of a matrix outside G2; every constructor of the package builds inside it"),
    ("group.py", "GroupElement.__setattr__", 'raise AttributeError("GroupElement is immutable")'): (DUNDER, "immutability"),
    ("group.py", "GroupElement.__hash__", "return hash(self.matrix)"): (DUNDER, "no command hashes an element"),
    ("group.py", "GroupElement.__repr__", 'return f"GroupElement({self.matrix!r})"'): (DUNDER, "repr"),
    ("group.py", "_exp_table", 'raise AssertionError(f"generator table corrupt at {gamma}")'): (
        FAULT, "the generator table is corrupt"),
    ("group.py", "_weyl_rows", 'raise AssertionError(f"Weyl word is not a signed monomial matrix at {gamma}")'): (
        FAULT, "the Weyl word is corrupt"),
    ("group.py", "n_coords", "return _n_read(g)[0]"): (
        LIBRARY, "`group.n_coords`, the reader of `group.heis_n`'s coordinates, which no command calls; the "
        "`structure` checks read N through `group.n1_coords`"),
    ("group.py", "_is_word_at", "return False"): (
        LIBRARY, "`group.n_coords`, `group.n1_coords` or `group.u_coords` of an element outside N or U; the "
        "package reads only elements it built there"),
    ("group.py", "_n_read", 'raise ValueError("element is not in the Heisenberg unipotent group")'): (
        LIBRARY, "`group.n_coords` or `group.n1_coords` of an element outside N; the package reads only elements "
        "it built in N"),
    ("group.py", "levi_m_coords", 'raise ValueError("element is not in the Levi M")'): (
        LIBRARY, "`group.levi_m_coords` of an element outside M; its two readers, `group.levi_m_prime` and "
        "`cubic.verify_reduction`, read only the Ad(w_alpha) m(A) of `group.m_prime`"),
    ("group.py", "_certify_l_grid", 'raise AssertionError("l grid corrupt")'): (FAULT, "the closed form of l(A) is wrong"),
    ("group.py", "u_coords", 'raise ValueError("element is not in the unipotent group U")'): (
        LIBRARY, "`group.u_coords` of an element outside U; the package reads only elements it built in U"),
    ("group.py", "_grid", 'raise BadInput("singular matrix")'): (
        LIBRARY, "`group.rho3` or `group.coad_w` at a singular A; `cubic.reduce_to_canonical` moves by invertible "
        "matrices and `lift.LiftContext.transform_coefficient` by the m' of `group.levi_m_prime`, which refuses a "
        "singular m"),
    # lfunctions
    ("lfunctions.py", "central_twisted_value", 'raise BadInput("level-one eigenform of weight 2k with k even required")'): (
        LIBRARY, "`lfunctions.central_twisted_value` of another form; `cli._lifted_form` refuses an odd k first"),
    ("lfunctions.py", "central_twisted_value", 'raise SeriesInstability(f"series instability: {val1} vs {val2}")'): (
        FAULT, "the series' self-check: its two cutoffs agree on every input tried, and the recorded "
        "SERIES_INSTABILITY cases patch the library to reach it"),
    # lift
    ("lift.py", "LiftContext.transform_coefficient", 'raise AssertionError("transformed record failed its 7x7 verification")'): (
        FAULT, "the moved record fails its 7x7 identity"),
    ("lift.py", "LiftContext.gross_ratio", 'raise CentralVanishing("central vanishing; ratio undefined")'): (
        NO_CALLER, "as `cmd_gross`'s central-vanishing row: `cli.cmd_gross` and the `lift` workload pass no known "
        "D with c(D) = 0"),
    # modforms
    ("modforms.py", "_convolve_int", "return [0] * n"): (
        LIBRARY, "a `modforms.QExpansion` product with a zero series; the package multiplies nonzero series"),
    ("modforms.py", "_convolve_int", 'raise InputTooLarge(f"{w}-digit product groups exceed the {limit}-digit int/str conversion limit")'): (
        LIBRARY, "a series product under the int/str limit; `cli.main` lifts the limit while a command runs"),
    ("modforms.py", "QExpansion.__post_init__", "num, l = over_lcm(num)"): (
        LIBRARY, "`modforms.QExpansion` of rational entries; the package builds integer ones"),
    ("modforms.py", "QExpansion.__post_init__", "den *= l"): (LIBRARY, "as above"),
    ("modforms.py", "QExpansion.__mul__", 'raise ValueError("level mismatch in multiplication")'): (
        LIBRARY, "a `modforms.QExpansion` product across levels"),
    ("modforms.py", "eisenstein", 'raise BadInput("only weights 4 and 6 generate the level-one ring")'): (
        LIBRARY, "`modforms.eisenstein` at a weight other than 4 or 6; `mf dump` offers only e4 and e6"),
    ("modforms.py", "eigenform", 'raise NonRationalEigenspace("non-rational eigenspace unsupported")'): (
        LIBRARY, "`modforms.eigenform` at a weight outside `modforms.RATIONAL_EIGEN_WEIGHTS`, which no command offers"),
    ("modforms.py", "satake", 'raise ValueError("Deligne bound violated; upstream eigenform is wrong")'): (
        FAULT, "the eigenform is wrong"),
    ("modforms.py", "mu_f", 'raise BadInput("mu_f undefined at 0")'): (
        NO_CALLER, "`lift.LiftContext.fourier_coefficient` passes det m and S of a reduction, and "
        "`lift.LiftContext.transform_coefficient` the det of an invertible m'"),
    # shimura
    ("shimura.py", "plus_cusp_basis", 'raise BadInput("k must be even and at least 6")'): (
        LIBRARY, "`shimura.plus_cusp_basis` or `lift.LiftContext` at an odd or small k; `cli._lifted_form` refuses "
        "an odd k first, and `mf dump` offers only plus6 to plus20"),
    ("shimura.py", "plus_cusp_basis.build", 'raise ArithmeticError(f"the brackets do not span the plus cusp forms of weight {k} + 1/2")'): (
        FAULT, "the brackets miss the space"),
    ("shimura.py", "shimura_lift_check", 'raise BadInput("half-integral form must have level 4 and weight k + 1/2")'): (
        LIBRARY, "`shimura.shimura_lift_check`, which no command calls"),
    ("shimura.py", "shimura_lift_check", 'raise BadInput("integral form must have level 1 and weight 2k")'): (
        LIBRARY, "as above"),
    ("shimura.py", "shimura_lift_check", 'raise BadInput("D must be a positive fundamental discriminant (or 1)")'): (
        LIBRARY, "as above"),
    ("shimura.py", "shimura_lift_check", 'raise PrecisionError("insufficient precision for the lift check")'): (
        LIBRARY, "as above"),
    ("shimura.py", "shimura_lift_check", "return False"): (LIBRARY, "as above: a pair that is not a Shimura pair"),
}


def recorded() -> list:
    """Every recorded case that needs no library patch."""
    cases = json.loads((ROOT / "tests" / "data" / "cli_outputs.json").read_text())
    return [c for c in cases if c["patch"] is None]


def cli_runs() -> list:
    """The argv of every recorded case with no patch, then UNRECORDED."""
    return [c["argv"] for c in recorded()] + [list(argv) for argv in UNRECORDED]


def run_cli() -> None:
    from g2lift.cli import main

    for argv in cli_runs():
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    # a reader that closed stdout, as `| head` does; line buffering makes the
    # write fail inside the command
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=1) as closed, contextlib.redirect_stdout(closed):
        main(["reduce", "--w=-5,0,1/3,0"])


def run_workloads(seed: int = 1) -> None:
    """One pass of each workload's op list, then its verification."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Outcome

    for workload in WORKLOADS.values():
        workload.load()
        workload.prepare()
        ops, outcomes = workload.ops(seed), []
        for op in ops:
            try:
                outcomes.append(Outcome("ok", op.call(), 0.0))
            except (ValueError, ArithmeticError) as exc:
                outcomes.append(Outcome("refused", type(exc).__name__, 0.0))
        workload.verify(ops, outcomes)


def _functions(tree) -> list:
    """(first line, last line, dotted name) of every def and class in tree."""
    spans = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                spans.append((first, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return spans


def line_keys(path: Path) -> dict:
    """{line number: (file name, enclosing def or class, stripped text)} for
    every line of path; a line outside every def and class is in "<module>",
    and so is line 0, where the module's code starts."""
    text = path.read_text()
    spans = _functions(ast.parse(text))
    keys = {0: (path.name, "<module>", "")}
    for n, line in enumerate(text.splitlines(), 1):
        inner = max((s for s in spans if s[0] <= n <= s[1]), default=(0, 0, "<module>"))
        keys[n] = (path.name, inner[2], line.strip())
    return keys


def problems(ran) -> list:
    """What MAY_STAY_UNREACHED gets wrong against ``ran`` (as ``traced``
    returns it): an unreached line it lacks, a line it lists that ran or
    that no longer exists."""
    missed, present = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        keys = line_keys(path)
        present.update(keys.values())
        for n in sorted(executable_lines(path) - ran.get(str(path), set())):
            missed[keys[n]] = f"{path.relative_to(ROOT)}:{n}"
    found = [f"{where}: unreached, and not in MAY_STAY_UNREACHED" for key, where in missed.items()
             if key not in MAY_STAY_UNREACHED]
    for key in MAY_STAY_UNREACHED:
        if key not in missed:
            found.append(f"{key}: in MAY_STAY_UNREACHED, but it {'ran' if key in present else 'is gone'}")
    return found


def main() -> int:
    ran = traced(lambda: (run_cli(), run_workloads()))
    report(ran)
    found = problems(ran)
    for line in found:
        print(line)
    print(f"{len(found)} problems with the {len(MAY_STAY_UNREACHED)} lines that may stay unreached")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
