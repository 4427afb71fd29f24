"""The three benchmark workloads: inputs made from a seed, the op list,
output checks against recorded references, and one negative control each.

A workload never imports ``g2lift`` at module import time: ``load`` does,
because the import is part of the set-up cost that ``setup_s`` measures.

Verdicts, one per op:

* ``verified``             the output matched its reference and cross-checks
* ``wrong:<why>``          the output is incorrect; the run is invalid
* ``refused:<kind>``       a typed refusal (ValueError / ArithmeticError family)
* ``error:<kind>``         any other exception (a traceback in the CLI)
* ``deadline``             the per-op deadline expired
* ``unverified``           an answer with no reference to compare it with
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

DATA = Path(__file__).resolve().parent / "data"


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]
    ref: object = None


class Outcome(NamedTuple):
    status: str  # "ok" | "refused" | "error" | "deadline"
    value: object  # the result, or a short exception description
    seconds: float


def load_json(name: str):
    return json.loads((DATA / name).read_text())


def series_digest(series) -> str:
    """sha256 prefix of the exact coefficients, read through ``coeff(n)``."""
    h = hashlib.sha256()
    for n in range(series.precision):
        c = Fraction(series.coeff(n))
        h.update(f"{c.numerator}/{c.denominator}\n".encode())
    return h.hexdigest()[:16]


def record_digest(rec):
    """(sha256 prefix of the exact JSON fields, (phase.re, phase.im))."""
    doc = rec.as_json()
    phase = doc.pop("phase")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16], (phase["re"], phase["im"])


def _refusal_verdict(out: Outcome) -> str:
    """The verdict of an op that returned no answer."""
    return out.status if out.status == "deadline" else f"{out.status}:{out.value}"


# ---------------------------------------------------------------------------


class Halfint:
    """Kohnen plus space at N = 5000 for k = 6 and k = 8, built cold.

    The series cache starts empty in each run, and the k = 8 half reuses
    theta and F at the same N, so cache sharing between weights shows.
    """

    name = "halfint"
    single_pass = True  # the op list is cold only once per process
    deadline_s = 120.0
    primary_layers = ("modforms", "shimura")
    N = 5000
    N_MAX = 10
    CONTROL_D = 5

    def load(self):
        from g2lift import modforms, shimura

        self.mf, self.sh = modforms, shimura
        self.ref = load_json("halfint_reference.json")

    def prepare(self):
        # Small-precision warm-up: runs the lazy lfunctions import inside
        # shimura_lift_check and touches no cache key at N.
        g = self.sh.plus_cusp_basis(6, 64)[0]
        if not self.sh.shimura_lift_check(g, self.mf.delta(64), 1, 7):
            raise RuntimeError("warm-up lift check failed")

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        out: dict = {}

        def build(key, fn):
            def call():
                out[key] = fn()
                return out[key]

            return call

        ops = []
        for k, form, build_form in (
            (6, "delta", lambda: self.mf.delta(self.N)),
            (8, "eigen16", lambda: self.mf.eigenform(16, self.N)),
        ):
            ref = self.ref["weights"][str(k)]
            ops.append(Op("series_build", build(form, build_form), ref["form_digest"]))
            ops.append(
                Op("plus_basis", build(k, lambda k=k: self.sh.plus_cusp_basis(k, self.N)), ref)
            )
            discs = list(ref["lift_discs"])
            rng.shuffle(discs)
            # One op checks every discriminant of a weight: a single check
            # takes about 0.2 ms, too little to time apart from host noise.
            ops.append(
                Op(
                    "lift_checks",
                    lambda k=k, form=form, discs=discs: [
                        self.sh.shimura_lift_check(out[k][0], out[form], D, self.N_MAX)
                        for D in discs
                    ],
                )
            )
        return ops

    def verify(self, ops, outcomes) -> list[str]:
        verdicts = []
        for op, out in zip(ops, outcomes):
            if out.status != "ok":
                verdicts.append(_refusal_verdict(out))
            elif op.kind == "series_build":
                ok = series_digest(out.value) == op.ref
                verdicts.append("verified" if ok else "wrong:form digest")
            elif op.kind == "plus_basis":
                if len(out.value) != op.ref["dim"]:
                    verdicts.append(f"wrong:dimension {len(out.value)}")
                else:
                    ok = series_digest(out.value[0]) == op.ref["plus_digest"]
                    verdicts.append("verified" if ok else "wrong:plus-form digest")
            else:
                ok = all(v is True for v in out.value)
                verdicts.append("verified" if ok else "wrong:lift identity")
        return verdicts

    def control(self) -> str | None:
        """A plus form with c(4D) perturbed must fail the lift check."""
        g = self.sh.plus_cusp_basis(6, self.N)[0]
        bad = _PerturbedForm(g, 4 * self.CONTROL_D)
        if self.sh.shimura_lift_check(bad, self.mf.delta(self.N), self.CONTROL_D, self.N_MAX):
            return "perturbed plus form passed the lift check"
        return None


class _PerturbedForm:
    """A half-integral form with one coefficient raised by 1."""

    def __init__(self, form, index: int):
        self._form, self._index = form, index

    def __getattr__(self, name):
        return getattr(self._form, name)

    def coeff(self, n: int):
        c = self._form.coeff(n)
        return c + 1 if n == self._index else c

    @property
    def coeffs(self):
        return tuple(self.coeff(n) for n in range(self._form.precision))


# ---------------------------------------------------------------------------


class Lift:
    """Lift-coefficient records for GL2(Q) translates of (-D, 0, 1/3, 0).

    Vectors come from a recorded pool, stratified by the bit length of the
    integral form and, inside a bit length, by the trial divisions that a
    rational-root search by divisor enumeration needs, so that every seed
    draws the same mix of cheap and expensive inputs.
    """

    name = "lift"
    single_pass = False
    deadline_s = 3.0
    primary_layers = ("exact", "group", "cubic")
    PREC_INT, PREC_HALF = 2000, 600
    PHASE_TOL = 1e-10
    RATIO_TOL = 5e-5  # per op, against the recorded constant
    SPREAD_TOL = 1e-4  # over all ratios of a pass

    def load(self):
        from g2lift import cubic
        from g2lift.exact import mat2
        from g2lift.lift import LiftContext

        self.cubic, self.mat2, self.LiftContext = cubic, mat2, LiftContext
        self.data = load_json("lift_inputs.json")

    def prepare(self):
        self.ctx = self.LiftContext(12, self.PREC_INT, self.PREC_HALF)
        self.base = {}
        for D in self.data["base_discs"]:
            self.base[D] = self.ctx.fourier_coefficient((-D, 0, Fraction(1, 3), 0))
        self.ctx.fourier_coefficient(tuple(map(Fraction, self.data["warmup_w"])))

    def check_base_records(self) -> str | None:
        for D, rec in self.base.items():
            want = self.data["base_records"][str(D)]
            got, phase = record_digest(rec)
            if got != want["digest"] or not _close(phase, want["phase"], self.PHASE_TOL):
                return f"base record for D={D} differs from its reference"
        return None

    def sample(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        chosen = []
        for stratum in self.data["strata"]:
            entries = [self.data["pool"][i] for i in stratum["entries"]]
            size = len(entries) // stratum["take"]
            for j in range(stratum["take"]):
                chosen.append(rng.choice(entries[j * size : (j + 1) * size]))
        rng.shuffle(chosen)
        return chosen + self.data["slice"]

    def ops(self, seed: int) -> list[Op]:
        ctx, cubic = self.ctx, self.cubic
        ops = []
        for entry in self.sample(seed):
            w = tuple(map(Fraction, entry["w"]))
            A = self.mat2(*map(Fraction, entry["A"]))
            base = self.base[entry["D"]]
            ops.append(Op("coefficient", lambda w=w: ctx.fourier_coefficient(w), entry))
            ops.append(
                Op("transform", lambda base=base, A=A: ctx.transform_coefficient(base, A), entry)
            )
            ops.append(
                Op(
                    "classify",
                    lambda w=w: (
                        str(cubic.etale_type(w)),
                        cubic.is_maximal(cubic.cubic_ring(w)),
                    ),
                    entry,
                )
            )
        discs = list(self.data["ratio_discs"])
        random.Random(seed).shuffle(discs)
        for D in discs:
            w = (-D, 0, Fraction(1, 3), 0)
            ops.append(Op("ratio", lambda w=w: ctx.gross_ratio(w), D))
        return ops

    def _record_verdict(self, rec, want) -> str:
        if not isinstance(want, dict):
            return "unverified"
        digest, phase = record_digest(rec)
        if digest != want["digest"]:
            return "wrong:record differs from its reference"
        if not _close(phase, want["phase"], self.PHASE_TOL):
            return "wrong:phase differs from its reference"
        return "verified"

    def same_record(self, direct, moved) -> bool:
        """Criterion 6: exact c_value, (t, S) and w; phase to 1e-10."""
        return (
            direct.c_value == moved.c_value
            and (direct.t, direct.S) == (moved.t, moved.S)
            and tuple(direct.w) == tuple(moved.w)
            and abs(direct.phase - moved.phase) < self.PHASE_TOL
        )

    def verify(self, ops, outcomes) -> list[str]:
        verdicts = []
        direct = direct_at = None
        ratios = []
        for op, out in zip(ops, outcomes):
            if op.kind == "coefficient":
                direct = out.value if out.status == "ok" else None
                direct_at = len(verdicts)
            if out.status != "ok":
                verdicts.append(_refusal_verdict(out))
            elif op.kind == "coefficient":
                verdicts.append(self._record_verdict(out.value, op.ref["coef"]))
            elif op.kind == "transform":
                verdict = self._record_verdict(out.value, op.ref["tr"])
                if direct is not None and not self.same_record(direct, out.value):
                    verdict = "wrong:transported record disagrees with direct evaluation"
                elif direct is not None:
                    # The criterion-6 cross-check vouches for a record that
                    # has no stored reference (a refusal when it was made).
                    if verdict == "unverified":
                        verdict = "verified"
                    if verdicts[direct_at] == "unverified":
                        verdicts[direct_at] = "verified"
                verdicts.append(verdict)
            elif op.kind == "classify":
                want = (op.ref["etale"], op.ref["maximal"])
                verdicts.append("verified" if out.value == want else "wrong:classify differs from its reference")
            else:
                ratios.append(out.value)
                ok = abs(out.value / self.data["ratio_constant"] - 1) < self.RATIO_TOL
                verdicts.append("verified" if ok else "wrong:ratio off the recorded constant")
        if ratios and (max(ratios) - min(ratios)) / abs(min(ratios)) >= self.SPREAD_TOL:
            verdicts = [
                "wrong:ratio spread" if op.kind == "ratio" and v == "verified" else v
                for op, v in zip(ops, verdicts)
            ]
        return verdicts

    def control(self) -> str | None:
        """A transported record with a perturbed c_value must not compare equal."""
        D = self.data["base_discs"][1]
        A = self.mat2(2, 1, 1, 1)
        moved = self.ctx.transform_coefficient(self.base[D], A)
        direct = self.ctx.fourier_coefficient(tuple(moved.w))
        if not self.same_record(direct, moved):
            return "control could not start: unperturbed records disagree"
        bad = dataclasses.replace(moved, c_value=moved.c_value + 1)
        if self.same_record(direct, bad):
            return "record with a perturbed c_value passed the comparison"
        return None


def _close(a, b, tol) -> bool:
    return abs(a[0] - b[0]) < tol and abs(a[1] - b[1]) < tol


# ---------------------------------------------------------------------------


class Structure:
    """The exact identity suite behind ``verify-structure``, one op per sample.

    Each check's rng is seeded once per process and carries on from pass to
    pass, so every pass draws new samples.  The per-pass op-time tail then
    comes from new inputs each pass, and its median over passes follows
    the seed less.
    """

    name = "structure"
    single_pass = False
    deadline_s = 2.0
    primary_layers = ("exact", "group")
    SAMPLES = 100

    def load(self):
        from g2lift import structure

        self.st = structure
        self.ref = load_json("structure_reference.json")
        missing = set(self.ref["checks"]) - set(structure.CHECKS)
        if missing:
            raise RuntimeError(f"structure.CHECKS lacks {sorted(missing)}")

    def prepare(self):
        # The first root generator certifies the generator table.
        if self.st.CHECKS["one_parameter"](random.Random("warm-up"), 1) is not None:
            raise RuntimeError("warm-up check failed")

    def ops(self, seed: int) -> list[Op]:
        if getattr(self, "_seed", None) != seed:
            # seeded the way run_structure_suite seeds each check
            self._seed = seed
            self._rngs = {
                name: random.Random((seed, name).__repr__()) for name in self.ref["checks"]
            }
        ops = []
        for name in sorted(self.ref["checks"]):
            rng = self._rngs[name]
            check = self.st.CHECKS[name]
            for _ in range(self.SAMPLES):
                ops.append(Op("check." + name, lambda c=check, r=rng: c(r, 1), name))
        # Interleave the checks, so that the slowest ones do not all run in
        # the same second of a pass.  Each check still draws its samples
        # from its own rng, in order.
        random.Random(seed).shuffle(ops)
        return ops

    def verify(self, ops, outcomes) -> list[str]:
        verdicts = []
        for op, out in zip(ops, outcomes):
            if out.status != "ok":
                verdicts.append(_refusal_verdict(out))
            elif self.ref["checks"][op.ref] == "pass" and out.value is None:
                verdicts.append("verified")
            else:
                verdicts.append(f"wrong:{op.ref} counterexample")
        return verdicts

    def control(self) -> str | None:
        """The suite's bad-Weyl iota must produce an imi counterexample."""
        report = self.st.run_structure_suite(samples=1, seed=0, inject_bad_weyl=True)
        status = {c["name"]: c["status"] for c in report["checks"]}
        if report["passed"] or status.get("imi") != "fail":
            return "bad-Weyl iota passed the imi check"
        return None


WORKLOADS = {w.name: w for w in (Halfint(), Lift(), Structure())}
