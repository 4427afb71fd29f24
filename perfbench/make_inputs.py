"""Regenerate the benchmark's recorded inputs and reference outputs.

    python3 perfbench/make_inputs.py            # from the repository root

Writes ``perfbench/data/*.json``.  The references are the outputs of the
``g2lift`` source next to this script, so run it only at a commit whose
outputs are known good; every later run of ``run.py`` compares against
them.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DATA, Halfint, Lift, record_digest, series_digest  # noqa: E402

POOL_SEED = 20261017
# Vectors per run at each bit length of the integral form, and how many
# pool entries each is drawn from.  Root finding by divisor enumeration
# grows steeply with bit length, so the top lengths are drawn sparingly and
# the op list stays mostly exact/group work.  The 29-32-bit vectors are the
# same in every run: they set the op-time tail and the memory peak (the
# candidate set of root finding), which would otherwise follow the seed.
# 997 ops per pass put the reported tail at p90 with 99 samples beyond it.
TAKE = {
    **{b: (16, 64) for b in range(8, 25)},
    **{b: (8, 32) for b in range(25, 29)},
    **{b: (3, 3) for b in range(29, 33)},
}


def _write(name, doc):
    (DATA / name).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _divisor_count(n: int) -> int:
    n, count, p = abs(n), 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        count *= e + 1
        p += 1
    return count * (2 if n > 1 else 1)


def _outcome(fn):
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return f"refused:{type(exc).__name__}"


def _record_ref(rec):
    if isinstance(rec, str):
        return rec
    digest, phase = record_digest(rec)
    return {"digest": digest, "phase": list(phase)}


def make_halfint():
    from g2lift import modforms, shimura

    N = Halfint.N
    doc = {"N": N, "n_max": Halfint.N_MAX, "weights": {}}
    for k, form in ((6, modforms.delta(N)), (8, modforms.eigenform(16, N))):
        basis = shimura.plus_cusp_basis(k, N)
        g = basis[0]
        discs = [
            D for D in range(1, 41)
            if shimura.is_fundamental_discriminant(D) and g.coeff(D) != 0
        ]
        assert len(discs) >= 10 and all(
            shimura.shimura_lift_check(g, form, D, Halfint.N_MAX) for D in discs
        )
        doc["weights"][str(k)] = {
            "dim": len(basis),
            "form_digest": series_digest(form),
            "plus_digest": series_digest(g),
            "lift_discs": discs,
        }
    _write("halfint_reference.json", doc)


def make_structure():
    from g2lift.structure import CHECKS, run_structure_suite

    for seed in range(3):
        report = run_structure_suite(samples=100, seed=seed)
        assert report["passed"], seed
    _write("structure_reference.json", {"checks": {name: "pass" for name in sorted(CHECKS)}})


def _translate(D, A, mat2):
    """Criterion 6: w = coad(m') (-D, 0, 1/3, 0), A rescaled onto the lattice."""
    from g2lift.group import ad_weyl_alpha, coad_w, levi_m, levi_m_coords

    base_w = (Fraction(-D), Fraction(0), Fraction(1, 3), Fraction(0))
    w = coad_w(levi_m_coords(ad_weyl_alpha(levi_m(A))), base_w)
    den = lcm(*(x.denominator for x in (w[0], 3 * w[1], 3 * w[2], w[3])))
    if den != 1:
        A = A * mat2(den, 0, 0, den)
        w = coad_w(levi_m_coords(ad_weyl_alpha(levi_m(A))), base_w)
    return A, w


def _bits(w) -> int:
    return max(abs(int(x)).bit_length() for x in (w[0], 3 * w[1], 3 * w[2], w[3]))


def _divisor_work(w) -> int:
    """Trial divisions a rational-root search by divisor enumeration makes
    on a u^3 + ... + d v^3: one pass over sqrt|d|, then one over sqrt|a|
    per divisor of d.  Strata are cut along this input property."""
    a, d = int(w[0]), int(w[3])
    return isqrt(abs(d)) + _divisor_count(d) * isqrt(abs(a)) if a and d else 0


def _entry(ctx, base, D, A, w):
    return {
        "D": D,
        "A": [str(x) for x in A.entries()],
        "w": [str(x) for x in w],
        "bits": _bits(w),
        "divisor_work": _divisor_work(w),
        "tr": _record_ref(_outcome(lambda: ctx.transform_coefficient(base[D], A))),
    }


def make_lift():
    from g2lift import cubic
    from g2lift.exact import mat2
    from g2lift.lift import LiftContext
    from g2lift.shimura import is_fundamental_discriminant

    ctx = LiftContext(12, Lift.PREC_INT, Lift.PREC_HALF)
    ratio_discs = [D for D in range(1, 151) if is_fundamental_discriminant(D)]
    base_discs = [D for D in ratio_discs if D <= 109]
    base = {D: ctx.fourier_coefficient((-D, 0, Fraction(1, 3), 0)) for D in base_discs}
    ratios = [ctx.gross_ratio((-D, 0, Fraction(1, 3), 0)) for D in base_discs]
    assert (max(ratios) - min(ratios)) / min(ratios) < Lift.SPREAD_TOL

    rng = random.Random(POOL_SEED)
    want = {b: size for b, (_, size) in TAKE.items()}
    pool, seen, slowest = [], set(), 0.0
    for _attempt in range(10**6):
        if not any(want.values()):
            break
        D = rng.choice(base_discs)
        bound = int(2 ** rng.uniform(0, 9))
        dmax = rng.choice((1, 2, 4, 8))
        A = mat2(*(Fraction(rng.randint(-bound, bound), rng.randint(1, dmax)) for _ in range(4)))
        if A.det() == 0:
            continue
        A, w = _translate(D, A, mat2)
        if (w[1] == 0 and w[3] == 0) or tuple(w) in seen or want.get(_bits(w), 0) == 0:
            continue
        entry = _entry(ctx, base, D, A, w)
        seen.add(tuple(w))
        want[entry["bits"]] -= 1
        t0 = time.perf_counter()
        entry["coef"] = _record_ref(_outcome(lambda: ctx.fourier_coefficient(w)))
        entry["etale"] = str(cubic.etale_type(w))
        entry["maximal"] = cubic.is_maximal(cubic.cubic_ring(w))
        slowest = max(slowest, time.perf_counter() - t0)
        pool.append(entry)
    else:
        raise RuntimeError(f"pool not filled: {want}")
    print(f"pool: {len(pool)} vectors, slowest coefficient+classify {slowest:.2f}s")

    strata = []
    for bits, (take, _) in sorted(TAKE.items()):
        idx = [i for i, e in enumerate(pool) if e["bits"] == bits]
        idx.sort(key=lambda i: (pool[i]["divisor_work"], i))
        strata.append({"bits": bits, "take": take, "entries": idx})

    # Deadline slice: a unimodular A with 22-bit entries gives a translate
    # with >= 64-bit coefficients whose transform and maximality test stay
    # cheap (det m' = 1), while rational-root search by divisor
    # enumeration runs for hours.
    D = base_discs[1]
    while True:
        p, q = rng.getrandbits(22) | 1 << 21, rng.getrandbits(22) | 1 << 21
        if gcd(p, q) != 1:
            continue
        s = pow(p, -1, q)  # p s - q r = 1
        A, w = _translate(D, mat2(p, q, (p * s - 1) // q, s), mat2)
        slice_entry = _entry(ctx, base, D, A, w)
        if slice_entry["bits"] >= 64 and isinstance(slice_entry["tr"], dict):
            break
    slice_entry.update(
        coef=None,
        etale=str(cubic.etale_type((-D, 0, Fraction(1, 3), 0))),
        maximal=cubic.is_maximal(cubic.cubic_ring(w)),
    )

    _, warm_w = _translate(base_discs[1], mat2(1, 2, 1, 3), mat2)
    _write(
        "lift_inputs.json",
        {
            "pool_seed": POOL_SEED,
            "pool": pool,
            "strata": strata,
            "slice": [slice_entry],
            "base_discs": base_discs,
            "base_records": {str(D): _record_ref(rec) for D, rec in base.items()},
            "ratio_discs": ratio_discs,
            "ratio_constant": sorted(ratios)[len(ratios) // 2],
            "warmup_w": [str(x) for x in warm_w],
        },
    )


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for make in (make_structure, make_lift, make_halfint):
        t0 = time.perf_counter()
        make()
        print(f"{make.__name__}: {time.perf_counter() - t0:.1f}s", flush=True)
