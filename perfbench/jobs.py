"""Seeded job lists for the three benchmark workloads, how each job runs,
and the exactness gate every job output passes through.

Inputs come from a fixed pool: every slot of a workload's catalogue has
VARIANTS variants, drawn once from POOL_SEED, and goldens/<workload>.json
holds the exact output of every variant as recorded from the library. The
run seed picks the variant of each slot for each pass, the accuracy target
inside the band that keeps the slot's grid order, the fresh moment points,
and the job order. Slot shapes (n, degree, term count, grid order) are fixed,
so the work in one pass barely depends on the seed and runs on different
seeds can be compared.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from math import comb, perm
from pathlib import Path
from random import Random

POOL_SEED = 20131101
VARIANTS = 8
MC_SIGMAS = 6  # a Monte Carlo estimate must lie within this many standard errors

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("scan", "bernstein", "cli-cold")

WHY = {
    "scan": "grid search and certificates over n 3-14, 2 to dense terms and "
    "grids of 0.1k-52k points; nearly all time is in the grid scan",
    "bernstein": "Bernstein routes, moments, excess and Monte Carlo; stresses term "
    "output, evaluate, combinatorics and the lru_cache",
    "cli-cold": "one fresh CLI process per job on tiny inputs; interpreter start "
    "and import dominate",
}

# ---------------------------------------------------------------------------
# Catalogues. A slot is (name, kind, params); names are the golden keys.
# ---------------------------------------------------------------------------

# ptas: family, n, d, terms, grid order, big coefficients
SCAN_SLOTS = [
    ("ptas-q14-r2", "ptas", dict(family="quad", n=14, d=2, terms=105, r=2)),
    ("ptas-q14-r4", "ptas", dict(family="quad", n=14, d=2, terms=40, r=4)),
    ("ptas-q10-r8", "ptas", dict(family="quad", n=10, d=2, terms=42, r=8)),
    ("ptas-q8-r8", "ptas", dict(family="quad", n=8, d=2, terms=36, r=8)),
    ("ptas-q12-r4-big", "ptas", dict(family="quad", n=12, d=2, terms=60, r=4, big=True)),
    ("ptas-q6-r8", "ptas", dict(family="quad", n=6, d=2, terms=4, r=8)),
    ("ptas-c10-r7", "ptas", dict(family="cubic", n=10, d=3, terms=24, r=7)),
    ("ptas-c8-r7", "ptas", dict(family="cubic", n=8, d=3, terms=80, r=7)),
    ("ptas-c5-r15", "ptas", dict(family="cubic", n=5, d=3, terms=35, r=15)),
    ("ptas-c6-r15", "ptas", dict(family="cubic", n=6, d=3, terms=20, r=15)),
    ("ptas-c4-r31", "ptas", dict(family="cubic", n=4, d=3, terms=20, r=31)),
    ("ptas-c5-r31", "ptas", dict(family="cubic", n=5, d=3, terms=11, r=31)),
    ("ptas-c3-r31-big", "ptas", dict(family="cubic", n=3, d=3, terms=2, r=31, big=True)),
    ("ptas-c6-r15-big", "ptas", dict(family="cubic", n=6, d=3, terms=38, r=15, big=True)),
    ("ptas-s3n10-r6", "ptas", dict(family="sqfree", n=10, d=3, terms=30, r=6)),
    ("ptas-s3n6-r12", "ptas", dict(family="sqfree", n=6, d=3, terms=20, r=12)),
    ("ptas-s3n5-r24", "ptas", dict(family="sqfree", n=5, d=3, terms=10, r=24)),
    ("ptas-s2n14-r4", "ptas", dict(family="sqfree", n=14, d=2, terms=80, r=4)),
    ("ptas-s2n9-r8", "ptas", dict(family="sqfree", n=9, d=2, terms=36, r=8)),
    ("ptas-s3n4-r24-big", "ptas", dict(family="sqfree", n=4, d=3, terms=4, r=24, big=True)),
    ("power-d2n6-r8", "power", dict(n=6, d=2, r=8)),
    ("power-d3n5-r15", "power", dict(n=5, d=3, r=15)),
    ("power-d3n4-r31", "power", dict(n=4, d=3, r=31)),
    ("power-d2n14-r4", "power", dict(n=14, d=2, r=4)),
    ("power-d4n6-r10", "power", dict(n=6, d=4, r=10)),
    ("general-n6-r12", "general", dict(n=6, d=4, terms=110, r=12)),
    ("general-n6-r10", "general", dict(n=6, d=4, terms=60, r=10)),
    ("general-n8-r8", "general", dict(n=8, d=4, terms=24, r=8)),
    ("general-n4-r20", "general", dict(n=4, d=4, terms=35, r=20)),
    ("general-n6-r12-big", "general", dict(n=6, d=4, terms=16, r=12, big=True)),
    ("range-c6-r9", "range", dict(family="cubic", n=6, d=3, terms=30, r=9)),
    ("range-q9-r6", "range", dict(family="quad", n=9, d=2, terms=40, r=6)),
    ("range-c5-r12-big", "range", dict(family="cubic", n=5, d=3, terms=16, r=12, big=True)),
    ("stable-n10-r6", "stable", dict(n=10, density=0.5, r=6)),
    ("stable-n12-r5", "stable", dict(n=12, density=0.6, r=5)),
    ("stable-n14-r4", "stable", dict(n=14, density=0.5, r=4)),
    ("stable-n14-r5", "stable", dict(n=14, density=0.7, r=5)),
]

BERNSTEIN_SLOTS = [
    ("routes-q4-r6", "routes", dict(family="quad", n=4, d=2, terms=6, r=6)),
    ("routes-q5-r10", "routes", dict(family="quad", n=5, d=2, terms=10, r=10)),
    ("routes-c4-r12", "routes", dict(family="cubic", n=4, d=3, terms=10, r=12)),
    ("routes-c3-r20", "routes", dict(family="cubic", n=3, d=3, terms=6, r=20)),
    ("routes-c5-r8", "routes", dict(family="cubic", n=5, d=3, terms=12, r=8)),
    ("routes-s3n6-r8", "routes", dict(family="sqfree", n=6, d=3, terms=10, r=8)),
    ("routes-g3-r16", "routes", dict(family="general", n=3, d=4, terms=10, r=16)),
    ("routes-g4-r10", "routes", dict(family="general", n=4, d=4, terms=12, r=10)),
    ("routes-c6-r8-big", "routes", dict(family="cubic", n=6, d=3, terms=8, r=8, big=True)),
    ("excess-c3-r4-v32", "excess", dict(n=3, d=3, terms=6, r=4, verify=32)),
    ("excess-g4-r4-v26", "excess", dict(n=4, d=4, terms=8, r=4, verify=26)),
    ("excess-g4-r5-v26", "excess", dict(n=4, d=4, terms=8, r=5, verify=26)),
    ("excess-q4-r5-v30", "excess", dict(n=4, d=2, terms=6, r=5, verify=30)),
    ("excess-c4-r6-v28", "excess", dict(n=4, d=3, terms=6, r=6, verify=28)),
    ("excess-q5-r4-v16", "excess", dict(n=5, d=2, terms=8, r=4, verify=16)),
    ("excess-c5-r4-v16", "excess", dict(n=5, d=3, terms=6, r=4, verify=16)),
    ("mc-c3-r8", "mc", dict(n=3, d=3, terms=5, r=8, samples=8000)),
    ("mc-q5-r12", "mc", dict(n=5, d=2, terms=8, r=12, samples=8000)),
    ("mc-g4-r20", "mc", dict(n=4, d=4, terms=6, r=20, samples=8000)),
    ("mc-c6-r10", "mc", dict(n=6, d=3, terms=10, r=10, samples=8000)),
    ("selftest", "selftest", dict()),
    # moment groups share one (n, r, x) across their orders, so the
    # probability table cache hits after the first; fresh jobs draw a new
    # point each time and miss. The fresh jobs share one shape and make up
    # the middle of the latency distribution, which keeps job_cpu_p50_s steady.
    ("moments-n3-r8-shared", "moments", dict(n=3, r=8, orders=5, fresh=False)),
    ("moments-n4-r10-shared", "moments", dict(n=4, r=10, orders=5, fresh=False)),
    ("moments-n2-r12-shared", "moments", dict(n=2, r=12, orders=4, fresh=False)),
    ("moments-n5-r8-shared", "moments", dict(n=5, r=8, orders=4, fresh=False)),
    ("moments-n4-r8-fresh", "moments", dict(n=4, r=8, orders=18, fresh=True)),
]

CLI_SLOTS = [
    ("cli-gridmin-q3", "cli-grid-min", dict(n=3, d=2, terms=4, r=6)),
    ("cli-gridmin-c4", "cli-grid-min", dict(n=4, d=3, terms=5, r=5)),
    ("cli-gridmin-q5", "cli-grid-min", dict(n=5, d=2, terms=6, r=4)),
    ("cli-gridmax-c3", "cli-grid-max", dict(n=3, d=3, terms=4, r=6)),
    ("cli-gridmax-q4", "cli-grid-max", dict(n=4, d=2, terms=5, r=5)),
    ("cli-bernstein-q3", "cli-bernstein", dict(n=3, d=2, terms=4, r=4)),
    ("cli-bernstein-c3", "cli-bernstein", dict(n=3, d=3, terms=4, r=5)),
    ("cli-bound-q3", "cli-bound", dict(n=3, d=2, terms=4, r=5)),
    ("cli-bound-c4", "cli-bound", dict(n=4, d=3, terms=5, r=4)),
    ("cli-bound-g3", "cli-bound", dict(n=3, d=4, terms=5, r=5)),
    ("cli-ptas-q4", "cli-ptas", dict(n=4, d=2, terms=5, eps="1/4")),
    ("cli-ptas-c3", "cli-ptas", dict(n=3, d=3, terms=4, eps="1/4")),
    ("cli-moments-n3", "cli-moments", dict(n=3, r=6)),
    ("cli-moments-n4", "cli-moments", dict(n=4, r=5)),
    ("cli-stable-n6", "cli-stable-set", dict(n=6, density=0.4, r=3)),
    ("cli-stable-n8", "cli-stable-set", dict(n=8, density=0.3, r=3)),
]

SLOTS = {"scan": SCAN_SLOTS, "bernstein": BERNSTEIN_SLOTS, "cli-cold": CLI_SLOTS}


# ---------------------------------------------------------------------------
# Deterministic input generation (independent of the library)
# ---------------------------------------------------------------------------


def _exponents(n: int, d: int, square_free: bool) -> list[tuple[int, ...]]:
    if square_free:
        return [tuple(1 if i in s else 0 for i in range(n)) for s in itertools.combinations(range(n), d)]
    out = []
    for bars in itertools.combinations(range(n + d - 1), n - 1):
        prev, alpha = -1, []
        for b in bars:
            alpha.append(b - prev - 1)
            prev = b
        alpha.append(n + d - 2 - prev)
        out.append(tuple(alpha))
    return out


def _random_terms(rng: Random, n: int, d: int, terms: int, square_free: bool, big: bool):
    population = _exponents(n, d, square_free)
    if terms >= len(population):
        chosen = population
    elif square_free:
        chosen = rng.sample(population, terms)
    else:
        # one term with a square keeps the sharper square-free bound (and
        # its different grid order) out of the non-square-free slots
        first = rng.choice([b for b in population if max(b) > 1])
        chosen = [first] + rng.sample([b for b in population if b != first], terms - 1)
    out = []
    for beta in chosen:
        mag = rng.randint(10**20, 10**22) if big else rng.randint(1, 9)
        out.append((beta, rng.choice((1, -1)) * mag, rng.randint(1, 9)))
    return out


def _poly_text(terms) -> str:
    parts = []
    for beta, num, den in terms:
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(beta) if e]
        coeff = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        parts.append(("- " if num < 0 else "+ ") + coeff + "*" + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _power_text(n: int, d: int) -> str:
    return " + ".join(f"x{i + 1}^{d}" for i in range(n))


def _graph_text(rng: Random, n: int, density: float) -> str:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density]
    return "\n".join([f"p {n} {len(edges)}"] + [f"e {i} {j}" for i, j in edges]) + "\n"


def _simplex_point(rng: Random, n: int) -> list[str]:
    """A rational point in the interior of the simplex with a random
    denominator."""
    den = rng.randint(n + 6, n + 18)
    cuts = sorted(rng.sample(range(1, den), n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [f"{p}/{den}" for p in parts]


def _moment_order(rng: Random, n: int) -> list[int]:
    total = rng.randint(2, 5)
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _relative_factor(family: str, d: int, r: int) -> Fraction:
    if family == "quad":
        return Fraction(1, r)
    if family == "cubic":
        return Fraction(4, r) - Fraction(4, r * r)
    return 1 - Fraction(perm(r, d), r**d)


def _epsilon_in_band(rng: Random, family: str, d: int, r: int) -> str:
    """An accuracy target whose smallest adequate grid order is exactly r:
    factor(r) <= eps < factor(r - 1)."""
    lo = _relative_factor(family, d, r)
    hi = _relative_factor(family, d, r - 1) if r > (2 if family == "cubic" else 1) else Fraction(2)
    hi = min(hi, Fraction(1) + Fraction(1, 10**6))
    den = 10**4
    first = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
    last = (hi.numerator * den - 1) // hi.denominator  # largest k with k/den < hi
    eps = Fraction(rng.randint(first, min(last, den)), den)
    assert lo <= eps < hi and eps <= 1
    return f"{eps.numerator}/{eps.denominator}"


def set_epsilon(spec: dict, rng: Random) -> None:
    """Give a PTAS job an accuracy target from the band that keeps its slot's
    grid order. Quartic power sums run at a fixed order instead."""
    if spec["kind"] not in ("ptas", "power"):
        return
    family = spec.get("family") or {2: "quad", 3: "cubic"}.get(spec["d"])
    if family is not None:
        spec["eps"] = _epsilon_in_band(rng, family, spec["d"], spec["r"])


def variant_spec(workload: str, slot: tuple, variant: int) -> dict:
    """The pool input for one slot variant: a pure function of the pool seed."""
    name, kind, p = slot
    rng = Random(f"{POOL_SEED}/{name}/{variant}")
    spec = {"key": f"{name}/{variant}", "slot": name, "kind": kind, **p}
    family = p.get("family")
    if "terms" in p:
        terms = _random_terms(rng, p["n"], p["d"], p["terms"], family == "sqfree", p.get("big", False))
        spec["poly"] = _poly_text(terms)
        spec["coef_digits"] = max(len(str(abs(num))) for _, num, _ in terms)
    if kind == "power":
        spec["poly"] = _power_text(p["n"], p["d"])
        spec["coef_digits"] = 1
    if kind in ("stable", "cli-stable-set"):
        spec["graph"] = _graph_text(rng, p["n"], p["density"])
    if kind in ("routes", "mc"):
        spec["point_seed"] = rng.randrange(2**31)
    if kind == "mc":
        spec["x"] = _simplex_point(rng, p["n"])
    if kind == "cli-moments":
        spec["x"] = _simplex_point(rng, p["n"])
        spec["beta"] = _moment_order(rng, p["n"])
    return spec


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def pass_jobs(workload: str, seed, index: int, slots=None) -> list[dict]:
    """The job list of pass `index`: every slot once, in a seeded order.
    Each run of VARIANTS consecutive passes uses every variant of a slot
    once, so a run's work hardly depends on the seed."""
    rng = Random(f"{seed}:{index}/{workload}")
    jobs = []
    for slot in slots if slots is not None else SLOTS[workload]:
        name, kind, p = slot
        cycle = Random(f"{seed}:{index // VARIANTS}/{workload}/{name}").sample(range(VARIANTS), VARIANTS)
        if kind == "moments":
            x = _simplex_point(rng, p["n"])
            for k in range(p["orders"]):
                jobs.append({"key": None, "slot": name, "kind": kind, "n": p["n"], "r": p["r"],
                             "x": x if not p["fresh"] else _simplex_point(rng, p["n"]),
                             "beta": _moment_order(rng, p["n"])})
            continue
        spec = variant_spec(workload, slot, cycle[index % VARIANTS])
        set_epsilon(spec, rng)
        jobs.append(spec)
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload: str, seed: int) -> list[dict]:
    """One job of every kind, from the first slot of that kind, drawn from a
    stream that no timed pass uses."""
    first: dict[str, tuple] = {}
    for slot in SLOTS[workload]:
        first.setdefault(slot[1], slot)
    return pass_jobs(workload, f"warmup-{seed}", 0, slots=list(first.values()))


def grid_points(spec: dict) -> int:
    """Points of the grid the job scans or expands (0 for jobs without one)."""
    if "verify" in spec:
        return comb(spec["n"] + spec["verify"] - 1, spec["verify"])
    if "r" in spec and spec["kind"] not in ("moments", "mc", "cli-moments"):
        return comb(spec["n"] + spec["r"] - 1, spec["r"])
    return 0


def provenance(workload: str, jobs: list[dict]) -> dict:
    """Job count, grid-size histogram and large-coefficient share of a pass."""
    buckets = {"0": 0, "<2k": 0, "2k-10k": 0, "10k-50k": 0, ">50k": 0}
    big = with_coefficients = 0
    for spec in jobs:
        pts = grid_points(spec)
        label = "0" if not pts else "<2k" if pts < 2000 else "2k-10k" if pts < 10000 else "10k-50k" if pts <= 50000 else ">50k"
        buckets[label] += 1
        if "coef_digits" in spec:
            with_coefficients += 1
            big += spec["coef_digits"] > 20
    return {
        "jobs_per_pass": len(jobs),
        "grid_points_histogram": buckets,
        "big_coefficient_jobs": big,
        "polynomial_jobs": with_coefficients,
        "why": WHY[workload],
    }


# ---------------------------------------------------------------------------
# Running a job in process. `sx` is the simplexopt package; every library
# call goes through its attributes at call time.
# ---------------------------------------------------------------------------


def prepare(sx, spec: dict) -> dict:
    """Set-up work for one in-process job: parse its polynomial or graph."""
    job = {"spec": spec}
    if "poly" in spec:
        job["f"] = sx.parse_polynomial(spec["poly"], spec["n"])
    if "graph" in spec:
        job["adjacency"] = sx.parse_graph(spec["graph"])
    if "x" in spec:
        job["x"] = [Fraction(v) for v in spec["x"]]
    return job


def _family_bound(sx, family: str):
    return {"quad": sx.bound_quadratic, "cubic": sx.bound_cubic, "sqfree": sx.bound_squarefree}[family]


def execute(sx, job: dict):
    """Run one job; returns the raw library results for the gate."""
    spec = job["spec"]
    kind = spec["kind"]
    if kind == "ptas":
        return sx.ptas_approximate(job["f"], Fraction(spec["eps"]))
    if kind == "power":
        n, d = spec["n"], spec["d"]
        rng = sx.exact_range(Fraction(1, n ** (d - 1)), 1)
        if "eps" in spec:
            return sx.ptas_approximate(job["f"], Fraction(spec["eps"]), rng)
        gm = sx.grid_minimize(job["f"], spec["r"])
        return gm.argmin, gm.value, sx.bound_general(job["f"], spec["r"], rng, grid_result=gm)[0]
    if kind == "general":
        f, r = job["f"], spec["r"]
        gm = sx.grid_minimize(f, r)
        return gm.argmin, gm.value, *sx.bound_general(f, r, sx.coefficient_range(f), grid_result=gm)
    if kind == "range":
        f, r = job["f"], spec["r"]
        rng = sx.grid_range(f, r)
        cert = _family_bound(sx, spec["family"])(f, r, rng)
        return rng, cert
    if kind == "stable":
        return sx.stable_set_bounds(job["adjacency"], spec["r"])
    if kind == "routes":
        f, r = job["f"], spec["r"]
        homogeneous = sx.bernstein_definitional(f, r).homogeneous
        reduced = sx.bernstein_closed_form(f, r).reduced
        special = None
        if spec["family"] == "quad":
            special = sx.bernstein_quadratic(f, r).reduced
        elif spec["family"] == "cubic":
            special = sx.bernstein_cubic(f, r).reduced
        elif spec["family"] == "sqfree":
            special = sx.bernstein_squarefree(f, r).reduced
        points = sx.sample_grid_points(f.n, 10, Random(spec["point_seed"]))
        values = [(sx.evaluate(homogeneous, x), sx.evaluate(reduced, x)) for x in points]
        return homogeneous, reduced, special, values
    if kind == "excess":
        return sx.bernstein_excess_on_grid(job["f"], spec["r"], verify_order=spec["verify"])
    if kind == "mc":
        x = [float(v) for v in job["x"]]
        return sx.monte_carlo_bernstein(job["f"], spec["r"], x, spec["samples"], spec["point_seed"])
    if kind == "moments":
        n, r, beta = spec["n"], spec["r"], spec["beta"]
        return sx.moment_direct(n, r, beta, job["x"]), sx.moment_stirling(n, r, beta, job["x"])
    if kind == "selftest":
        return sx.run_selftest()
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# Canonical outputs and the exactness gate
# ---------------------------------------------------------------------------


def rat(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _cert(c) -> dict:
    return {
        "theorem": c.theorem, "n": c.n, "d": c.d, "r": c.r,
        "grid_value": rat(c.grid_value), "bound_value": rat(c.bound_value),
        "lower": rat(c.range.lower), "upper": rat(c.range.upper),
        "provenance": c.range.provenance, "gap": rat(c.gap),
        "satisfied": c.satisfied, "ratio": None if c.ratio is None else rat(c.ratio),
    }


def _terms_digest(poly) -> str:
    h = hashlib.sha256()
    for beta in sorted(poly.terms):
        h.update(f"{beta}:{rat(poly.terms[beta])};".encode())
    return h.hexdigest()


def canonical(spec: dict, raw) -> dict:
    """The exact, seed-independent output of a job as plain JSON data."""
    kind = spec["kind"]
    if kind in ("ptas", "power"):
        point, value, cert = raw
        return {"alpha": list(point.alpha), "r": point.r, "value": rat(value), "certificate": _cert(cert)}
    if kind == "general":
        point, value, *certs = raw
        return {"alpha": list(point.alpha), "r": point.r, "value": rat(value),
                "certificates": [_cert(c) for c in certs]}
    if kind == "range":
        rng, cert = raw
        return {"lower": rat(rng.lower), "upper": rat(rng.upper), "certificate": _cert(cert)}
    if kind == "stable":
        alpha_lower, value, cert = raw
        return {"alpha_lower": alpha_lower, "value": rat(value), "certificate": _cert(cert)}
    if kind == "routes":
        homogeneous, reduced, special, values = raw
        return {"homogeneous_terms": len(homogeneous.terms), "homogeneous": _terms_digest(homogeneous),
                "reduced_terms": len(reduced.terms), "reduced": _terms_digest(reduced),
                "values": [rat(a) for a, _ in values]}
    if kind == "excess":
        value, point = raw
        return {"value": rat(value), "alpha": list(point.alpha)}
    if kind == "mc":
        estimate, stderr = raw
        return {"estimate": repr(estimate), "stderr": repr(stderr)}
    if kind == "moments":
        return {"direct": rat(raw[0]), "stirling": rat(raw[1])}
    if kind == "selftest":
        return {"checks": [[res.name, res.passed] for res in raw]}
    raise ValueError(f"unknown job kind {kind!r}")


def oracle_problems(sx, job: dict, raw) -> tuple[list[str], int, int]:
    """Checks against an independent oracle. Returns the problems found and
    the number of Bernstein route checks made and passed."""
    spec = job["spec"]
    kind = spec["kind"]
    problems: list[str] = []
    checks = agreed = 0
    if kind == "power":
        _, value, cert = raw
        want = sx.sum_of_powers_grid_min(spec["n"], spec["r"], spec["d"])
        if value != want or cert.grid_value != want:
            problems.append(f"power-sum minimum {value} != closed form {want}")
    elif kind == "stable":
        exact = sx.brute_force_stable_set_number(job["adjacency"])
        if not raw[0] <= exact:
            problems.append(f"alpha_lower {raw[0]} exceeds the stable-set number {exact}")
    elif kind == "routes":
        homogeneous, reduced, special, values = raw
        for a, b in values:
            checks += 1
            agreed += a == b
        if special is not None:
            checks += 1
            agreed += special.terms == reduced.terms
        if agreed != checks:
            problems.append(f"Bernstein routes disagree on {checks - agreed} of {checks} checks")
    elif kind == "moments":
        if raw[0] != raw[1]:
            problems.append(f"moment_direct {raw[0]} != moment_stirling {raw[1]}")
    elif kind == "mc":
        estimate, stderr = raw
        exact = float(sx.evaluate(sx.bernstein_closed_form(job["f"], spec["r"]).reduced, job["x"]))
        if abs(estimate - exact) > MC_SIGMAS * stderr + 1e-9 * max(1.0, abs(exact)):
            problems.append(f"Monte Carlo {estimate} +- {stderr} misses exact {exact}")
    elif kind == "selftest":
        failed = [res.name for res in raw if not res.passed]
        if failed:
            problems.append(f"selftest checks failed: {failed}")
    return problems, checks, agreed


def golden_problems(spec: dict, output: dict, goldens: dict) -> list[str]:
    key = spec.get("key")
    if key is None:
        return []
    if key not in goldens:
        return [f"no golden value for {key}"]
    if goldens[key] != output:
        return [f"{key}: output {output} != golden {goldens[key]}"]
    return []


# ---------------------------------------------------------------------------
# CLI jobs
# ---------------------------------------------------------------------------


def cli_argv(spec: dict, graph_dir: Path) -> list[str]:
    """Arguments after `python -m simplexopt.cli` for one cli-cold job;
    writes the job's graph file into graph_dir when it has one."""
    kind = spec["kind"]
    poly = spec.get("poly", "")
    if poly.startswith("-"):
        poly = " " + poly  # keep argparse from reading it as an option
    if kind in ("cli-grid-min", "cli-grid-max"):
        argv = ["grid-min", poly, "--n", str(spec["n"]), "--r", str(spec["r"])]
        if kind == "cli-grid-max":
            argv.append("--max")
    elif kind == "cli-bernstein":
        argv = ["bernstein", poly, "--n", str(spec["n"]), "--r", str(spec["r"]), "--route", "auto"]
    elif kind == "cli-bound":
        argv = ["bound", poly, "--n", str(spec["n"]), "--r", str(spec["r"])]
    elif kind == "cli-ptas":
        argv = ["ptas", poly, "--n", str(spec["n"]), "--epsilon", spec["eps"]]
    elif kind == "cli-moments":
        argv = ["moments", "--n", str(spec["n"]), "--r", str(spec["r"]),
                "--beta", ",".join(map(str, spec["beta"])), "--x", ",".join(spec["x"])]
    elif kind == "cli-stable-set":
        graph_dir.mkdir(parents=True, exist_ok=True)
        path = graph_dir / (spec["key"].replace("/", "-") + ".col")
        path.write_text(spec["graph"], encoding="utf-8")
        argv = ["stable-set", str(path.relative_to(BENCH_DIR.parent)), "--r", str(spec["r"]), "--brute"]
    else:
        raise ValueError(f"unknown CLI job kind {kind!r}")
    return argv + ["--json"]
