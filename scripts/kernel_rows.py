"""Time grid_minimize on dense rows, split and streamed, and one wide row,
the definitional Bernstein route's build, evaluate on two definitional
forms, the cubic shortcut and the quadratic bound on wide sparse forms,
the Bernstein excess, the stable-set bounds, and the self-test suites.

    python3 scripts/kernel_rows.py [--src DIR]

Imports simplexopt from DIR (default: ./src of this checkout), so two
checkouts can be compared on the same inputs.  A dense row is a polynomial
with every monomial of degree d in n variables and seeded rational
coefficients; the wide row is the three-term quadratic
x1^2 - 3*x1*xn + xn^2 in n = 1000 variables, whose grid streams in blocks
of n-vectors.  Each is scanned at order r.  The compile row times compiling
the dense row of the same n, d and r for its order-r scan (grid._Kernel),
whose first repeat also derives the polynomial's integer form; it builds
no index table.  A build row times building the
order-r definitional Bernstein form of a dense row, a term per grid point,
and the first read of its integer form, which every consumer of the form
makes.  An evaluate row builds that form and evaluates it at EVAL_POINTS
seeded points of the order-37 grid.  The route row builds bernstein_cubic
of a three-term cubic in n variables, and the vertex row certifies
bound_quadratic for x1^2 in n variables at order 1 on its coefficient
range; both are sized by n, not by their few terms.  The excess row takes
bernstein_excess_on_grid of a dense cubic row at order r on the order
EXCESS_VERIFY grid, and the stable-set row stable_set_bounds of a seeded
graph on n vertices, each edge drawn with probability STABLE_DENSITY, at
order r.  The selftest rows run run_selftest() and
run_selftest(deep=True), and the moment-check row the deep suite's
check_moment_equivalence(4, 8, 6, 10, Random(0)) alone.
Each row is repeated at least MIN_REPEATS times, and then until its
repeats have used CPU_FLOOR seconds of CPU or numbered MAX_REPEATS, so a
row of a few ms is not judged on three samples.  Prints one JSON object:
per row, the term and point counts (of the built form, for build,
evaluate and route rows, of the stable-set form for the stable-set row;
the route row has no points, a selftest or moment-check row neither), the
number of repeats, the minimum CPU seconds of a scan, compile, build,
evaluation sweep, excess, certificate or check, the CPU seconds of its
first repeat (a scan's first repeat builds the split index tables that the
later ones find in the process's memo, so the minimum times a warm memo)
and, over the same repeats, the minimum wall seconds (CPU time counts
every BLAS thread, wall time what a caller waits), a digest of (value,
argmin), of the compiled kernel's head length, limbs, denominator and
coefficient matrix, of the
built form's terms in term order (sorted, for the route row), of the
values, of the excess's (value, witness), of the certificate's JSON or of
each check's (name, passed), and the process's peak RSS after the row, in
MiB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from random import Random

MIN_REPEATS, MAX_REPEATS, CPU_FLOOR = 3, 15, 0.2
ROWS = {
    "dense-cubic-n8-r15": (8, 3, 15),
    "dense-quartic-n6-r14": (6, 4, 14),
    "dense-cubic-n12-r12": (12, 3, 12),
    "dense-quadratic-n10-r20": (10, 2, 20),
    # three variables: one head per total, streamed, k = 0
    "dense-quartic-n3-r450": (3, 4, 450),
    # past the split tables' budget: streamed, k = 0
    "dense-quadratic-n20-r8": (20, 2, 8),
    # a thousand variables, two nonzero: streamed in blocks of 131 points
    "wide-n1000-r2": (1000, 2, 2),
}
COMPILE_ROWS = {"compile-dense-cubic-n12-r12": (12, 3, 12)}
BUILD_ROWS = {
    "build-def-cubic-n6-r8": (6, 3, 8),
    # the largest grid the definitional route expands, 10,000 points
    "build-def-quadratic-n2-r9999": (2, 2, 9999),
}
WIDE_ROWS = {
    "route-cubic-n200": (200, 3, 5),
    "vertex-quadratic-n4000": (4000, 2, 1),
}
EXCESS_VERIFY = 28
EXCESS_ROWS = {"excess-cubic-n4-r6": (4, 3, 6)}
STABLE_DENSITY = 0.7
# d = 2, the degree of the graph's Motzkin-Straus form
STABLE_ROWS = {"stable-n14-r5": (14, 2, 5)}
# run_selftest(), run_selftest(deep=True) and the deep suite's moment check;
# no polynomial, no order
SELFTEST_ROWS = {"selftest": (None, None, None), "selftest-deep": (None, None, None), "moment-check-deep": (None, None, None)}
EVAL_POINTS = 10
EVAL_ROWS = {
    # 1,286 terms; 37^8 < 2^63, so evaluate runs on int64
    "evaluate-def-cubic-n6-r8": (6, 3, 8),
    # 231 terms; 37^20 > 2^63, so evaluate runs on Python ints
    "evaluate-def-cubic-n3-r20": (3, 3, 20),
}


def row(sx, name: str, n: int, d: int, seed: int):
    if name.startswith("wide"):
        return sx.parse_polynomial(f"x1^2 - 3*x1*x{n} + x{n}^2", n)
    if name.startswith("route"):
        return sx.parse_polynomial(f"x1^3 - 2*x1*x2*x3 + x{n - 1}^2*x{n}", n)
    if name.startswith("vertex"):
        return sx.parse_polynomial("x1^2", n)
    rng = Random(seed)
    if name.startswith("stable"):  # the adjacency matrix
        adjacency = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adjacency[i][j] = adjacency[j][i] = int(rng.random() < STABLE_DENSITY)
        return adjacency
    terms = {beta: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for beta in sx.compositions(n, d)}
    return sx.HomogeneousPolynomial(n, d, terms)


def built(sx, f, r):
    """The order-r definitional form of f, its integer form read once."""
    form = sx.bernstein_definitional(f, r).homogeneous
    form._integer_form
    return form


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import simplexopt as sx

    def best_of(call):
        times, walls = [], []
        while len(times) < MIN_REPEATS or (sum(times) < CPU_FLOOR and len(times) < MAX_REPEATS):
            start, wall = time.process_time(), time.perf_counter()
            result = call()
            times.append(time.process_time() - start)
            walls.append(time.perf_counter() - wall)
        return (min(times), min(walls), times[0]), len(times), result

    out = {}
    # build rows last: the grid-limit form sets the process's peak RSS
    for name, (n, d, r) in {**SELFTEST_ROWS, **ROWS, **COMPILE_ROWS, **EVAL_ROWS, **WIDE_ROWS, **EXCESS_ROWS, **STABLE_ROWS, **BUILD_ROWS}.items():
        f = None if name in SELFTEST_ROWS else row(sx, name, n, d, seed=n * 100 + d * 10 + r)
        if name.startswith("moment"):
            best, repeats, checks = best_of(lambda: [sx.selftest.check_moment_equivalence(4, 8, 6, 10, Random(0))])
            points, text = None, ";".join(f"{check.name}:{check.passed}" for check in checks)
        elif name in SELFTEST_ROWS:
            best, repeats, checks = best_of(partial(sx.run_selftest, deep=name.endswith("deep")))
            points, text = None, ";".join(f"{check.name}:{check.passed}" for check in checks)
        elif name in COMPILE_ROWS:
            best, repeats, kernel = best_of(partial(sx.grid._Kernel, f, r))
            points, text = sx.grid_size(n, r), f"{kernel.k}:{kernel.limbs}:{kernel.denom}:{kernel.coeffs.tolist()}"
        elif name in BUILD_ROWS:
            best, repeats, f = best_of(partial(built, sx, f, r))
            points, text = sx.grid_size(n, r), ";".join(f"{beta}:{c}" for beta, c in f.terms.items())
        elif name in EVAL_ROWS:
            f = sx.bernstein_definitional(f, r).homogeneous
            xs = sx.sample_grid_points(n, EVAL_POINTS, Random(r))
            best, repeats, values = best_of(lambda: [sx.evaluate(f, x) for x in xs])
            points, text = len(xs), ",".join(map(str, values))
        elif name.startswith("route"):
            best, repeats, result = best_of(partial(sx.bernstein_cubic, f, r))
            f = result.reduced
            points, text = None, ";".join(f"{beta}:{c}" for beta, c in sorted(f.terms.items()))
        elif name in EXCESS_ROWS:
            best, repeats, (value, witness) = best_of(lambda: sx.bernstein_excess_on_grid(f, r, EXCESS_VERIFY))
            points, text = sx.grid_size(n, EXCESS_VERIFY), f"{value}:{witness.alpha}"
        elif name in STABLE_ROWS:
            best, repeats, (_, _, cert) = best_of(partial(sx.stable_set_bounds, f, r))
            f = sx.motzkin_straus(f)
            points, text = sx.grid_size(n, r), json.dumps(cert.to_json_dict())
        elif name.startswith("vertex"):
            best, repeats, cert = best_of(lambda: sx.bound_quadratic(f, r, sx.coefficient_range(f)))
            points, text = sx.grid_size(n, r), json.dumps(cert.to_json_dict())
        else:
            best, repeats, result = best_of(lambda: sx.grid_minimize(f, r))
            points, text = result.evaluations, f"{result.value}:{result.argmin.alpha}"
        out[name] = {
            "n": n, "d": d, "r": r, "terms": None if f is None else len(f.terms), "points": points, "repeats": repeats,
            "cpu_s": round(best[0], 6), "first_cpu_s": round(best[2], 6), "wall_s": round(best[1], 6), "result": hashlib.sha256(text.encode()).hexdigest()[:16],
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
