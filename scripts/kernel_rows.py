"""Time grid_minimize on dense rows, split and streamed, and one wide row.

    python3 scripts/kernel_rows.py [--src DIR]

Imports simplexopt from DIR (default: ./src of this checkout), so two
checkouts can be compared on the same inputs.  A dense row is a polynomial
with every monomial of degree d in n variables and seeded rational
coefficients; the wide row is the three-term quadratic
x1^2 - 3*x1*xn + xn^2 in n = 1000 variables, whose grid streams in blocks
of n-vectors.  Each is scanned at order r.  Prints one JSON object: per row,
the term and point counts, the minimum CPU seconds of REPEATS scans, a
digest of (value, argmin), and the process's peak RSS after the row, in MiB.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

REPEATS = 3
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


def row(sx, name: str, n: int, d: int, seed: int):
    if name.startswith("wide"):
        return sx.parse_polynomial(f"x1^2 - 3*x1*x{n} + x{n}^2", n)
    rng = Random(seed)
    terms = {beta: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for beta in sx.compositions(n, d)}
    return sx.HomogeneousPolynomial(n, d, terms)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import simplexopt as sx

    out = {}
    for name, (n, d, r) in ROWS.items():
        f = row(sx, name, n, d, seed=n * 100 + d * 10 + r)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.process_time()
            result = sx.grid_minimize(f, r)
            best = min(best, time.process_time() - start)
        digest = hashlib.sha256(f"{result.value}:{result.argmin.alpha}".encode()).hexdigest()[:16]
        out[name] = {
            "n": n, "d": d, "r": r, "terms": len(f.terms), "points": result.evaluations,
            "cpu_s": round(best, 4), "result": digest,
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
