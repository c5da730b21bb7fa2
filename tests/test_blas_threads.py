"""The library loads numpy's OpenBLAS with one thread unless told otherwise,
leaves the environment as it found it, and answers the same at any count.

Each case runs in a fresh child process, since OpenBLAS reads its thread
count once, when numpy loads it.  A child on Linux keeps at most two CPUs of
its affinity first, so no case starts more than two threads, and counts its
threads in /proc/self/task.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexopt

SRC = str(Path(simplexopt.__file__).parent.parent)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
LINUX = sys.platform.startswith("linux")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Imports the modules named on the command line, in order, and prints
# whether os.environ is unchanged, whether OPENBLAS_NUM_THREADS is set, and
# the process's thread count (None off Linux).
IMPORTS = """
import json, os, sys
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
before = dict(os.environ)
for name in sys.argv[1:]:
    __import__(name)
print(json.dumps({
    "environ_kept": dict(os.environ) == before,
    "openblas_set": "OPENBLAS_NUM_THREADS" in os.environ,
    "threads": len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None,
}))
"""

# One split float64 scan, large enough for OpenBLAS to thread its products:
# the dense cubic of scripts/kernel_rows.py with n = 12, r = 12.
SCAN = """
import json, os
from fractions import Fraction
from random import Random
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
import simplexopt as sx
import numpy as np
from simplexopt.grid import _Kernel
n, d, r = 12, 3, 12
rng = Random(n * 100 + d * 10 + r)
f = sx.HomogeneousPolynomial(n, d, {beta: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for beta in sx.compositions(n, d)})
kernel = _Kernel(f, r)
result = sx.grid_minimize(f, r)
print(json.dumps({
    "split_float64": kernel.k > 0 and kernel.dtype is np.float64 and kernel.limbs == 1,
    "value": str(result.value),
    "argmin": list(result.argmin.alpha),
}))
"""


def child(script: str, *argv: str, **preset: str) -> dict:
    """Run script in a fresh interpreter whose environment has none of the
    thread variables but those in preset, and return its JSON line."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script, *argv], env={**env, **preset}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_one_thread_and_keeps_the_environment():
    seen = child(IMPORTS, "simplexopt")
    assert seen["environ_kept"] and not seen["openblas_set"]
    if LINUX:
        assert seen["threads"] == 1


@pytest.mark.skipif(not LINUX or CPUS < 2, reason="counts threads in /proc on a host with two or more CPUs")
def test_a_preset_openblas_count_is_kept():
    seen = child(IMPORTS, "simplexopt", OPENBLAS_NUM_THREADS="2")
    assert seen["environ_kept"] and seen["threads"] == 2


@pytest.mark.parametrize("variable", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_standard_variable_is_left_to_openblas(variable):
    seen, numpy_alone = (child(IMPORTS, *modules, **{variable: "2"}) for modules in (["simplexopt"], ["numpy"]))
    assert seen["environ_kept"] and not seen["openblas_set"]
    assert seen["threads"] == numpy_alone["threads"]


def test_numpy_imported_first_is_left_alone():
    seen, numpy_alone = child(IMPORTS, "numpy", "simplexopt"), child(IMPORTS, "numpy")
    assert seen["environ_kept"] and not seen["openblas_set"]
    assert seen["threads"] == numpy_alone["threads"]


@pytest.mark.skipif(CPUS < 2, reason="one CPU: OpenBLAS runs one thread at any setting")
def test_split_float64_scan_is_exact_at_one_and_two_threads():
    one, two = (child(SCAN, OPENBLAS_NUM_THREADS=count) for count in ("1", "2"))
    assert one["split_float64"] and two["split_float64"]
    assert (one["value"], one["argmin"]) == (two["value"], two["argmin"])
