"""The same outputs whatever CPU kernels numpy and OpenBLAS dispatch to
(ROADMAP item 10).

Three child processes differ only in their environment: the default, an
older OpenBLAS kernel family (``OPENBLAS_CORETYPE=Sandybridge``) and
numpy's x86-64-v2 baseline without its wider SIMD paths
(``NPY_DISABLE_CPU_FEATURES``).  Each writes the 24 shipped sweep CSVs,
the neumark dump and the benchmark's seed-0 ``api_pointwise`` rows, and
the tests compare their bytes: the sweep CSVs, and apart from them the
outputs of the one-pair API.  The variables act only on the children.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mcmag

ROOT = Path(__file__).resolve().parent.parent

SETTINGS = {
    "default": {},
    "OPENBLAS_CORETYPE=Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "x86-64-v2 SIMD": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

#: Every variable a setting sets; the children inherit none of them.
VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

#: The outputs of the one-pair API: the neumark dump and the benchmark's API rows.
ONE_PAIR = ("neumark_static_single", "api_pointwise")

#: Exit code of a child that cannot import numpy under its settings.
NO_NUMPY = 77

CHILD = r"""
import ctypes, glob, hashlib, json, os, sys
try:
    import numpy as np
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    sys.exit(%(no_numpy)d)
import mcmag
from mcmag import sweep
import inputs, workloads

root = sys.argv[1]
texts = {}
names = sorted(n[:-4] for n in os.listdir(os.path.join(root, "configs")) if n.endswith(".cfg"))
for name in names:
    cfg = sweep.load_config(os.path.join(root, "configs", name + ".cfg"))
    if name.startswith("neumark"):
        texts[name] = sweep.neumark_report(cfg)
    elif not name.startswith("validate"):
        texts[name] = sweep.rows_to_csv(sweep.run_sweep(cfg))
api = workloads.ApiPointwise(0, mcmag, None, None)
api.draws = inputs.pair_draws(0)
texts["api_pointwise"] = "\n".join(api.row(fn(False)[0]) for _label, fn in api.ops()) + "\n"

# Which kernels this process dispatches to: numpy's enabled CPU features
# and, where the bundled OpenBLAS says, its kernel family.
from numpy._core._multiarray_umath import __cpu_features__
core = None
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        core = get().decode()
json.dump({
    "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()},
    "kernels": [sorted(k for k, on in __cpu_features__.items() if on), core],
}, sys.stdout)
""" % {"no_numpy": NO_NUMPY}


@pytest.fixture(scope="module")
def children():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the kernel families compared here are x86-64's, not {platform.machine()}'s")
    src = Path(mcmag.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), str(ROOT / "perfbench")])  # perfbench: read-only
    procs = {}
    for name, extra in SETTINGS.items():
        env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
        env.update(extra, PYTHONPATH=path)
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(ROOT)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    done = {name: (proc, *proc.communicate(timeout=300)) for name, proc in procs.items()}
    out = {}
    for name, (proc, stdout, stderr) in done.items():
        if proc.returncode == NO_NUMPY:
            pytest.skip(f"numpy does not import under {name}: {stderr.strip()}")
        assert proc.returncode == 0, f"{name}: {stderr}"
        out[name] = json.loads(stdout)
    if all(out[name]["kernels"] == out["default"]["kernels"] for name in SETTINGS):
        pytest.skip("on this CPU the settings select no other kernel than the default")
    return out


def moved(children, names):
    """Per setting, which of ``names`` differ from the default setting's bytes."""
    want = children["default"]["digests"]
    return {
        setting: sorted(k for k in names if got["digests"][k] != want[k])
        for setting, got in children.items()
    }


def test_sweep_csvs_are_the_same_bytes_under_every_kernel_family(children):
    # The sweep solves in plane coordinates: elementwise real arithmetic only.
    names = [k for k in children["default"]["digests"] if k not in ONE_PAIR]
    assert len(names) == 24
    assert moved(children, names) == {setting: [] for setting in SETTINGS}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: the one-pair solve, the cap and the dilation run through BLAS and "
    "SIMD kernels whose last bits depend on the kernel family",
)
def test_one_pair_outputs_are_the_same_bytes_under_every_kernel_family(children):
    assert moved(children, ONE_PAIR) == {setting: [] for setting in SETTINGS}
