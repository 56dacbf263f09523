"""`branch._lapack`: scipy's compiled LAPACK extension, loaded without `scipy.linalg`.

Each probe runs in a fresh interpreter, since this one has imported
`scipy.linalg` already.  The loader depends on scipy's file layout, so these
tests also run on the oldest supported numpy and scipy.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import memsplate

# Runs one N = 9 sweep in the mode given as argv[2] and prints, as its last
# line, what the loader did and digests of the factors and the sweep:
#   file          the loader finds the extension's file;
#   linalg-first  `import scipy.linalg` runs before the first solve;
#   miss          the file search finds nothing, so the loader falls back.
_LOADER_PROBE = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
mode = sys.argv[2]
if mode == "linalg-first":
    import scipy.linalg
    first = sys.modules["scipy.linalg._flapack"]
from memsplate import branch
from memsplate.branch import ContinuationConfig, _ClampedSolver, sweep_branch
from memsplate.grid import BoundaryData, build_grid

searches, search = [], branch._flapack_spec

def spy():
    searches.append(mode)
    return None if mode == "miss" else search()

branch._flapack_spec = spy
s = _ClampedSolver(build_grid(9, 512, 2.0), BoundaryData(0.0, 0.0))
lu, piv = s.lu
# the workspace entries that stand for no matrix entry are never written
r, j = np.indices(lu.shape)
row = j + r - (s.kl + s.ku)
res = sweep_branch(ContinuationConfig(N=9, M=512))
out = {
    "factors": hashlib.sha256(lu[(0 <= row) & (row < lu.shape[1])].tobytes()).hexdigest(),
    "pivots": hashlib.sha256(piv.tobytes()).hexdigest(),
    "sweep": [*(x.hex() for x in (res.lam_star_estimate, *res.lam_star_bracket)),
              res.classification, res.fold, res.factorizations, res.failed_solves,
              res.trace_points, res.newton_steps, res.halvings, res.refinements,
              res.fold_secant_steps],
    "searches": len(searches),
    "loaded": [m for m in ("scipy.linalg", "scipy._lib._array_api", "scipy.linalg._flapack")
               if m in sys.modules],
}
import scipy.linalg.lapack
lapack = branch._lapack()
out["registered"] = sys.modules["scipy.linalg._flapack"] is lapack
out["same_routines"] = all(
    getattr(lapack, f) is getattr(scipy.linalg.lapack, f)
    is getattr(sys.modules["scipy.linalg._flapack"], f) for f in ("dgbtrf", "dgbtrs"))
if mode == "linalg-first":
    out["reused"] = lapack is first
print(json.dumps(out))
"""


@functools.cache
def _probe(mode):
    src = Path(memsplate.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", _LOADER_PROBE, str(src), mode],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_lapack_loader_runs_no_scipy_linalg_init_and_serves_a_later_import():
    seen = _probe("file")
    assert seen["searches"] == 1
    assert seen["loaded"] == ["scipy.linalg._flapack"]
    # `import scipy.linalg.lapack` after the solves reuses the loader's module
    assert seen["registered"] and seen["same_routines"]


def test_lapack_loader_reuses_the_module_of_a_loaded_scipy_linalg():
    seen = _probe("linalg-first")
    assert seen["searches"] == 0 and seen["reused"]
    assert seen["registered"] and seen["same_routines"]
    assert all(seen[k] == _probe("file")[k] for k in ("factors", "pivots", "sweep"))


def test_lapack_loader_falls_back_to_scipy_linalg_lapack_bit_for_bit():
    seen = _probe("miss")
    assert seen["searches"] == 1
    assert "scipy.linalg" in seen["loaded"]
    assert seen["same_routines"]
    # the same Fortran routines: the same factors, pivots and sweep
    assert all(seen[k] == _probe("file")[k] for k in ("factors", "pivots", "sweep"))
