"""Write reference.json: the package's own answers on the benchmark's inputs.

Run from the repository root, on the commit whose answers are the reference:

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

It runs every input any seed can pick (all clamped data pairs) once, with
BLAS on one thread as in the benchmark, and stores what the checks in
`workloads.py` compare against.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from memsplate import cli, stability  # noqa: E402

import workloads as w  # noqa: E402


def _run(argv: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")


def branch_inputs() -> list[tuple]:
    """(N, M, alpha, beta) of every branch job of every workload and seed."""
    inputs = [(N, w.REGULAR_M, 0.0, 0.0) for N in w.REGULAR_DIMS]
    inputs += [(N, w.SINGULAR_M, 0.0, 0.0) for N in w.SINGULAR_DIMS]
    inputs += [(9, w.SINGULAR_M, a, b) for a, b in w.CLAMPED_DATA]
    inputs.append((9, w.STABILITY_M, 0.0, 0.0))
    return inputs


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=w.REFERENCE)
    args = ap.parse_args()

    ref = {
        "_source": (f"Outputs of the package at commit {commit()} on the benchmark's "
                    "inputs, with OPENBLAS_NUM_THREADS=1, written by "
                    "perfbench/make_reference.py: nu1(N) from memsplate.stability.nu1; "
                    "branch classification and lambda* bracket per N_M_alpha_beta from "
                    "`memsplate branch`; table1 sharpest values as printed by "
                    "`memsplate table1 --rigor interval`."),
        "branch": {}, "nu1": {}, "table1": {},
    }
    for N in range(1, 17):
        ref["nu1"][str(N)] = stability.nu1(N)
    with tempfile.TemporaryDirectory() as d:
        for N, M, alpha, beta in branch_inputs():
            argv = ["branch", "--dim", str(N), "--M", str(M)]
            if alpha or beta:
                argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
            _run(argv, Path(d))
            got = w.read_branch(Path(d), N)
            ref["branch"][w.branch_key(N, M, alpha, beta)] = {
                "bracket": got["bracket"], "classification": got["classification"]}
            print(w.branch_key(N, M, alpha, beta), got["classification"], flush=True)
        _run(["table1", "--rigor", "interval", "--dims",
              ",".join(map(str, w.TABLE1_DIMS))], Path(d))
        for N, row in w.read_table1(Path(d)).items():
            ref["table1"][N] = {k: row[k] for k in ("beta_computed", "lam_prime_computed")}
    args.out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
