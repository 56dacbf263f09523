"""The benchmark's workloads: their jobs, the inputs the seed picks, and the checks.

Every job is one call into the package as a user makes it: an in-process
`memsplate.cli.main([...])` writing into a fresh directory or, for nu1, which
has no CLI command, `memsplate.stability.nu1(N)`.  A job passes when it returns
normally with exit code 0 and its outputs agree with `reference.json`, the
values the package computed at commit e831c51 on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from memsplate import cli, stability
from memsplate.branch import pullin_bounds
from memsplate.operators import lambda_bar

REFERENCE = Path(__file__).with_name("reference.json")

# Nonzero clamped data (alpha, beta) for the clamped sweep_singular job.  All are
# admissible (beta <= 0, alpha - beta/2 < 1) and take about as long as each
# other, so the seed changes the inputs without changing the work much.
CLAMPED_DATA = ((0.1, -0.1), (0.1, -0.05), (0.05, -0.1), (0.2, 0.0))

REL_TOL_NU1 = 1e-4      # nu1(N) against the stored value
REL_TOL_LAMBDA = 1e-3   # bracket midpoint against the stored midpoint
REL_TOL_TABLE = 1e-4    # table1 sharpest lambda' and beta against the stored ones


@dataclass
class Job:
    name: str
    call: Callable[[Path], object]             # runs the job, writing into the directory
    check: Callable[[Path, object], tuple]     # -> (problems, observed values)


@dataclass
class JobResult:
    name: str
    seconds: float
    cpu_s: float
    problems: list[str]
    observed: dict = field(default_factory=dict)
    probe_samples: tuple = (0, 0)     # slice of the probe samples taken during the job

    @property
    def passed(self) -> bool:
        return not self.problems


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def branch_key(N: int, M: int, alpha: float = 0.0, beta: float = 0.0) -> str:
    return f"N{N}_M{M}_a{alpha:g}_b{beta:g}"


# --------------------------------------------------------------------------
# output readers (also used to produce reference.json)


def read_branch(out: Path, N: int) -> dict:
    doc = json.loads((out / f"branch_N{N}.json").read_text())
    sw = doc.get("sandwich")
    mus = [p["mu1"] for p in doc["points"] if p["mu1"] is not None]
    return {
        "classification": doc["classification"],
        "bracket": list(doc["lambda_star_bracket"]),
        "points": len(doc["points"]),
        "sandwich_passed": (None if sw is None else
                            sw["lower_violation"] <= sw["tol"]
                            and sw["upper_violation"] <= sw["tol"]),
        "mu1_count": len(mus),
        "mu1_min": min(mus) if mus else None,
    }


def read_table1(out: Path) -> dict:
    """Rows of table1.md by dimension: sharpest lambda', sharpest beta, verdict."""
    rows = {}
    for line in (out / "table1.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[0].isdigit():
            rows[cells[0]] = {"lam_prime_computed": float(cells[3]),
                              "beta_computed": float(cells[5]),
                              "verdict": cells[6]}
    return rows


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --------------------------------------------------------------------------
# jobs


def _cli_job(argv: list[str], check_outputs) -> Job:
    def call(out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--out", str(out)])

    def check(out: Path, code):
        if code != 0:
            return [f"exit code {code}"], {}
        return check_outputs(out)

    return Job(" ".join(argv), call, check)


def branch_job(dims: list[int], M: int, ref: dict, alpha: float = 0.0,
               beta: float = 0.0, with_mu1: bool = False) -> Job:
    argv = ["branch", *(["--dim", str(dims[0])] if len(dims) == 1
                        else ["--dims", ",".join(map(str, dims))]), "--M", str(M)]
    if alpha or beta:
        argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
    if with_mu1:
        argv.append("--with-mu1")

    def check_outputs(out: Path):
        problems, observed = [], {}
        for N in dims:
            key = branch_key(N, M, alpha, beta)
            got, want = read_branch(out, N), ref["branch"][key]
            observed[key] = got
            lo, hi = got["bracket"]
            if got["classification"] != want["classification"]:
                problems.append(f"{key}: classified {got['classification']}, "
                                f"expected {want['classification']}")
            mid, want_mid = 0.5 * (lo + hi), 0.5 * sum(want["bracket"])
            if not _rel(mid, want_mid) <= REL_TOL_LAMBDA:
                problems.append(f"{key}: lambda* ~ {mid}, expected {want_mid}")
            if alpha == 0.0 and beta == 0.0:
                lower, upper = pullin_bounds(N, ref["nu1"][str(N)])
                if not lower <= lo < hi <= upper:
                    problems.append(f"{key}: bracket {lo, hi} outside the "
                                    f"pull-in bounds {lower, upper}")
                if N >= 9 and not lo > float(lambda_bar(N)):
                    problems.append(f"{key}: bracket not above lambda_bar")
                if N >= 9 and got["sandwich_passed"] is not True:
                    problems.append(f"{key}: sandwich check failed or missing")
            if with_mu1 and not (got["mu1_count"] == got["points"]
                                 and got["mu1_min"] > 0):
                problems.append(f"{key}: mu1 missing or not positive "
                                f"(min {got['mu1_min']})")
        return problems, observed

    return _cli_job(argv, check_outputs)


def table1_job(dims: list[int], ref: dict) -> Job:
    def check_outputs(out: Path):
        rows = read_table1(out)
        want = {str(N): ref["table1"][str(N)] for N in dims}
        problems = []
        if sorted(rows) != sorted(want):
            problems.append(f"table1 dimensions {sorted(rows)}, expected {sorted(want)}")
        for N in sorted(set(rows) & set(want)):
            got = rows[N]
            if got["verdict"] != "Pass":
                problems.append(f"table1 N={N}: verdict {got['verdict']}")
            for col in ("lam_prime_computed", "beta_computed"):
                if not _rel(got[col], want[N][col]) <= REL_TOL_TABLE:
                    problems.append(f"table1 N={N}: {col} {got[col]}, "
                                    f"expected {want[N][col]}")
        n9 = rows.get("9")
        if 9 in dims and (n9 is None
                          or not n9["beta_computed"] > n9["lam_prime_computed"]):
            problems.append("table1 N=9: beta_computed not above lam_prime_computed")
        return problems, {"table1": rows}

    return _cli_job(["table1", "--rigor", "interval", "--dims", ",".join(map(str, dims))],
                    check_outputs)


def hr_job(variant: str, N: int, seed: int) -> Job:
    def check_outputs(out: Path):
        doc = json.loads((out / f"hr_{variant}_N{N}.json").read_text())
        problems = [] if doc["verdict"] == "Pass" else [f"{variant} N={N}: {doc['verdict']}"]
        return problems, {f"{variant}_N{N}": doc["verdict"]}

    return _cli_job(["hr", "--variant", variant, "--dim", str(N), "--rigor",
                     "interval", "--seed", str(seed)], check_outputs)


def nu1_job(N: int, ref: dict) -> Job:
    def call(out: Path):
        return stability.nu1(N)

    def check(out: Path, value):
        want = ref["nu1"][str(N)]
        problems = ([] if _rel(value, want) <= REL_TOL_NU1
                    else [f"nu1({N}) = {value}, expected {want}"])
        return problems, {f"nu1_{N}": value}

    return Job(f"nu1({N})", call, check)


# The inputs of each workload.  A pass runs every job once.  Jobs are kept to a
# few seconds each, so that a run repeats most of them.
REGULAR_DIMS, REGULAR_M = (3, 4), 512
SINGULAR_DIMS, SINGULAR_M = (9, 12, 16), 2048
TABLE1_DIMS = tuple(range(9, 17)) + (17, 20, 30, 31, 40)
STABILITY_M = 1024


def jobs_for(workload: str, seed: int, ref: dict) -> list[Job]:
    """The jobs of one pass; the seed picks their order and the free inputs."""
    rng = random.Random(seed)
    if workload == "sweep_regular":
        jobs = [branch_job([N], REGULAR_M, ref) for N in REGULAR_DIMS]
    elif workload == "sweep_singular":
        alpha, beta = rng.choice(CLAMPED_DATA)
        jobs = [branch_job([N], SINGULAR_M, ref) for N in SINGULAR_DIMS]
        jobs.append(branch_job([9], SINGULAR_M, ref, alpha, beta))
    elif workload == "certify_interval":
        hr_seed = rng.randrange(2 ** 31)
        jobs = [table1_job([N], ref) for N in TABLE1_DIMS]
        jobs += [hr_job("hr3", 9, hr_seed), hr_job("hr2", 12, hr_seed)]
    elif workload == "stability":
        jobs = [nu1_job(N, ref) for N in range(1, 17)]
        jobs.append(branch_job([9], STABILITY_M, ref, with_mu1=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def run_job(job: Job, workdir: Path) -> JobResult:
    """Run and check one job; a failure is recorded, never raised."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with tempfile.TemporaryDirectory(dir=workdir) as d:
            ret = job.call(Path(d))
            problems, observed = job.check(Path(d), ret)
    except (Exception, SystemExit) as exc:
        traceback.print_exc(file=sys.stderr)
        problems, observed = [f"{type(exc).__name__}: {exc}"], {}
    return JobResult(job.name, time.perf_counter() - t0, time.process_time() - c0,
                     problems, observed)


@dataclass
class Pass:
    wall_s: float       # sum of the jobs' wall times
    cpu_s: float        # sum of the jobs' process CPU times
    jobs: list[JobResult]


def run_pass(jobs: list[Job], workdir: Path, tracer=None) -> Pass:
    """Run every job once; with a tracer, each job is a root span."""
    results = []
    for i, job in enumerate(jobs):
        if tracer is None:
            results.append(run_job(job, workdir))
            continue
        tracer.job = f"{i}:{job.name}"
        with tracer.span("job"):
            results.append(run_job(job, workdir))
    return Pass(sum(r.seconds for r in results), sum(r.cpu_s for r in results), results)


def run_rounds(jobs: list[Job], workdir: Path, seconds: float, probe=None,
               between: Callable[[], None] | None = None) -> list[list[JobResult]]:
    """Run the jobs in turn, each at least once, for about `seconds`.

    After the first whole pass a job runs again only if its last run still
    fits in the time left.  With a speed probe (calibrate.py) active, the time
    its samples took during a job is taken out of that job's times.
    `between` is called after every job, outside the job's time.  Returns the
    results of each job, in the order of `jobs`.
    """
    runs: list[list[JobResult]] = [[] for _ in jobs]
    t_begin = time.perf_counter()
    for k in itertools.count():
        i = k % len(jobs)
        if runs[i] and time.perf_counter() - t_begin + runs[i][-1].seconds > seconds:
            break
        probe_s = probe.total_s if probe is not None else 0.0
        first = len(probe.wall) if probe is not None else 0
        result = run_job(jobs[i], workdir)
        if probe is not None:
            result.seconds -= probe.total_s - probe_s
            result.cpu_s -= probe.total_s - probe_s
            result.probe_samples = (first, len(probe.wall))
        runs[i].append(result)
        if between is not None:
            between()
    return runs


def typical_pass(runs: list[list[JobResult]],
                 probe_wall: list[float] | None = None) -> tuple[float, float]:
    """(wall, cpu) of a pass made of each job's median run.

    Without `probe_wall` the times are seconds.  With the speed probe's
    samples, each run's times are first divided by the mean probe sample taken
    during that run (the mean of all samples if none fell in it), which gives
    times in probe-kernel units.
    """
    def speed(r: JobResult) -> float:
        if probe_wall is None:
            return 1.0
        a, b = r.probe_samples
        return statistics.fmean(probe_wall[a:b] if b > a else probe_wall)

    return (sum(statistics.median(r.seconds / speed(r) for r in rs) for rs in runs),
            sum(statistics.median(r.cpu_s / speed(r) for r in rs) for rs in runs))


def failed_frac(results: list[JobResult]) -> float:
    return sum(not r.passed for r in results) / len(results) if results else 0.0
