"""memsplate benchmark: one workload in one process, checked against stored answers.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_singular --seed 1 --seconds 26 --trace 0

Workloads (jobs in `workloads.py`; why each exists in BENCHMARK.json):

    sweep_regular     branch --dim N --M 512 for N = 3, 4
    sweep_singular    branch --dim N --M 2048 for N = 9, 12, 16; branch --dim 9
                      --M 2048 with nonzero clamped data --alpha/--beta
    certify_interval  table1 --rigor interval --dims N for each of the 13 table
                      dimensions; hr hr3 N=9 and hr2 N=12 (interval)
    stability         nu1(N) for N = 1..16; branch --dim 9 --M 1024 --with-mu1

The seed fixes the order of the jobs, the `hr --seed` and the clamped data;
everything else is fixed.  Each job is checked against `reference.json`
(written by `make_reference.py`); a failed check counts in `failed` and never
stops the run.

With `--trace 0` the run makes one pass over the jobs and then runs them again
in turn while each still fits in `--seconds`, with a speed probe active
(`calibrate.py`): a CPU-time timer runs and times a small fixed kernel, which
uses no code of the package, every 40 ms.  It reports:
    setup_s      median over several fresh interpreters, started between jobs
                 through the run, of the time from process start until
                 `memsplate.cli` is imported and its parser built
    wall_calib   the wall time of a pass in probe-kernel units: each run of a
                 job (run and checked, probe time taken out) divided by the
                 mean probe sample taken during it, then each job's median run,
                 summed over the jobs
    cpu_calib    the same with process CPU times, over the same probe samples
    peak_rss_mb  ru_maxrss of this process, less the probe's 32 MiB buffer
The two `_calib` metrics are times in probe-kernel units: the speed a shared
host gives one thread drifts by tens of percent within seconds, and the kernel
drifts with it, so the ratio repeats where the raw time does not.  The raw
seconds and every probe sample are kept in the run record.

With `--trace 1` the run makes one untraced pass and then one pass with spans
recorded at the package's layer boundaries (`spans.py`), and reports the
per-layer metrics of the traced pass plus `trace.overhead_s`, the traced
minus the untraced wall time.  The spans are written to
`.perfbench_out/trace-<workload>-seed<n>.json`, and every run writes its record
(machine, versions, BLAS threads, per-job outcomes) next to them.

BLAS is pinned to one thread so that runs on a shared machine repeat; the
record states the count the BLAS libraries report.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_regular", "sweep_singular", "certify_interval", "stability")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
WARMUP_KERNELS = 3

# perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes, so the
# child's reading can be compared with the parent's.
_SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import memsplate.cli; memsplate.cli.build_parser(); "
                "print(time.perf_counter(), flush=True)")


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until memsplate.cli is ready."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.split()[-1]) - t0


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_record() -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
    }


def stability_info(results) -> dict:
    """nu1(1) and nu1(2) against their characteristic-equation oracles (not checked)."""
    from memsplate.stability import beam_eigenvalue_1d, disk_eigenvalue_2d

    seen = {k: v for r in results for k, v in r.observed.items()}
    info = {}
    for N, oracle in ((1, beam_eigenvalue_1d), (2, disk_eigenvalue_2d)):
        if f"nu1_{N}" in seen:
            value, exact = seen[f"nu1_{N}"], oracle()
            info[f"nu1_{N}"] = {"computed": value, "oracle": exact,
                                "rel_error": (value - exact) / exact}
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "memsplate" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'memsplate'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import memsplate
    if Path(memsplate.__file__).resolve().parent != SRC / "memsplate":
        print(f"error: memsplate imported from {memsplate.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import calibrate
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    jobs = workloads.jobs_for(args.workload, args.seed, workloads.load_reference())

    probe, setup = None, []
    if args.trace:
        untraced = workloads.run_pass(jobs, OUT)
        tracer = spans.Tracer()
        with spans.patched(tracer):
            traced = workloads.run_pass(jobs, OUT, tracer)
        results = untraced.jobs + traced.jobs
        metrics = spans.layer_metrics(tracer.spans)
        metrics["trace.untraced_wall_s"] = (untraced.wall_s, "s")
        metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
    else:
        # Set-up samples are spread over the run, between jobs, so that they
        # meet the same fast and slow spells of the machine as the jobs do.
        next_setup = 0.0

        def sample_setup():
            nonlocal next_setup
            if len(setup) < SETUP_SAMPLES and time.perf_counter() >= next_setup:
                setup.append(measure_setup())
                next_setup = time.perf_counter() + args.seconds / SETUP_SAMPLES

        probe = calibrate.SpeedProbe()
        for _ in range(WARMUP_KERNELS):
            probe.kernel()
        with probe:
            sample_setup()
            runs = workloads.run_rounds(jobs, OUT, args.seconds, probe, sample_setup)
        setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]
        results = [r for rs in runs for r in rs]
        wall_s, cpu_s = workloads.typical_pass(runs)
        wall_calib, cpu_calib = workloads.typical_pass(runs, probe.wall)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_calib": (wall_calib, "calib"),
            "cpu_calib": (cpu_calib, "calib"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                            - calibrate.BUFFER_BYTES / 2 ** 20, "MB"),
        }

    failed = sum(not r.passed for r in results)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "setup_samples_s": setup,
        "failed_frac": workloads.failed_frac(results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_s": None if probe is None else {
            "wall_s": wall_s, "cpu_s": cpu_s,
            "probe_wall_s": probe.wall},
        "jobs": [asdict(r) for r in results],
    }
    if args.workload == "stability":
        record["informational"] = stability_info(results)
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(results)} jobs run, {failed} failed "
          f"(failed_frac {record['failed_frac']:g})")
    for r in results:
        for problem in r.problems:
            print(f"  FAILED {r.name}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if record["raw_s"] is not None:
        raw = record["raw_s"]
        print(f"  (raw: wall {raw['wall_s']:.4g} s, cpu {raw['cpu_s']:.4g} s, probe "
              f"mean {statistics.fmean(raw['probe_wall_s']) * 1e3:.4g} ms over "
              f"{len(raw['probe_wall_s'])} samples)")
    for N, info in record.get("informational", {}).items():
        print(f"  (informational, not checked: {N} = {info['computed']:.8g}, oracle "
              f"{info['oracle']:.8g}, relative error {info['rel_error']:+.2e})")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
