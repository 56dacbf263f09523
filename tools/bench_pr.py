"""Time the benchmark's jobs on a parent tree and a changed tree; write BENCH_<PR>.json.

Run from the repository root, with a second checkout of the parent commit:

    python tools/bench_pr.py --parent ../parent --change . --pr 41

For each seed and workload, each side runs in a fresh interpreter whose
`sys.path` starts with that tree's `src`.  The interpreter builds the
workload's job list with `perfbench/workloads.jobs_for` (this checkout's copy,
read only) and then runs one pass over the jobs each time it is asked.  A job
is one `memsplate.cli.main([...])` call (nu1 has no command and calls
`stability.nu1`) plus the benchmark's check of its outputs, timed whole with
`time.perf_counter`; a pass's time is the sum over its jobs.

The two interpreters of a seed are started together and take turns, one pass
at a time: `--warmup` untimed passes each, then `--passes` timed ones.  The
side that goes first alternates from seed to seed and, within a seed, from
pass to pass (ABBA), so that the fast and slow spells of a shared machine,
which last seconds, meet both sides alike.  A pair is a seed: each side's
median pass.  Per workload and side the file holds the median and quartiles
over the seeds, in wall and CPU seconds, and the peak RSS of the interpreter;
per workload, the number of pairs in which the change was faster and the
median and quartiles of the pairs' relative change in wall time.  The seeds'
own spread holds the machine's slow and fast spells, which both sides of a
pair share, so the paired change is the sharper reading.

The per-layer counters are those the outputs carry: `counters` and
`grid_evidence.newton_steps` of `branch_N<N>.json` and the `boxes` of the `hr`
checks; `table1` writes none.  Nothing is wrapped or patched.  The record
names the machine, Python, numpy, scipy and the BLAS thread count, pinned by
importing `perfbench/run.py` (whose `WORKLOADS` this script runs), and each
side's git HEAD, whether its `src` differs from that HEAD, and a hash of its
package sources.  The script exits 1 when a job failed its check or raised.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def read_counters(out: Path) -> Counter:
    """Sums of the counters that a job's output files carry."""
    counts = Counter()
    for path in out.glob("*.json"):
        doc = json.loads(path.read_text())
        if path.name.startswith("branch_"):
            counts.update({f"branch.{k}": v for k, v in doc.get("counters", {}).items()})
            steps = (doc.get("grid_evidence") or {}).get("newton_steps")
            if steps is not None:
                counts["branch.grid_newton_steps"] += sum(steps)
        elif path.name.startswith("hr_"):
            for check in doc["checks"]:
                if "boxes" in check:
                    counts["hr.boxes"] += check["boxes"]
    return counts


def run_pass(jobs) -> dict:
    """One timed pass over the jobs, with its failures and output counters."""
    wall = cpu = 0.0
    counts, failures = Counter(), []
    for job in jobs:
        with tempfile.TemporaryDirectory() as d:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                problems, _ = job.check(Path(d), job.call(Path(d)))
            except (Exception, SystemExit) as exc:  # a failed job, recorded
                traceback.print_exc()
                problems = [f"{type(exc).__name__}: {exc}"]
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            counts.update(read_counters(Path(d)))
        failures += [f"{job.name}: {p}" for p in problems]
    return {"wall_s": wall, "cpu_s": cpu, "counters": dict(sorted(counts.items())),
            "failures": failures}


def worker(tree: Path, workload: str, seed: int) -> None:
    """Serve passes of the workload on `tree`'s package: one line in, one
    JSON line out, and the interpreter's record at the end of the input."""
    sys.path.insert(0, str(tree / "src"))
    import memsplate
    if Path(memsplate.__file__).resolve().parent != (tree / "src" / "memsplate").resolve():
        raise SystemExit(f"memsplate imported from {memsplate.__file__}, not {tree / 'src'}")
    sys.path.append(str(PERFBENCH))
    import resource

    import workloads
    from run import machine_record

    out = sys.stdout
    jobs = workloads.jobs_for(workload, seed, workloads.load_reference())
    print("ready", file=out, flush=True)
    for _ in sys.stdin:
        with contextlib.redirect_stdout(sys.stderr):  # keep the replies alone on stdout
            result = run_pass(jobs)
        print(json.dumps(result), file=out, flush=True)
    print(json.dumps({"jobs": len(jobs),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "machine": machine_record()}), file=out, flush=True)


def run_seed(trees: dict, workload: str, seed: int, passes: int, warmup: int,
             first: str) -> dict:
    """Both sides' records of one seed, their passes taken in turns."""
    procs = {side: subprocess.Popen(
        [sys.executable, __file__, "--worker", str(tree), workload, str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, tree in trees.items()}

    def reply(side: str) -> str:
        line = procs[side].stdout.readline()
        if not line:
            raise SystemExit(f"the {workload} worker on the {side} tree exited "
                             f"{procs[side].wait()}")
        return line

    for side in procs:
        reply(side)  # ready: both interpreters are idle before the first pass
    order = [first, *(side for side in procs if side != first)]
    recs = {side: {"first": side == first, "wall_s": [], "cpu_s": [], "counters": [],
                   "failures": []} for side in procs}
    for k in range(warmup + passes):
        for side in order if k % 2 == 0 else order[::-1]:
            procs[side].stdin.write("pass\n")
            procs[side].stdin.flush()
            result = json.loads(reply(side))
            rec = recs[side]
            rec["failures"] += result["failures"]
            rec["counters"].append(result["counters"])
            if k >= warmup:
                rec["wall_s"].append(result["wall_s"])
                rec["cpu_s"].append(result["cpu_s"])
    for side, proc in procs.items():
        proc.stdin.close()
        recs[side].update(json.loads(reply(side)))
        proc.wait()
        counters = recs[side].pop("counters")
        recs[side]["counters"] = counters[0]
        recs[side]["counters_repeat"] = all(c == counters[0] for c in counters)
    return recs


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method); one value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def describe(tree: Path) -> dict:
    """The tree's git HEAD (None outside git), whether its `src` has changes
    that HEAD does not hold, and a SHA-256 of its package sources, which names
    the code measured even when it is not committed."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True).stdout.strip()

    commit = git("rev-parse", "HEAD") or None
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit,
            "dirty": bool(git("status", "--porcelain", "--", "src")) if commit else None,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    ap.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    ap.add_argument("--passes", type=int, default=5, help="timed passes per side and seed")
    ap.add_argument("--warmup", type=int, default=1, help="untimed passes before them")
    ap.add_argument("--out", type=Path, help="output file (default: BENCH_<PR>.json)")
    args = ap.parse_args(argv)
    sys.path.append(str(PERFBENCH))
    # importing run pins the BLAS threads in os.environ, which the workers inherit
    from run import WORKLOADS
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {w: {side: [] for side in trees} for w in WORKLOADS}
    machine = None
    for i, seed in enumerate(seeds):
        first = "parent" if i % 2 == 0 else "change"
        for w in runs:
            for side, rec in run_seed(trees, w, seed, args.passes, args.warmup,
                                      first).items():
                machine = rec.pop("machine")
                runs[w][side].append({"seed": seed, **rec})
                print(f"seed {seed} {w} {side}: {statistics.median(rec['wall_s']):.3f} s"
                      f" wall, {len(rec['failures'])} failed", file=sys.stderr)

    doc = {"pr": args.pr, "script": "tools/bench_pr.py", "machine": machine,
           "settings": {"seeds": seeds, "passes": args.passes, "warmup": args.warmup},
           "sides": {side: describe(t) for side, t in trees.items()},
           "workloads": {}}
    failed = 0
    for w, sides in runs.items():
        entry = {}
        for side, recs in sides.items():
            entry[side] = {
                "wall_s": spread([statistics.median(r["wall_s"]) for r in recs]),
                "cpu_s": spread([statistics.median(r["cpu_s"]) for r in recs]),
                "peak_rss_mb": spread([r["peak_rss_mb"] for r in recs]),
                "failed_jobs": sum(len(r["failures"]) for r in recs),
                "counters_repeat": all(r["counters_repeat"] for r in recs),
                "seeds": recs}
            failed += entry[side]["failed_jobs"]
        pairs = [(statistics.median(c["wall_s"]), statistics.median(p["wall_s"]))
                 for c, p in zip(sides["change"], sides["parent"])]
        entry["change_faster_pairs"] = sum(c < p for c, p in pairs)
        entry["pairs"] = len(pairs)
        entry["wall_median_rel_change"] = (entry["change"]["wall_s"]["median"]
                                           / entry["parent"]["wall_s"]["median"] - 1.0)
        entry["pair_wall_rel_change"] = spread([c / p - 1.0 for c, p in pairs])
        doc["workloads"][w] = entry
    doc["failed_jobs"] = failed
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, e in doc["workloads"].items():
        p, c, r = e["parent"]["wall_s"], e["change"]["wall_s"], e["pair_wall_rel_change"]
        print(f"{w}: parent {p['median']:.3f} s [{p['q1']:.3f}, {p['q3']:.3f}], change "
              f"{c['median']:.3f} s [{c['q1']:.3f}, {c['q3']:.3f}], "
              f"{e['wall_median_rel_change']:+.1%}; pairs {r['median']:+.1%} "
              f"[{r['q1']:+.1%}, {r['q3']:+.1%}], change faster in "
              f"{e['change_faster_pairs']}/{e['pairs']}")
    print(f"wrote {out} ({failed} failed jobs)")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        tree, workload, seed = sys.argv[2:]
        worker(Path(tree), workload, int(seed))
    else:
        sys.exit(main())
