"""Tests of the benchmark's own harness: the layer wrappers, span arithmetic,
how failed jobs are counted, and how a run repeats jobs and samples the
reference kernel.

Run from the repository root:  python3 -m pytest perfbench/test_harness.py
"""

import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import memsplate.branch  # noqa: E402
import memsplate.certificates  # noqa: E402
import memsplate.cli  # noqa: E402
import memsplate.hardy  # noqa: E402
import memsplate.operators  # noqa: E402
import memsplate.verify  # noqa: E402
from memsplate.exprs import Signomial  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# (module, name) bindings that `patched` must replace: the defining module and
# the modules that import the name with `from .x import y`.
BINDINGS = [
    (memsplate.cli, "main"),
    (memsplate.cli, "sweep_branch"),
    (memsplate.branch, "sweep_branch"),
    (memsplate.branch, "bilaplacian_clamped"),
    (memsplate.operators, "bilaplacian_clamped"),
    (memsplate.verify, "prove_signomial_nonneg"),
    (memsplate.certificates, "prove_signomial_nonneg"),
    (memsplate.hardy, "prove_signomial_nonneg"),
    (memsplate.verify, "prove_nonneg"),
]


def _current():
    return [getattr(m, name) for m, name in BINDINGS]


def test_patched_rebinds_every_holder_and_restores_the_originals():
    before = _current()
    with spans.patched(spans.Tracer()):
        during = _current()
    after = _current()
    for orig, wrapped, restored in zip(before, during, after):
        assert wrapped is not orig
        assert wrapped.__wrapped__ is orig
        assert restored is orig


def test_patched_restores_the_originals_when_the_block_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _current()))


def test_traced_proof_records_nested_spans_and_counts():
    tracer = spans.Tracer()
    sig = Signomial({0: 1, 1: Fraction(-1, 2)})  # 1 - r/2 > 0 on (0, 1)
    with spans.patched(tracer):
        assert memsplate.verify.prove_signomial_nonneg(sig).proved
    outer, *inner = tracer.spans
    assert outer.name == "verify.prove_signomial_nonneg" and outer.attrs["proved"]
    assert inner and all(s.name == "intervals.prove_nonneg" and s.parent == outer.id
                         for s in inner)
    m = spans.layer_metrics(tracer.spans)
    assert m["verify.proofs"][0] == 1
    assert m["intervals.bisections"][0] == len(inner)
    assert m["intervals.boxes"][0] == sum(s.attrs["boxes"] for s in inner) > 0


def _span(i, name, start, end, parent=None, **attrs):
    return spans.Span(i, name, start, end, parent, "0:job", attrs)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(0, "p", 0.0, 10.0)
    # overlapping children [1, 4] and [3, 6] cover 5; [9, 12] is clipped to 1
    kids = [_span(1, "c", 1.0, 4.0, 0), _span(2, "c", 3.0, 6.0, 0),
            _span(3, "c", 9.0, 12.0, 0)]
    assert spans.self_seconds(parent, kids) == pytest.approx(4.0)
    assert spans.self_seconds(parent, []) == pytest.approx(10.0)


def test_layer_metrics_on_a_synthetic_span_tree():
    tree = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "branch.sweep_branch", 1.0, 8.0, 0, ok=True, points=2),
        _span(2, "branch.newton_solve", 2.0, 3.0, 1, ok=True, iters=4),
        _span(3, "branch.newton_solve", 3.0, 5.0, 1, ok=False),
        _span(4, "branch.monotone_solve", 5.0, 6.5, 1, ok=True, iters=7),
        _span(5, "operators.bilaplacian_clamped", 1.0, 1.5, 1, ok=True),
        _span(6, "verify.inf_enclosure", 8.0, 9.5, 0, ok=True),
        _span(7, "verify.prove_signomial_nonneg", 8.5, 9.0, 6, ok=True, proved=True),
        _span(8, "verify.prove_signomial_nonneg", 9.0, 9.4, 6, ok=True, proved=False),
        _span(9, "intervals.prove_nonneg", 8.6, 8.9, 7, ok=True, proved=True, boxes=30),
    ]
    m = {k: v for k, (v, _) in spans.layer_metrics(tree).items()}
    # cli.main covers 10 s; its children cover [1, 8] and [8, 9.5]
    assert m["cli.self_s"] == pytest.approx(1.5)
    # the sweep covers 7 s; its children cover [1, 1.5] and [2, 6.5]
    assert m["branch.self_s"] == pytest.approx(2.0)
    assert m["branch.points"] == 2
    assert (m["branch.newton_calls"], m["branch.newton_failed"]) == (2, 1)
    assert m["branch.newton_iters"] == 4 and m["branch.iters_per_newton"] == 4.0
    assert m["branch.monotone_iters"] == 7
    assert m["branch.failed_solve_s"] == pytest.approx(2.0)
    assert m["branch.solve_success_ratio"] == pytest.approx(2 / 3)
    assert m["operators.calls"] == 1
    assert m["verify.levels_per_enclosure"] == 2.0
    assert m["verify.proof_success_ratio"] == 0.5
    assert m["intervals.boxes"] == 30
    assert m["intervals.boxes_per_s"] == pytest.approx(100.0)
    assert m["stability.eig_p50_ms"] == 0.0


def test_busy_counts_nested_spans_of_the_same_layer_once():
    tree = [_span(0, "operators.bilaplacian_form", 0.0, 4.0),
            _span(1, "operators.bilaplacian_clamped", 1.0, 2.0, 0)]
    t = spans.SpanTree(tree)
    assert t.busy("operators.bilaplacian_form", "operators.bilaplacian_clamped") == 4.0


def test_a_wrong_reference_counts_in_failed_frac(tmp_path):
    ref = workloads.load_reference()
    good = workloads.run_job(workloads.nu1_job(1, ref), tmp_path)
    ref["nu1"]["1"] *= 1.01
    bad = workloads.run_job(workloads.nu1_job(1, ref), tmp_path)
    assert good.passed and not bad.passed
    assert workloads.failed_frac([good, bad]) == 0.5


def test_a_nonzero_exit_counts_as_failed_without_raising(tmp_path):
    res = workloads.run_job(workloads.hr_job("hr2", 3, 0), tmp_path)  # HR2 needs N >= 5
    assert res.problems == ["exit code 3"]
    assert workloads.failed_frac([res]) == 1.0


def test_the_seed_fixes_the_jobs():
    ref = workloads.load_reference()
    for workload in ("sweep_regular", "sweep_singular", "certify_interval", "stability"):
        names = [[j.name for j in workloads.jobs_for(workload, s, ref)] for s in range(6)]
        again = [[j.name for j in workloads.jobs_for(workload, s, ref)] for s in range(6)]
        assert names == again
        assert len({tuple(n) for n in names}) > 1


def _quick_job(name):
    return workloads.Job(name, lambda out: 0, lambda out, ret: ([], {}))


def test_run_rounds_runs_every_job_once_when_no_time_is_left(tmp_path):
    jobs = [_quick_job("a"), _quick_job("b"), _quick_job("c")]
    calls = []
    runs = workloads.run_rounds(jobs, tmp_path, seconds=0.0,
                                between=lambda: calls.append(1))
    assert [[r.name for r in rs] for rs in runs] == [["a"], ["b"], ["c"]]
    assert len(calls) == 3
    assert all(r.passed for rs in runs for r in rs)


def test_typical_pass_sums_each_jobs_median():
    def res(wall, cpu):
        return workloads.JobResult("j", wall, cpu, [])

    runs = [[res(1.0, 0.9), res(3.0, 2.9), res(2.0, 1.9)], [res(5.0, 4.0)]]
    wall, cpu = workloads.typical_pass(runs)
    assert wall == pytest.approx(2.0 + 5.0)
    assert cpu == pytest.approx(1.9 + 4.0)


def test_typical_pass_divides_each_run_by_the_probe_samples_taken_during_it():
    probe_wall = [1.0, 3.0, 0.5, 4.0]
    runs = [[workloads.JobResult("a", 8.0, 8.0, [], probe_samples=(0, 2)),    # mean 2
             workloads.JobResult("a", 5.0, 5.0, [], probe_samples=(2, 3))],   # 0.5
            [workloads.JobResult("b", 0.1, 0.1, [], probe_samples=(3, 3))]]   # none
    wall, cpu = workloads.typical_pass(runs, probe_wall)
    assert wall == pytest.approx((8.0 / 2 + 5.0 / 0.5) / 2 + 0.1 / 2.125)
    assert cpu == pytest.approx(wall)


def test_speed_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with calibrate.SpeedProbe(interval_s=0.005) as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.wall) > 5 and min(probe.wall) > 0
    assert probe.total_s >= sum(probe.wall)


def test_run_rounds_takes_the_probe_time_out_of_the_job_times(tmp_path):
    class _Probe:
        total_s = 0.0
        wall: list = []

    probe = _Probe()

    def call(out):
        time.sleep(0.05)
        probe.total_s += 0.02        # as if the handler had run for 20 ms

    job = workloads.Job("sleep", call, lambda out, ret: ([], {}))
    (run,), = workloads.run_rounds([job], tmp_path, seconds=0.0, probe=probe)
    assert 0.025 < run.seconds < 0.05
