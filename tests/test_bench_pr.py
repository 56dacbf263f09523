import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py"
_spec = importlib.util.spec_from_file_location("bench_pr", _PATH)
bench_pr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pr)


def test_counters_are_summed_from_the_outputs_that_carry_them(tmp_path):
    # branch counters and grid Newton steps, and the boxes of hr checks;
    # manifests and checks without boxes add nothing
    for N, steps in ((9, [20, 7, 5]), (12, [10, 3, 2])):
        (tmp_path / f"branch_N{N}.json").write_text(json.dumps(
            {"counters": {"points": N, "newton_steps": 2 * N},
             "grid_evidence": {"newton_steps": steps}}))
    (tmp_path / "hr_hr3_N9.json").write_text(json.dumps(
        {"checks": [{"name": "weight_nonnegative", "boxes": 38},
                    {"name": "discrete_form_inequality"}]}))
    (tmp_path / "manifest.json").write_text(json.dumps({"command": "hr"}))
    assert bench_pr.read_counters(tmp_path) == {
        "branch.points": 21, "branch.newton_steps": 42,
        "branch.grid_newton_steps": 47, "hr.boxes": 38}


def test_spread_takes_inclusive_quartiles():
    assert bench_pr.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pr.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}


def test_describe_flags_sources_that_differ_from_the_commit(tmp_path):
    # a tree outside git has no commit; inside git, `dirty` follows src only
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    assert bench_pr.describe(tmp_path)["commit"] is None
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-qm", "a"]):
        subprocess.run(git + args, check=True)
    clean = bench_pr.describe(tmp_path)
    assert len(clean["commit"]) == 40 and clean["dirty"] is False
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert bench_pr.describe(tmp_path) == clean
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    dirty = bench_pr.describe(tmp_path)
    assert dirty["commit"] == clean["commit"] and dirty["dirty"] is True
    assert dirty["src_sha256"] != clean["src_sha256"]
