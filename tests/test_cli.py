import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import memsplate
import memsplate.certificates as certificates
import memsplate.cli as cli
import memsplate.hardy as hardy
import memsplate.verify as verify
from memsplate.cli import _hr_checks, _parse_dims, main
from memsplate.grid import InvalidArgument
from memsplate.verify import SAMPLES, prove_signomial_nonneg


def run(tmp_path, *argv):
    """main's exit code, that of an argparse refusal (a SystemExit) included."""
    try:
        return main([*argv, "--out", str(tmp_path)])
    except SystemExit as exc:
        return exc.code


# Run in a fresh interpreter: this one has imported scipy already.  Runs the
# groups of commands named after the source path, in order, and prints, as
# its last line, which of scipy.integrate, scipy.linalg, scipy.sparse,
# scipy._lib._array_api (which scipy.linalg's package init loads) and the
# LAPACK extension scipy.linalg._flapack are loaded after the import and
# after each group.
_LAZY_SCIPY_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import memsplate.cli
memsplate.cli.build_parser()

GROUPS = {
    "certificates": [["table1", "--rigor", "interval", "--dims", "40"],
                     ["certify", "--dim", "17"], ["threshold"]],
    "branch": [["branch", "--dim", "3", "--M", "64"]],
    "pullin": [["pullin", "--dim", "5", "--M", "64"]],
    "hr": [["hr", "--variant", "hr3", "--dim", "9"]],
}

def loaded():
    return [m for m in ("scipy.integrate", "scipy.linalg", "scipy.sparse",
                        "scipy._lib._array_api", "scipy.linalg._flapack")
            if m in sys.modules]

seen = {"import": loaded()}
with tempfile.TemporaryDirectory() as d:
    for group in sys.argv[2:]:
        for argv in GROUPS[group]:
            assert memsplate.cli.main([*argv, "--out", d]) == 0
        seen[group] = loaded()
print(json.dumps(seen))
"""


def _probe(tmp_path, *groups):
    src = Path(memsplate.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_PROBE, str(src), *groups],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_certificates_load_no_scipy_submodule_and_solves_only_linalg(tmp_path):
    seen = _probe(tmp_path, "certificates", "branch", "pullin")
    # hr runs in an interpreter of its own, after the import only
    seen["hr"] = _probe(tmp_path, "hr")["hr"]
    assert not any("scipy.integrate" in mods for mods in seen.values())
    assert seen["import"] == [] and seen["certificates"] == []
    # the solver's operator is one LAPACK band: no scipy.sparse on the way,
    # and its LU loads the LAPACK extension alone, not the scipy.linalg package
    assert seen["branch"] == seen["pullin"] == ["scipy.linalg._flapack"]
    # hr's discrete form check sums the stencil triplets with numpy
    assert seen["hr"] == []


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    try:
        assert run(tmp_path, "threshold", "--to", "6") == 0
        first = len(built)
        assert run(tmp_path, "threshold", "--to", "7") == 0
    finally:
        cli.build_parser.cache_clear()  # drop the counting parser
    assert built.count("memsplate") == 1 and len(built) == first
    assert json.loads((tmp_path / "threshold.json").read_text())[-1]["N"] == 7


def test_parse_dims():
    assert _parse_dims("9..12") == [9, 10, 11, 12]
    assert _parse_dims("9,12,31") == [9, 12, 31]
    with pytest.raises(InvalidArgument, match="empty dimension range"):
        _parse_dims("12..9")
    with pytest.raises(InvalidArgument, match="malformed dimension list ''"):
        _parse_dims("")


@pytest.mark.parametrize("command", [["branch"], ["table1", "--rigor", "interval"],
                                     ["table1", "--rigor", "sampled"]])
def test_an_empty_dimension_list_exits_config(tmp_path, capsys, command):
    # an empty --dims is a malformed list, not a missing flag: branch must
    # not fall back to --dim, nor table1 to every table dimension; --rigor
    # takes only the interval tier, and argparse refuses sampled first
    assert run(tmp_path, *command, "--dims", "") == 3
    err = capsys.readouterr().err
    if "sampled" in command:
        assert "argument --rigor: invalid choice: 'sampled'" in err
    else:
        assert err == "configuration error: malformed dimension list ''\n"
    assert not (tmp_path / "manifest.json").exists()


def test_threshold_json(tmp_path):
    assert run(tmp_path, "threshold", "--from", "5", "--to", "12") == 0
    rows = json.loads((tmp_path / "threshold.json").read_text())
    byN = {r["N"]: r for r in rows}
    assert set(byN) == set(range(5, 13))
    for N, row in byN.items():
        assert row["holds"] == (N >= 9)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "threshold"
    assert "timestamp" not in json.dumps(manifest).lower()


def test_threshold_rerun_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "threshold", "--from", "5", "--to", "9")
    run(b, "threshold", "--from", "5", "--to", "9")
    for name in ("threshold.json", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("start,end", [("10", "5"), ("3", "2")])
def test_empty_threshold_range_exits_config_with_a_reason(tmp_path, capsys, start, end):
    assert run(tmp_path, "threshold", "--from", start, "--to", end) == 3
    err = capsys.readouterr().err
    assert err == f"configuration error: empty dimension range --from {start} --to {end}\n"
    assert not (tmp_path / "threshold.json").exists()


def test_certify_default_candidate(tmp_path, capsys):
    assert run(tmp_path, "certify", "--dim", "20") == 0
    out = capsys.readouterr().out
    assert "N=20" in out and "Pass" in out
    doc = json.loads((tmp_path / "certify_N20.json").read_text())
    assert doc["verdict"] == "Pass"
    assert doc["candidate"]["m"] == 3.0


def test_certify_interval_writes_enclosures_and_boxes(tmp_path, monkeypatch):
    # at N = 20 a proved level of each enclosure search implies its cleared
    # claim, so the claims take no boxes of their own and say why; proved by
    # themselves they take 4 and 11 boxes
    claims = {}
    real = certificates._check_inf

    def spy(label, claim, *args):
        claims[label] = claim
        return real(label, claim, *args)

    monkeypatch.setattr(certificates, "_check_inf", spy)
    assert run(tmp_path, "certify", "--dim", "20", "--rigor", "interval") == 0
    doc = json.loads((tmp_path / "certify_N20.json").read_text())
    assert doc["verdict"] == "Pass"
    for cond, sharpest, own_boxes in (("cond1", "sharpest_lambda_prime", 4),
                                      ("cond2", "sharpest_beta", 11)):
        lo, hi = doc[cond]["sharpest_enclosure"]
        assert lo <= doc[sharpest] <= hi
        assert doc[cond]["boxes"] == 0 and doc[cond]["levels"] > 0
        [note] = doc[cond]["notes"]
        assert note.startswith(f"{cond} claim implied by the proved level ")
        rep = prove_signomial_nonneg(claims[cond])
        assert rep.proved and rep.boxes == own_boxes
        assert 0 < doc[cond]["sampled_points"] < SAMPLES


def test_certify_custom_candidate(tmp_path):
    assert run(tmp_path, "certify", "--dim", "9", "--m", "14/5",
               "--lambda-prime", "366", "--beta-cert", "733/2",
               "--variant", "hr3") == 0
    doc = json.loads((tmp_path / "certify_N9.json").read_text())
    assert doc["verdict"] == "Pass"


def test_certify_unbounded_enclosure_carries_a_reason(tmp_path):
    # at m = 1e30 the cond1 claim is refuted at r = 1 and no level of its
    # sharpest value is provable, so that enclosure is unbounded above
    assert run(tmp_path, "certify", "--dim", "9", "--m", "1e30",
               "--rigor", "interval") == 0
    doc = json.loads((tmp_path / "certify_N9.json").read_text())
    assert doc["verdict"] == "Fail"
    # strict JSON has no Infinity: the unbounded end is null, and the note says why
    assert doc["cond1"]["sharpest_enclosure"][1] is None
    assert "Infinity" not in (tmp_path / "certify_N9.json").read_text()
    assert "cond1 sharpest value unbounded: no level was proved" in doc["cond1"]["notes"]


def test_certify_subcritical_dim_is_config_error(tmp_path):
    assert run(tmp_path, "certify", "--dim", "8") == 3


def test_bad_flags_exit_config(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["branch", "--dim", "notanint"])
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        main(["nosuchcommand"])
    assert e.value.code == 3


@pytest.mark.parametrize("argv", [
    ["branch", "--dims", "9,x"],
    ["branch", "--dims", "9.."],
    ["branch", "--dims", ","],
    ["table1", "--dims", "9..x"],
    ["certify", "--dim", "9", "--m", "abc"],
    ["certify", "--dim", "9", "--m", "1/0"],
    ["branch", "--dim", "9", "--gamma", "nan"],
    ["branch", "--dim", "9", "--gamma", "inf"],
])
def test_malformed_values_exit_config_with_a_reason(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("rigor", ["sampled", "interval"])
@pytest.mark.parametrize("flag,value,label", [
    ("--m", "1e100", "cond1"),
    ("--m", "1e400", "cond1"),
    ("--lambda-prime", "1e400", "cond1"),
    ("--beta-cert", "1e400", "cond2"),
])
def test_candidate_beyond_the_float_range_exits_config(tmp_path, capsys, flag,
                                                      value, label, rigor):
    # the cleared condition signomials would have coefficients that no float
    # holds; the check refuses them before it evaluates them.  --rigor takes
    # only the interval tier, and argparse refuses sampled first
    assert run(tmp_path, "certify", "--dim", "9", flag, value, "--rigor", rigor) == 3
    err = capsys.readouterr().err
    if rigor == "sampled":
        assert "argument --rigor: invalid choice: 'sampled'" in err
    else:
        assert err.startswith(f"configuration error: the {label} signomials of this "
                              "candidate leave the float range")
    assert "Traceback" not in err
    assert not (tmp_path / "certify_N9.json").exists()


def test_pullin_refuses_a_dimension_below_one(tmp_path, capsys):
    # nu1 names the dimension itself, not a grid the user never asked for
    assert run(tmp_path, "pullin", "--dim", "0") == 3
    err = capsys.readouterr().err
    assert err == "configuration error: nu1 needs a dimension N >= 1, got N=0\n"
    assert not (tmp_path / "pullin_N0.json").exists()


def test_bad_grid_is_config_error(tmp_path, capsys):
    assert run(tmp_path, "pullin", "--dim", "2", "--M", "0") == 3
    # too coarse for the touchdown fit: a reason, not a traceback
    assert run(tmp_path, "branch", "--dim", "3", "--M", "32") == 3
    assert "touchdown fit window" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0.9995", "0.999"])
def test_a_lift_already_at_tau_exits_config(tmp_path, capsys, alpha):
    # admissible data (beta <= 0, alpha - beta/2 < 1) whose biharmonic lift
    # has u(0) = alpha, already at or above tau = 0.999: the trace would be
    # that one point, with a bracket of rounding noise and a curve of NaN
    assert run(tmp_path, "branch", "--dim", "9", "--M", "512", "--alpha", alpha) == 3
    err = capsys.readouterr().err
    assert err == ("configuration error: the biharmonic lift already reaches the touchdown "
                   f"threshold: u(0) = {alpha} >= tau = 0.999\n")
    assert not list(tmp_path.iterdir())


def test_a_foldless_trace_off_the_touchdown_profile_warns(tmp_path):
    # the lift has u(0) = 0.998, just below tau = 0.999: the trace reaches
    # tau in two points without a fold, and its last profile is not the 4/3
    # touchdown profile, so lambda(tau) is no pull-in voltage
    assert run(tmp_path, "branch", "--dim", "9", "--M", "512", "--alpha", "0.998") == 0
    doc = json.loads((tmp_path / "branch_N9.json").read_text())
    assert doc["fold"] is False and doc["classification"] == "Regular"
    assert abs(doc["exponent_fit"] - 4 / 3) > 0.15
    assert doc["warnings"] == [
        f"touchdown warning: the trace reached s = tau without a fold and its touchdown "
        f"exponent {doc['exponent_fit']:.3g} is not within 0.15 of 4/3; lambda(tau) is "
        "not a pull-in voltage"]

def test_hr_report(tmp_path):
    assert run(tmp_path, "hr", "--variant", "hr2", "--dim", "12") == 0
    doc = json.loads((tmp_path / "hr_hr2_N12.json").read_text())
    assert doc["variant"] == "HR2" and doc["N"] == 12
    names = {c["name"] for c in doc["checks"]}
    assert "weight_nonnegative" in names
    assert "discrete_form_inequality" in names
    assert doc["verdict"] == "Pass"


@pytest.mark.parametrize("variant,N,margin", [
    ("hr3", 9, "0x1.aadf6263f37e5p+9"),
    ("hr2", 12, "0x1.8bcd8d2c1ec16p+11"),
])
def test_hr_interval_report(tmp_path, variant, N, margin):
    # the weight's sampled margin is that of its cleared (num, den) pair,
    # frozen bit for bit
    assert run(tmp_path, "hr", "--variant", variant, "--dim", str(N),
               "--rigor", "interval") == 0
    doc = json.loads((tmp_path / f"hr_{variant}_N{N}.json").read_text())
    assert doc["verdict"] == "Pass"
    check, = (c for c in doc["checks"] if c["name"] == "weight_nonnegative")
    assert check["method"] == "interval"
    assert check["margin"] == float.fromhex(margin)


def test_hr_weight_margin_is_one_sampled_minimum_at_both_tiers(tmp_path, capsys,
                                                              monkeypatch):
    # one sampled minimum is the weight's margin and the proof its verdict;
    # of the two --rigor values that scripts pass, argparse refuses sampled
    calls = []
    sampled_mins = verify.sampled_mins

    def spy(pairs, *args):
        calls.append(len(pairs))
        return sampled_mins(pairs, *args)

    monkeypatch.setattr(verify, "sampled_mins", spy)
    check, = (c for c in _hr_checks("HR2", 12) if c["name"] == "weight_nonnegative")
    assert calls == [1] and check["method"] == "interval" and check["passed"]
    assert check["margin"] == float.fromhex("0x1.8bcd8d2c1ec16p+11")
    for rigor, code in (("sampled", 3), ("interval", 0)):
        assert run(tmp_path, "hr", "--variant", "hr2", "--dim", "12",
                   "--rigor", rigor) == code
    assert "argument --rigor: invalid choice: 'sampled'" in capsys.readouterr().err


def test_hr_report_keeps_each_checks_verdict(tmp_path, monkeypatch):
    # a failing discrete form check: the report says which check failed
    monkeypatch.setattr(cli, "discrete_form_check", lambda *args, **kwargs:
                        SimpleNamespace(min_relative_gap=-1.0, residual=0.0,
                                        passed=False))
    assert run(tmp_path, "hr", "--variant", "hr2", "--dim", "12") == 0
    doc = json.loads((tmp_path / "hr_hr2_N12.json").read_text())
    assert doc["verdict"] == "Fail"
    assert {c["name"]: c["passed"] for c in doc["checks"]} == {
        "leading_coefficient_identity": True, "weight_nonnegative": True,
        "discrete_form_inequality": False}


def test_hr_builds_its_weight_once_and_ignores_the_seed(tmp_path, monkeypatch):
    # the form check reuses the weight of the other checks, and --seed,
    # kept for existing scripts, changes only the manifest
    built = []
    hr_weight = cli.hr_weight

    def spy(variant, N):
        built.append((variant, N))
        return hr_weight(variant, N)

    monkeypatch.setattr(cli, "hr_weight", spy)
    monkeypatch.setattr(hardy, "hr_weight", spy)
    docs = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert run(out, "hr", "--variant", "hr3", "--dim", "9", "--seed", seed) == 0
        docs.append((out / "hr_hr3_N9.json").read_bytes())
    assert built == [("HR3", 9)] * 2
    assert docs[0] == docs[1]
    check, = (c for c in json.loads(docs[0])["checks"]
              if c["name"] == "discrete_form_inequality")
    assert check["passed"] and check["residual"] < 1e-8
    assert check["margin"] == float.fromhex("0x1.a04e2c2ca0601p+9")


def test_table1_markdown(tmp_path):
    assert run(tmp_path, "table1", "--dims", "9,12") == 0
    text = (tmp_path / "table1.md").read_text()
    assert "| 9 |" in text.replace("  ", " ") or "9" in text
    assert "Pass" in text


def test_branch_outputs(tmp_path):
    assert run(tmp_path, "branch", "--dim", "2", "--M", "256") == 0
    doc = json.loads((tmp_path / "branch_N2.json").read_text())
    assert doc["N"] == 2
    assert doc["classification"] == "Regular"
    lo, hi = doc["lambda_star_bracket"]
    assert 128.0 / 27.0 <= lo < hi
    assert doc["points"][0]["mu1"] is None  # --with-mu1 not given
    assert lo <= doc["lambda_star"] <= hi and doc["fold"] is True
    counters = doc["counters"]
    assert set(counters) == {"factorizations", "failed_solves", "points", "newton_steps",
                             "halvings", "refinements", "fold_secant_steps",
                             "mu1_iterations", "mu1_fallbacks"}
    assert counters["mu1_iterations"] == counters["mu1_fallbacks"] == 0  # no mu1 solved
    # one factorization per Newton step, plus the operator's: each point's
    # tangent comes from its last step's Jacobian
    assert counters["factorizations"] == 1 + counters["newton_steps"]
    # the trace solves past the fold and keeps only the minimal-branch points
    assert counters["points"] > len(doc["points"])
    assert counters["failed_solves"] == 0 and counters["fold_secant_steps"] > 0
    ev = doc["grid_evidence"]
    assert ev["M"] == [256, 128, 64] and ev["lambda_star"][0] == doc["lambda_star"]
    assert ev["observed_order"] > 1.5
    # each coarse trace steps to its fold from the finer trace's fold and
    # takes fewer points and Newton steps than the sweep's own
    assert ev["seeded"] == [False, True, True]
    assert ev["points"][0] == counters["points"] > max(ev["points"][1:]) >= 2
    assert ev["newton_steps"][0] == counters["newton_steps"] > max(ev["newton_steps"][1:])
    # the counters are deterministic: a rerun writes the same bytes
    again = tmp_path / "again"
    again.mkdir()
    assert run(again, "branch", "--dim", "2", "--M", "256") == 0
    assert (again / "branch_N2.json").read_bytes() == (tmp_path / "branch_N2.json").read_bytes()
    lams = [p["lambda"] for p in doc["points"]]
    assert lams == sorted(lams)
    assert (tmp_path / "profile_N2.csv").exists()
    curve = (tmp_path / "curve_N2.csv").read_text().splitlines()
    assert curve[0] == "lambda,sup_u"
    # sampled on s, so the curve keeps its resolution with few points
    assert len(curve) == 1 + 201 and len(doc["points"]) < 20
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "branch"
    assert "versions" in manifest


def test_branch_writes_the_sandwich_for_zero_clamped_data_only(tmp_path):
    # the paper's sandwich 1 - C0 r^(4/3) <= u <= 1 - r^(4/3) assumes
    # u(1) = u'(1) = 0; with u(1) = alpha its upper side fails by alpha
    assert run(tmp_path, "branch", "--dim", "9", "--M", "512") == 0
    doc = json.loads((tmp_path / "branch_N9.json").read_text())
    assert doc["classification"] == "Singular"
    sw = doc["sandwich"]
    assert sw["tol"] == 0.05
    assert sw["lower_violation"] <= sw["tol"] and sw["upper_violation"] <= sw["tol"]
    for alpha, beta in (("0.1", "-0.1"), ("0.5", "0"), ("0", "-0.1")):
        out = tmp_path / f"a{alpha}_b{beta}"
        out.mkdir()
        assert run(out, "branch", "--dim", "9", "--M", "512",
                   "--alpha", alpha, "--beta", beta) == 0
        doc = json.loads((out / "branch_N9.json").read_text())
        assert doc["classification"] == "Singular" and "sandwich" not in doc


def test_pullin_output(tmp_path):
    assert run(tmp_path, "pullin", "--dim", "2", "--M", "256") == 0
    doc = json.loads((tmp_path / "pullin_N2.json").read_text())
    lo, hi = doc["lambda_star_bracket"]
    assert doc["lower_bound"] <= lo < hi <= doc["upper_bound"]
    assert doc["bracket_inside_bounds"] is True
