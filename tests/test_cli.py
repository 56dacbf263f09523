import json

import pytest

from memsplate.cli import _parse_dims, main
from memsplate.grid import InvalidArgument


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def test_parse_dims():
    assert _parse_dims("9..12") == [9, 10, 11, 12]
    assert _parse_dims("9,12,31") == [9, 12, 31]
    with pytest.raises(InvalidArgument, match="empty dimension range"):
        _parse_dims("12..9")


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


def test_certify_default_candidate(tmp_path, capsys):
    assert run(tmp_path, "certify", "--dim", "20", "--rigor", "sampled") == 0
    out = capsys.readouterr().out
    assert "N=20" in out and "Pass" in out
    doc = json.loads((tmp_path / "certify_N20.json").read_text())
    assert doc["verdict"] == "Pass"
    assert doc["candidate"]["m"] == 3.0


def test_certify_interval_writes_enclosures_and_boxes(tmp_path):
    assert run(tmp_path, "certify", "--dim", "20", "--rigor", "interval") == 0
    doc = json.loads((tmp_path / "certify_N20.json").read_text())
    assert doc["verdict"] == "Pass"
    for cond, sharpest in (("cond1", "sharpest_lambda_prime"),
                           ("cond2", "sharpest_beta")):
        lo, hi = doc[cond]["sharpest_enclosure"]
        assert lo <= doc[sharpest] <= hi
        assert doc[cond]["boxes"] > 0


def test_certify_custom_candidate(tmp_path):
    assert run(tmp_path, "certify", "--dim", "9", "--m", "14/5",
               "--lambda-prime", "366", "--beta-cert", "733/2",
               "--variant", "hr3", "--rigor", "sampled") == 0
    doc = json.loads((tmp_path / "certify_N9.json").read_text())
    assert doc["verdict"] == "Pass"


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


def test_bad_grid_is_config_error(tmp_path):
    assert run(tmp_path, "pullin", "--dim", "2", "--M", "0") == 3


def test_hr_report(tmp_path):
    assert run(tmp_path, "hr", "--variant", "hr2", "--dim", "12",
               "--rigor", "sampled") == 0
    doc = json.loads((tmp_path / "hr_hr2_N12.json").read_text())
    assert doc["variant"] == "HR2" and doc["N"] == 12
    names = {c["name"] for c in doc["checks"]}
    assert "weight_nonnegative" in names
    assert "discrete_form_inequality" in names
    assert doc["verdict"] == "Pass"


def test_table1_markdown(tmp_path):
    assert run(tmp_path, "table1", "--dims", "9,12", "--rigor", "sampled") == 0
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
    counters = doc["counters"]
    assert set(counters) == {"factorizations", "failed_solves"}
    assert counters["factorizations"] > len(doc["points"])  # one per Newton step
    # the first lambda past the fold fails, and so do bisection points above it
    assert counters["failed_solves"] >= 2
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
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "branch"
    assert "versions" in manifest


def test_pullin_output(tmp_path):
    assert run(tmp_path, "pullin", "--dim", "2", "--M", "256") == 0
    doc = json.loads((tmp_path / "pullin_N2.json").read_text())
    lo, hi = doc["lambda_star_bracket"]
    assert doc["lower_bound"] <= lo < hi <= doc["upper_bound"]
    assert doc["bracket_inside_bounds"] is True
