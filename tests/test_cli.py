"""The `heisgeom run` exit-code contract: 0 pass, 1 check failed or flagged,
2 parse error, 3 validation error."""

import json

import pytest

from heisgeom.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PARSE_ERROR,
    EXIT_PASS,
    EXIT_VALIDATION_ERROR,
    main,
)
from heisgeom.manifests import builtin_doc, load_doc


def run(tmp_path, manifest, *extra):
    out = tmp_path / "report.json"
    code = main(["run", "--manifest", str(manifest), "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def write_doc(tmp_path, section, key, value):
    doc = load_doc("foliation-flat")
    config = dict(doc.get("config", {}))
    config[section] = {**config.get(section, {}), key: value}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**doc, "config": config}))
    return path


@pytest.mark.parametrize(
    "manifest, n_checks",
    [("heisenberg3", 47), ("heisenberg5", 23), ("foliation-flat", 23), ("contact-darboux", 53), ("degenerate-rank2", 25)],
)
def test_builtin_passes_with_stable_checks_across_jobs(tmp_path, capsys, manifest, n_checks):
    code, serial = run(tmp_path, manifest, "--suite", "all", "--jobs", "1")
    assert code == EXIT_PASS
    assert len(serial["checks"]) == n_checks
    assert serial["summary"] == {"pass": n_checks, "fail": 0, "flagged": 0, "error": 0}
    # --jobs is accepted for old callers and changes nothing
    code, again = run(tmp_path, manifest, "--suite", "all", "--jobs", "4")
    assert code == EXIT_PASS
    assert json.dumps(again["checks"], sort_keys=True) == json.dumps(serial["checks"], sort_keys=True)
    assert f"{n_checks} passed" in capsys.readouterr().out


def test_check_that_raises_is_an_error_record(tmp_path, capsys):
    # at seed 2 the darboux-change transition sweep has too few nonzero residuals to fit a rate
    code, report = run(tmp_path, "contact-darboux", "--suite", "groupoid", "--seed", "2")
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    verdicts = {rec["id"]: rec["verdict"] for rec in report["checks"]}
    assert verdicts.pop("groupoid/darboux-change/transition-limit") == "error"
    assert set(verdicts.values()) == {"pass"}
    (bad,) = [rec for rec in report["checks"] if rec["verdict"] == "error"]
    assert bad["value"]["error"] == "RateError"
    assert "residuals above the zero floor" in bad["value"]["message"]
    assert report["summary"] == {"pass": len(verdicts), "fail": 0, "flagged": 0, "error": 1}
    _, default_seed = run(tmp_path, "contact-darboux", "--suite", "groupoid")
    assert [rec["id"] for rec in report["checks"]] == [rec["id"] for rec in default_seed["checks"]]


@pytest.mark.parametrize(
    "section, key, value",
    [("tolerances", "slope_min", "abc"), ("samples", "tuples", "many"), ("samples", "per_axis", 2.5)],
)
def test_malformed_config_value_is_validation_error(tmp_path, capsys, section, key, value):
    code, report = run(tmp_path, write_doc(tmp_path, section, key, value))
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert f"config.{section}.{key}" in capsys.readouterr().err


def write_json(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_target_chart_too_small_is_validation_error(tmp_path, capsys):
    doc = builtin_doc("contact-darboux")
    (target,) = [chart for chart in doc["charts"] if chart["name"] == "darboux1"]
    target["domain"] = [[-1.0, 1.0]] * 3
    code, report = run(tmp_path, write_json(tmp_path, doc), "--suite", "diffeo")
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    err = capsys.readouterr().err
    assert "darboux-change" in err and "outside the target domain" in err


def test_singular_frame_is_validation_error(tmp_path, capsys):
    doc = builtin_doc("heisenberg3")
    doc["charts"][0]["frame"][1][1] = [[1.0, [0, 1, 0]]]  # X_1 = x_1 d_1 + x_2 d_0: singular on x_1 = 0
    code, report = run(tmp_path, write_json(tmp_path, doc), "--suite", "all")
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert "nearly singular" in capsys.readouterr().err


def test_nonfinite_coefficient_is_validation_error(tmp_path, capsys):
    doc = builtin_doc("heisenberg3")
    doc["charts"][0]["frame"][1][0] = [[float("inf"), [0, 0, 1]]]
    code, _ = run(tmp_path, write_json(tmp_path, doc))
    assert code == EXIT_VALIDATION_ERROR
    assert "charts[0].frame[1][0]" in capsys.readouterr().err


def test_malformed_tol_override_is_validation_error(tmp_path, capsys):
    code, _ = run(tmp_path, "foliation-flat", "--tol", "pseudo_norm=tight")
    assert code == EXIT_VALIDATION_ERROR
    assert "pseudo_norm" in capsys.readouterr().err


def test_unreadable_manifest_is_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(tmp_path, path)[0] == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


def test_tightened_tolerance_fails_the_run(tmp_path, capsys):
    code, report = run(tmp_path, "foliation-flat", "--suite", "group", "--tol", "pseudo_norm=1e-16")
    assert code == EXIT_CHECK_FAILED
    verdicts = {rec["id"]: rec["verdict"] for rec in report["checks"]}
    assert verdicts.pop("group/flat/pseudo-norm") == "fail"
    assert set(verdicts.values()) == {"pass"}
    assert "1 failed" in capsys.readouterr().out
