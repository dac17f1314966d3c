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
from heisgeom.manifests import load_doc


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


def test_builtin_passes_with_stable_checks_across_jobs(tmp_path, capsys):
    code, serial = run(tmp_path, "foliation-flat", "--suite", "all", "--jobs", "1")
    assert code == EXIT_PASS
    assert len(serial["checks"]) == 23
    assert serial["summary"] == {"pass": 23, "fail": 0, "flagged": 0}
    code, threaded = run(tmp_path, "foliation-flat", "--suite", "all", "--jobs", "4")
    assert code == EXIT_PASS
    assert json.dumps(threaded["checks"], sort_keys=True) == json.dumps(serial["checks"], sort_keys=True)
    assert "23 passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "section, key, value",
    [("tolerances", "slope_min", "abc"), ("samples", "tuples", "many"), ("samples", "per_axis", 2.5)],
)
def test_malformed_config_value_is_validation_error(tmp_path, capsys, section, key, value):
    code, report = run(tmp_path, write_doc(tmp_path, section, key, value))
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert f"config.{section}.{key}" in capsys.readouterr().err


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
