"""The `heisgeom run` exit-code contract: 0 pass, 1 check failed or flagged,
2 parse error, 3 validation error."""

import copy
import functools
import json
import math
import operator

import numpy as np
import pytest

from heisgeom.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PARSE_ERROR,
    EXIT_PASS,
    EXIT_VALIDATION_ERROR,
    main,
)
from heisgeom.manifests import Manifest, ValidationError, builtin_doc, builtin_names, load_doc


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
    # a 3-point t grid leaves each inexact dilation trace too few residuals to fit a rate
    doc = builtin_doc("contact-darboux")
    doc["config"]["t_grid"] = [2, 4]
    code, report = run(tmp_path, write_json(tmp_path, doc), "--suite", "coords")
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    verdicts = {rec["id"]: rec["verdict"] for rec in report["checks"]}
    raised = ["coords/darboux0/dilation-perturbed", "coords/darboux1/dilation-exact", "coords/darboux1/dilation-perturbed"]
    assert [verdicts.pop(check_id) for check_id in raised] == ["error"] * 3
    assert set(verdicts.values()) == {"pass"}
    bad = [rec for rec in report["checks"] if rec["verdict"] == "error"]
    assert [rec["id"] for rec in bad] == raised
    for rec in bad:
        assert rec["value"]["error"] == "RateError"
        assert "only 3 positive residuals" in rec["value"]["message"]
    assert report["summary"] == {"pass": len(verdicts), "fail": 0, "flagged": 0, "error": 3}
    _, default_grid = run(tmp_path, "contact-darboux", "--suite", "coords")
    assert [rec["id"] for rec in report["checks"]] == [rec["id"] for rec in default_grid["checks"]]


@pytest.mark.parametrize(
    "section, key, value",
    [("tolerances", "slope_min", "abc"), ("samples", "tuples", "many"), ("samples", "per_axis", 2.5)],
)
def test_malformed_config_value_is_validation_error(tmp_path, capsys, section, key, value):
    code, report = run(tmp_path, write_doc(tmp_path, section, key, value))
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert f"config.{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("tuples", 10**9),  # once a MemoryError after 25 s and 1.3 GB
        ("tuples", 0),
        ("base_limit", 0),
        ("base_limit", 1001),
        ("sweep_tuples", -1),
        ("sweep_tuples", 1001),
        ("per_axis", 0),
        ("per_axis", 2**18),  # 2^54 grid points in dimension 3
        ("shrink", 0.0),
        ("shrink", 1.5),
    ],
)
def test_sample_count_out_of_range_is_validation_error(tmp_path, capsys, key, value):
    code, report = run(tmp_path, write_doc(tmp_path, "samples", key, value), "--suite", "groupoid")
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert f"config.samples.{key}" in capsys.readouterr().err


def test_sample_caps_scale_with_dimension():
    def with_samples(name, **samples):
        doc = builtin_doc(name)
        doc["config"]["samples"] = samples
        return doc

    # dimension 3: 10^5 tuples and a 2^51-point grid; dimension 5: 6 * 10^4 tuples
    Manifest.from_dict(with_samples("heisenberg3", tuples=100_000, per_axis=2**17, base_limit=1000, sweep_tuples=1000, shrink=1.0))
    Manifest.from_dict(with_samples("heisenberg5", tuples=60_000))
    for name, samples in [("heisenberg3", {"tuples": 100_001}), ("heisenberg5", {"tuples": 60_001}), ("heisenberg5", {"per_axis": 2**11})]:
        with pytest.raises(ValidationError):
            Manifest.from_dict(with_samples(name, **samples))


def test_fine_sample_grid_builds_only_the_kept_points(tmp_path):
    # per_axis = 200 is an 8e6-point grid in dimension 3, thinned to base_limit points
    code, report = run(tmp_path, write_doc(tmp_path, "samples", "per_axis", 200), "--suite", "levi")
    assert code == EXIT_PASS
    assert {rec["verdict"] for rec in report["checks"]} == {"pass"}
    # the points the whole grid, built and then thinned, would give
    box = Manifest.from_dict(load_doc("foliation-flat")).charts[0].frame.domain
    axis = (2 * np.arange(40) + 1) / 80
    full = np.stack(np.meshgrid(*[box.lo[i] + axis * (box.hi[i] - box.lo[i]) for i in range(3)], indexing="ij"), axis=-1)
    for limit in (1, 30, 40**3, None):
        kept = full.reshape(-1, 3)[np.linspace(0, 40**3 - 1, limit or 40**3).round().astype(int)]
        assert box.grid(40, limit=limit).tobytes() == kept.tobytes()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_frame_never_reads_as_a_pass(tmp_path):
    # every frame coefficient of heisenberg3 times 1e200, diffeos kept: the
    # bracket products overflow, so the Levi matrix is NaN, and no check on
    # it may pass with a residual or slope that is not finite
    doc = builtin_doc("heisenberg3")
    for field in doc["charts"][0]["frame"]:
        for comp in field:
            for term in comp:
                term[0] *= 1e200
    code, report = run(tmp_path, write_json(tmp_path, doc), "--suite", "all", "--seed", "42")
    assert code == EXIT_CHECK_FAILED
    verdicts = {rec["id"]: rec["verdict"] for rec in report["checks"]}
    assert verdicts["levi/hb3/golden"] != "pass" and verdicts["coords/hb3/b-levi"] != "pass"
    assert verdicts["coords/hb3/dilation-exact"] == verdicts["coords/hb3/dilation-perturbed"] == "error"
    for rec in report["checks"]:
        if rec["verdict"] == "pass":
            assert all(math.isfinite(r) for r in rec["residuals"]), rec["id"]
            assert rec.get("slope") is None or math.isfinite(rec["slope"]), rec["id"]


def test_nonfinite_coefficient_is_validation_error(tmp_path, capsys):
    doc = builtin_doc("heisenberg3")
    doc["charts"][0]["frame"][1][0] = [[float("inf"), [0, 0, 1]]]
    code, _ = run(tmp_path, write_json(tmp_path, doc))
    assert code == EXIT_VALIDATION_ERROR
    assert "charts[0].frame[1][0]" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", [2.5, True])
def test_noninteger_exponent_is_validation_error(tmp_path, capsys, exponent):
    # read as int() these became 2 and 1: a frame other than the one written
    doc = builtin_doc("heisenberg5")
    doc["charts"][0]["frame"][3][0][0][1][3] = exponent
    code, report = run(tmp_path, write_json(tmp_path, doc), "--suite", "coords")
    assert code == EXIT_VALIDATION_ERROR
    assert report is None
    assert "charts[0].frame[3][0][0]" in capsys.readouterr().err


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


def test_one_zero_floor_for_every_rate_check(tmp_path, capsys):
    # every residual trace of heisenberg3 stays below 10, so with that floor
    # each rate record, the dilation checks included, must read exact
    _, report = run(tmp_path, "heisenberg3", "--tol", "zero_floor=10")
    rates = [rec for rec in report["checks"] if "slope" in rec]
    assert {rec["id"].split("/")[-1] for rec in rates} >= {"dilation-exact", "dilation-perturbed", "rate", "transition-limit"}
    assert [rec["id"] for rec in rates if not rec["exact"]] == []


# ---- malformed manifests ------------------------------------------------------

REPLACEMENTS = (None, "s", -1, 0, 1e308, float("nan"), [], {}, [[]], True, 2.5, [1, 2], {"a": 1})


def node_paths(node, path=()):
    """The path of every node below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def mutated_builtins(n, seed):
    """(document, suite) pairs: a builtin with one node replaced by one of
    REPLACEMENTS or, in 15 % of cases, deleted, and one of the suites that
    need no diffeo."""
    rng = np.random.default_rng(seed)
    names = builtin_names()
    for _ in range(n):
        doc = builtin_doc(names[rng.integers(len(names))])
        paths = list(node_paths(doc))
        *parents, key = paths[rng.integers(len(paths))]
        parent = functools.reduce(operator.getitem, parents, doc)
        if rng.uniform() < 0.15:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(REPLACEMENTS[rng.integers(len(REPLACEMENTS))])
        yield doc, ("levi", "coords", "group", "classify")[rng.integers(4)]


def test_mutated_manifests_keep_the_exit_code_contract(tmp_path, capsys):
    codes = []
    for doc, suite in mutated_builtins(200, seed=12):
        codes.append(main(["run", "--manifest", str(write_json(tmp_path, doc)), "--suite", suite, "--seed", "1"]))
    assert set(codes) <= {EXIT_PASS, EXIT_CHECK_FAILED, EXIT_VALIDATION_ERROR}
    assert codes.count(EXIT_VALIDATION_ERROR) > 100


@pytest.mark.parametrize(
    "path, value, where",
    [
        # a ragged or non-numeric array
        (("charts", 0, "domain", 1), [[]], "charts[0].domain"),
        (("charts", 0, "expected_levi", 0, 1), "s", "charts[0].expected_levi"),
        (("metrics", "spd", 1, 0), [1, 2], "metrics[spd]"),
        # a number that is a dict, a list or a string
        (("charts", 0, "expected_levi", 0, 1), {"a": 1}, "charts[0].expected_levi"),
        (("config", "jet_order"), [[]], "config.jet_order"),
        (("config", "t_grid", 0), "s", "config.t_grid[0]"),
        # a huge jet order or t grid bound
        (("config", "jet_order"), 1e308, "jet order"),
        (("config", "t_grid", 1), 1e308, "config.t_grid"),
        # a mapping that is not one
        (("config",), [1, 2], "config"),
        (("config", "samples"), [1, 2], "config.samples"),
        (("config", "tolerances"), "s", "config.tolerances"),
        (("metrics",), 0, "metrics"),
        (("charts", 0), "s", "charts[0]"),
        (("diffeos", 1), None, "diffeos[1]"),
        (("charts",), 1e308, "charts"),
        # a polynomial map that is not a list
        (("charts", 0, "frame", 1), 0, "charts[0].frame[1]"),
        (("diffeos", 0, "inverse"), None, "diffeos[0].inverse"),
        # a domain bound that is not a finite number
        (("charts", 0, "domain", 1, 0), float("nan"), "charts[0].domain"),
        (("charts", 0, "domain", 2, 1), None, "charts[0].domain"),
    ],
)
def test_malformed_manifest_node_is_validation_error(tmp_path, capsys, path, value, where):
    doc = builtin_doc("heisenberg3")
    *parents, key = path
    functools.reduce(operator.getitem, parents, doc)[key] = value
    code = main(["run", "--manifest", str(write_json(tmp_path, doc)), "--suite", "levi", "--seed", "1"])
    assert code == EXIT_VALIDATION_ERROR
    assert where in capsys.readouterr().err


def test_missing_diffeo_components_is_validation_error(tmp_path, capsys):
    doc = builtin_doc("heisenberg3")
    del doc["diffeos"][0]["components"]
    assert main(["run", "--manifest", str(write_json(tmp_path, doc)), "--suite", "levi"]) == EXIT_VALIDATION_ERROR
    assert "diffeos[0].components" in capsys.readouterr().err
