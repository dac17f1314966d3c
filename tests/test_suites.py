"""The two verdict rules of the suite runner: `SuiteRunner.rate_outcome`
and `SuiteRunner.threshold_outcome`."""

import dataclasses
import math

import numpy as np
import pytest

from heisgeom import suites
from heisgeom.manifests import DEFAULT_TOLERANCES, Manifest, builtin_doc, builtin_names, load_manifest
from heisgeom.suites import SUITE_NAMES, SuiteRunner

from conftest import TS

RUNNER = SuiteRunner(load_manifest("heisenberg3"))
INPUTS = {"check": "unit"}


def outcome(traces, **kw):
    assert np.array_equal(RUNNER.t_grid, TS)
    return RUNNER.rate_outcome(INPUTS, [np.asarray(r, dtype=float) for r in traces], **kw)


def test_rate_outcome_shows_the_least_slope():
    out = outcome([0.3 * TS**2, 0.3 * TS, 0.3 * TS**1.5])
    assert out.verdict == "pass"
    assert abs(out.slope - 1.0) < 1e-9
    assert out.residuals == tuple((0.3 * TS).tolist())
    assert out.inputs == INPUTS


def test_rate_outcome_takes_the_first_of_equal_slopes():
    out = outcome([0.3 * TS, 0.5 * TS])
    assert out.residuals == tuple((0.3 * TS).tolist())


def test_rate_outcome_prefers_an_inexact_trace():
    out = outcome([np.zeros(len(TS)), 0.2 * TS**3])
    assert abs(out.slope - 3.0) < 1e-9
    assert out.residuals == tuple((0.2 * TS**3).tolist())


def test_rate_outcome_all_exact_shows_the_first_trace():
    first = np.full(len(TS), 1e-12)
    out = outcome([first, np.zeros(len(TS))])
    assert math.isinf(out.slope)
    assert out.verdict == "pass"
    assert out.residuals == tuple(first.tolist())


def test_rate_outcome_fails_below_slope_min():
    out = outcome([0.3 * TS, 0.3 * TS**0.5])
    assert out.verdict == "fail"
    assert abs(out.slope - 0.5) < 1e-9


def test_rate_outcome_ok_false_fails_a_passing_slope():
    assert outcome([0.3 * TS], ok=False).verdict == "fail"


def test_rate_outcome_flagged():
    assert outcome([0.3 * TS], flagged=True).verdict == "flagged"
    # a failing slope is a fail, flagged or not
    assert outcome([0.3 * TS**0.5], flagged=True).verdict == "fail"


def test_rate_outcome_on_a_nan_trace_is_an_error_record():
    rec = RUNNER.record("unit/nan", "groupoid.privileged-composition-claim", lambda: outcome([0.3 * TS, np.full(len(TS), np.nan)]))
    assert rec.verdict == "error"
    assert rec.value["error"] == "RateError"
    assert "not finite" in rec.value["message"]


# check kind (suite/last part of the id) -> the bound of its threshold record:
# a tolerance key, or the name of a fixed bound in `suites`
BOUNDS = {
    "levi/antisymmetry": "levi_antisym",
    "levi/bracket-fd": "levi_fd",
    "levi/golden": "levi_golden",
    "coords/b-levi": "b_levi",
    "coords/normalization": "normalization",
    "coords/model-fields": "model_fields",
    "coords/model-structure": "model_structure",
    "coords/shear-grading": "shear_grading",
    "group/axioms": "group_axioms",
    "group/dilation-automorphism": "group_axioms",
    "group/commutator": "commutator",
    "group/pseudo-norm": "pseudo_norm",
    "group/shear-transport": "shear_homomorphism",
    "classify/identity": "classify_relations",
    "classify/spd": "classify_relations",
    "diffeo/quadratic-vanishing": "quad_coeffs",
    "diffeo/negative-control": "negative_control",
    "diffeo/tangent-blocks": "preserve",
    "diffeo/uniformity": "uniformity",
    "groupoid/axioms": "group_axioms",
    "groupoid/chart-roundtrip": "roundtrip",
    "groupoid/rs-jacobian": "RS_DET_MIN",
    "groupoid/functor": "functor",
}
ABOVE = {"diffeo/negative-control", "groupoid/rs-jacobian"}  # these pass over their bound
# kinds with a rule of their own: the continuity traces and an equality test
OWN_RULE = {
    "groupoid/continuity",
    "groupoid/continuity-negative",
    "groupoid/continuity-chart-independence",
    "classify/metric-independence",
}


def kind_of(check_id: str) -> str:
    parts = check_id.split("/")
    return f"{parts[0]}/{parts[-1]}"


@pytest.mark.parametrize("name", ["heisenberg3", "contact-darboux"])
def test_each_threshold_record_fails_at_its_own_residual(monkeypatch, name):
    """Set the bound of each threshold record to its own residual r: the
    strict comparison fails; one float past r, toward the passing side, it
    passes.  This pins the key each kind reads.  The bound is set after the
    checks are collected, so the `preserve` gate keeps its default."""
    runner = SuiteRunner(load_manifest(name, seed=42))
    defaults = runner.tol
    kinds = set()
    for check in (c for suite in SUITE_NAMES for c in runner.collect(suite)):
        kind = kind_of(check[0])
        rec = runner.record(*check)
        if rec.slope is not None or kind in OWN_RULE:
            continue
        kinds.add(kind)
        bound, r = BOUNDS[kind], max(rec.residuals)
        near = np.nextafter(r, -np.inf if kind in ABOVE else np.inf)
        for value, verdict in ((r, "fail"), (near, "pass")):
            if bound.isupper():
                monkeypatch.setattr(suites, bound, value)
            else:
                runner.tol = {**defaults, bound: value}
            assert runner.record(*check).verdict == verdict, (check[0], bound, value)
        runner.tol = defaults
    if name == "heisenberg3":  # it has every threshold kind
        assert kinds == set(BOUNDS)


def test_every_default_tolerance_is_read_by_some_check():
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    for name in builtin_names():
        manifest = load_manifest(name, seed=42)
        SuiteRunner(dataclasses.replace(manifest, tolerances=Recording(manifest.tolerances))).run(SUITE_NAMES)
    assert read == set(DEFAULT_TOLERANCES)


def test_threshold_outcome_nan_fails_either_way():
    nan = np.array([0.0, np.nan])
    assert RUNNER.threshold_outcome(INPUTS, "levi_fd", nan).verdict == "fail"
    assert RUNNER.threshold_outcome(INPUTS, 0.5, nan, above=True).verdict == "fail"


def test_threshold_outcome_each_shows_one_residual_per_part():
    out = RUNNER.threshold_outcome(INPUTS, 1.0, 0.25, np.array([-0.5, 0.125]), each=True)
    assert out.residuals == (0.25, 0.5)
    assert out.verdict == "pass"
    assert RUNNER.threshold_outcome(INPUTS, 0.5, 0.25, np.array([-0.5]), each=True).verdict == "fail"


def test_threshold_outcome_ok_and_flagged():
    assert RUNNER.threshold_outcome(INPUTS, 1.0, 0.5, ok=False).verdict == "fail"
    assert RUNNER.threshold_outcome(INPUTS, 1.0, 0.5, flagged=True).verdict == "flagged"
    assert RUNNER.threshold_outcome(INPUTS, 0.25, 0.5, flagged=True).verdict == "fail"


def _scaled_frames(doc: dict, factor: float) -> dict:
    """doc with every frame coefficient times `factor`."""
    for chart in doc["charts"]:
        chart["frame"] = [[[[c * factor, e] for c, e in comp] for comp in field] for field in chart["frame"]]
    return doc


def test_the_grid_guard_accepts_a_frame_in_small_units():
    # the determinant guard reads det(B / max|B|), so B(x) * 1e-3, whose
    # determinant is 1e-9, is as invertible as B(x)
    unit = load_manifest("heisenberg3", seed=42).charts[0].frame
    runner = SuiteRunner(Manifest.from_dict(_scaled_frames(builtin_doc("heisenberg3"), 1e-3), seed=42))
    (chart,) = runner.manifest.charts
    pts = runner.base_points(chart.name)
    np.testing.assert_allclose(np.linalg.det(chart.frame.matrix_at(pts)), 1e-9, rtol=1e-12)
    np.testing.assert_allclose(chart.frame.check_invertible(pts), unit.check_invertible(pts), rtol=1e-12)


def _dilation(dim: int, s: float) -> list:
    """The components of delta_s(x) = (s^2 x_0, s x') as manifest terms."""
    return [[[s**2 if i == 0 else s, [int(k == i) for k in range(dim)]]] for i in range(dim)]


def test_a_dilation_by_1e_minus_4_is_a_valid_heisenberg_diffeomorphism():
    # delta_s is an H-diffeomorphism whose graded tangent map diag(s^2, s, ..., s)
    # is tiny but well conditioned.  Only functor's fixed draws, mapped
    # through delta_{1/s}, leave the box: its sample radii are absolute.
    doc = builtin_doc("heisenberg5")
    diffeo = {"name": "dil", "source": "hb5", "target": "hb5"}
    doc["diffeos"] = [{**diffeo, "components": _dilation(5, 1e-4), "inverse": _dilation(5, 1e4)}]
    records = {r.check_id: r for r in SuiteRunner(Manifest.from_dict(doc, seed=42)).run(SUITE_NAMES)}
    passing = ["diffeo/dil/rate", "diffeo/dil/tangent-blocks", "diffeo/dil/uniformity"]
    passing += ["groupoid/dil/transition-limit", "groupoid/dil/continuity-chart-independence"]
    for cid in passing:
        assert records[cid].verdict == "pass", (cid, records[cid].value)
    functor = records["groupoid/dil/functor"]
    assert functor.verdict == "error" and "outside the" in functor.value["message"]
